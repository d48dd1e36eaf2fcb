"""Subbundles of split bundles and the splitting-type calculus.

Everything on the projective line splits, so each computation here reduces
to a sorted multiset of twist integers.  Kernels are computed degreewise:
the kernel of a map of free graded modules over a two-variable polynomial
ring is free, and its Hilbert function pins down the generator degrees, so
the scan below terminates with a certificate rather than a heuristic.
Its generators are nullspace vectors (primitive integer ones over the
rationals) picked by ``linalg`` pivot columns.  Cokernel types come from
the dual kernel (for a map with locally free cokernel, the dual of the
cokernel is the kernel of the transposed map).
"""

from dataclasses import dataclass
from typing import NamedTuple, Optional

from . import linalg
from .forms import BinaryForm
from .frames import GradedMatrix

__all__ = [
    "SplittingType",
    "Pairing",
    "Subbundle",
    "Column",
    "lift_through",
    "kernel_free",
    "cokernel_type",
    "quotient_type",
    "sub_lift",
    "pairing_map",
    "perp",
    "is_isotropic",
    "same_subsheaf",
]


@dataclass(frozen=True)
class SplittingType:
    """Multiset of twists e1 >= ... >= er of a split bundle."""

    twists: tuple

    def __post_init__(self):
        object.__setattr__(self, "twists", tuple(sorted(self.twists, reverse=True)))

    @property
    def rank(self) -> int:
        return len(self.twists)

    @property
    def degree(self) -> int:
        return sum(self.twists)

    def dual(self) -> "SplittingType":
        return SplittingType(tuple(-e for e in self.twists))

    def tensor(self, other: "SplittingType") -> "SplittingType":
        return SplittingType(tuple(a + b for a in self.twists for b in other.twists))

    def wedge2(self) -> "SplittingType":
        if self.rank != 2:
            raise ValueError("wedge2 is only defined for rank-2 types")
        return SplittingType((self.twists[0] + self.twists[1],))

    def scaled(self, d: int) -> "SplittingType":
        return SplittingType(tuple(d * e for e in self.twists))

    @property
    def is_ample(self) -> bool:
        return all(e >= 1 for e in self.twists)

    @property
    def is_globally_generated(self) -> bool:
        return all(e >= 0 for e in self.twists)

    def __iter__(self):
        return iter(self.twists)

    def __repr__(self):
        return "{" + ", ".join(map(str, self.twists)) + "}"


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Pairing:
    """Nondegenerate symmetric or skew-symmetric scalar pairing."""

    flavor: str  # "symmetric" | "skew"
    matrix: tuple  # n x n Gram matrix, rows of scalars
    field: object

    def __post_init__(self):
        f = self.field
        object.__setattr__(self, "matrix", tuple(tuple(map(f.of, r)) for r in self.matrix))
        n = len(self.matrix)
        if any(len(r) != n for r in self.matrix):
            raise ValueError("pairing matrix must be square")
        if self.flavor not in ("symmetric", "skew"):
            raise ValueError(f"unknown pairing flavor {self.flavor!r}")
        for i in range(n):
            for j in range(n):
                m, mt = self.matrix[i][j], self.matrix[j][i]
                if not (m == mt if self.flavor == "symmetric" else f.is_zero(m + mt)):
                    raise ValueError(f"pairing matrix is not {self.flavor}")
        if self.flavor == "skew" and n % 2:
            raise ValueError("a nondegenerate skew pairing needs even dimension")
        if linalg.rank(f, [list(r) for r in self.matrix], n) != n:
            raise ValueError("pairing matrix is degenerate")

    @property
    def dim(self) -> int:
        return len(self.matrix)

    @classmethod
    def hyperbolic(cls, field, b: int, flavor: str) -> "Pairing":
        """Dimension 2b, basis e_1..e_b, x_1..x_b with <e_i, x_j> = delta_ij
        and <x_j, e_i> = +-delta_ij per flavor."""
        one, zero = field.one, field.zero
        n = 2 * b
        rows = [[zero] * n for _ in range(n)]
        for i in range(b):
            rows[i][b + i] = one
            rows[b + i][i] = one if flavor == "symmetric" else field.neg(one)
        return cls(flavor, rows, field)

    @classmethod
    def diagonal_ones(cls, field, n: int) -> "Pairing":
        """Symmetric filler block: the identity Gram matrix."""
        rows = [[field.one if i == j else field.zero for j in range(n)] for i in range(n)]
        return cls("symmetric", rows, field)

    @classmethod
    def one_dim(cls, field) -> "Pairing":
        return cls("symmetric", ((field.one,),), field)

    @classmethod
    def orthogonal_sum(cls, *pairings: "Pairing") -> "Pairing":
        pairings = [p for p in pairings if p.dim > 0]
        if not pairings:
            raise ValueError("empty orthogonal sum")
        f = pairings[0].field
        flavor = pairings[0].flavor
        if any(p.flavor != flavor or p.field != f for p in pairings):
            raise ValueError("orthogonal sum needs one flavor over one field")
        n = sum(p.dim for p in pairings)
        rows = [[f.zero] * n for _ in range(n)]
        off = 0
        for p in pairings:
            for i in range(p.dim):
                for j in range(p.dim):
                    rows[off + i][off + j] = p.matrix[i][j]
            off += p.dim
        return cls(flavor, rows, f)


# ---------------------------------------------------------------------------


class Column(NamedTuple):
    twist: int
    forms: tuple


class Subbundle:
    """A locally split subsheaf of a trivial-frame bundle.

    Held as an everywhere-injective generator matrix from a free frame
    into the ambient frame, so the splitting type is the source frame.
    """

    __slots__ = ("gen", "type", "_pairing")

    def __init__(self, gen: GradedMatrix, check: bool = True):
        if check and gen.ncols:
            profile = gen.rank_everywhere()
            if profile != (gen.ncols, True):
                raise ValueError(
                    f"generator matrix is not everywhere injective: {profile}"
                )
        self.gen = gen
        self.type = SplittingType(gen.src)
        self._pairing = None  # (pairing, pairing map), see _member_pairing_map

    @classmethod
    def zero(cls, field, ambient) -> "Subbundle":
        return cls(GradedMatrix.zero(field, (), ambient), check=False)

    @classmethod
    def full(cls, field, ambient) -> "Subbundle":
        return cls(GradedMatrix.identity(field, ambient), check=False)

    @property
    def field(self):
        return self.gen.field

    @property
    def ambient(self):
        return self.gen.dst

    @property
    def rank(self) -> int:
        return self.gen.ncols

    @property
    def degree(self) -> int:
        return self.type.degree

    def columns(self):
        return [Column(tw, forms) for tw, forms in self.gen.columns()]

    def __repr__(self):
        return f"Subbundle(type={self.type}, ambient rank {len(self.ambient)})"


def lift_through(phi: GradedMatrix, col: Column) -> Optional[Column]:
    """The unique x with phi*x = col, or None if col is not in the image.

    phi must be everywhere injective.  This is the one-column case of
    ``_lift``.
    """
    lift = _lift(phi, [col])
    return None if lift is None else Column(*lift.column(0))


def _lift(phi: GradedMatrix, cols) -> Optional[GradedMatrix]:
    """The matrix L with phi @ L = the given columns, or None if some
    column is not in the image of phi.

    phi must be everywhere injective, so every degree piece of phi has
    full column rank and each lift is unique.  A column of twist t lifts
    inside the degree -t piece; the columns are grouped by twist, and each
    group is settled by one exact solve with all of its right-hand sides.
    One product phi @ L then confirms every lift as a polynomial identity.
    """
    f = phi.field
    by_twist = {}
    for j, col in enumerate(cols):
        by_twist.setdefault(col.twist, []).append(j)
    lifted = [None] * len(cols)
    for twist, js in by_twist.items():
        n = -twist
        rhss = []
        for j in js:
            rhs = _column_coordinates(f, phi.dst, n, cols[j])
            if rhs is None:
                return None
            rhss.append(rhs)
        piece = phi.degree_piece(n)
        xs = linalg.solve_many(f, [list(r) for r in piece.matrix], piece.ncols, rhss)
        if xs is None:
            return None
        for j, x in zip(js, xs):
            lifted[j] = (twist, _coordinates_to_forms(f, phi.src, n, x))
    lift = GradedMatrix.from_columns(f, phi.src, lifted)
    # degreewise solving is only consistent if the polynomial identity holds
    if phi @ lift != GradedMatrix.from_columns(f, phi.dst, cols):
        return None
    return lift


def _column_coordinates(field, frame, n, col: Column):
    """Coordinates of a column in the degree-n piece of the frame."""
    if len(col.forms) != len(frame):
        raise ValueError("column length does not match the frame rank")
    coords = []
    for a, f in zip(frame, col.forms):
        d = n + a
        if f.degree != n + a:
            raise ValueError("column entry degree does not match the frame")
        if d < 0:
            if not f.is_zero():
                return None
            continue
        coords.extend(f.coeffs)
    return coords


def _coordinates_to_forms(field, frame, n, coords):
    forms = []
    pos = 0
    for a in frame:
        d = n + a
        if d < 0:
            forms.append(BinaryForm.zero(field, d))
            continue
        forms.append(BinaryForm(field, d, coords[pos : pos + d + 1]))
        pos += d + 1
    return forms


# ---------------------------------------------------------------------------
# kernel of a graded matrix, as a free subbundle of the source frame


def kernel_free(m: GradedMatrix) -> Subbundle:
    """Free generators of ker(m) inside the source frame of m.

    K = ker(m) is a free k[T0, T1]-module of rank c = #src - generic rank,
    so generators of twists t found so far span sum(n + 1 + t) dimensions
    of K_n, the nullspace of the degree-n piece of m.  The scan visits n
    upward.  Where K_n is larger, the degree-n piece of the generators found
    so far, with the nullspace vectors appended as columns, goes through
    one ``linalg.pivot_columns`` elimination.  Pivots are the columns
    outside the span of those left of them, so the generator columns,
    being independent, are all pivots, and each appended pivot is a new
    generator.  Stopping rule: dim K_n - dim K_(n-1) counts the generators
    of degree <= n, so all are seen once it reaches c.  Termination bound:
    no generator degree exceeds ``_generator_degree_bound``, so the scan
    raises ``RuntimeError`` past that bound plus two, and if it finds
    other than c generators.
    """
    f = m.field
    src = m.src
    s = len(src)
    if s == 0:
        return Subbundle.zero(f, src)
    r = _generic_rank(m)
    c = s - r
    if c == 0:
        return Subbundle.zero(f, src)

    n = -max(src)
    guard = _generator_degree_bound(m, r, c) + 2
    prev_nullity = 0
    cols = []  # generator columns (twist, forms), in order of degree
    while True:
        piece = m.degree_piece(n)
        null = linalg.nullspace(f, [list(row) for row in piece.matrix], piece.ncols)
        if len(null) > sum(n + 1 + t for t, _ in cols):
            span = GradedMatrix.from_columns(f, src, cols).degree_piece(n)
            k = span.ncols
            rows = [list(row) + [v[i] for v in null] for i, row in enumerate(span.matrix)]
            for j in linalg.pivot_columns(f, rows, k + len(null)):
                if j >= k:
                    cols.append((-n, _coordinates_to_forms(f, src, n, null[j - k])))
        if len(null) - prev_nullity == c:
            break
        if n > guard:
            raise RuntimeError("kernel scan exceeded its degree bound")
        prev_nullity = len(null)
        n += 1
    if len(cols) != c:
        raise RuntimeError(
            f"kernel scan found {len(cols)} generators but the generic rank implies {c}"
        )
    return Subbundle(GradedMatrix.from_columns(f, src, cols))


def _generic_rank(m: GradedMatrix) -> int:
    if not m.src or not m.dst:
        return 0
    return m.rank_everywhere().generic_rank


def _generator_degree_bound(m: GradedMatrix, r: int, c: int) -> int:
    # deg(kernel) = deg(source) - deg(image), each kernel twist is at most
    # max(source twists), and a rank-r subsheaf of the target has degree at
    # most the sum of the r largest target twists
    max_a = max(m.src)
    top_b = sum(sorted(m.dst, reverse=True)[:r]) if r else 0
    return (c - 1) * max_a - sum(m.src) + top_b


# ---------------------------------------------------------------------------


def cokernel_type(m: GradedMatrix) -> SplittingType:
    """Splitting type of coker(m); m must have constant pointwise rank."""
    profile = m.rank_everywhere()
    if not profile.constant:
        raise ValueError("cokernel not locally free: pointwise rank is not constant")
    ker = kernel_free(m.transpose_dual())
    return ker.type.dual()


def sub_lift(inner: Subbundle, outer: Subbundle) -> GradedMatrix:
    """The matrix L with outer.gen @ L = inner.gen (membership certified)."""
    if inner.ambient != outer.ambient:
        raise ValueError("subbundles live in different ambient frames")
    lift = _lift(outer.gen, inner.columns())
    if lift is None:
        raise ValueError("E1 not contained in E2")
    return lift


def quotient_type(inner: Subbundle, outer: Subbundle) -> SplittingType:
    """Splitting type of outer/inner for nested subbundles of one ambient."""
    if inner.rank == 0:
        return outer.type
    return _lift_quotient_type(sub_lift(inner, outer))


def _lift_quotient_type(lift: GradedMatrix) -> SplittingType:
    """Splitting type of outer/inner, given the lift L = sub_lift(inner, outer)."""
    profile = lift.rank_everywhere()
    if profile != (lift.ncols, True):
        raise ValueError("E1 not a subbundle of E2")
    return cokernel_type(lift)


def pairing_map(e: Subbundle, beta: Pairing) -> GradedMatrix:
    """The map ambient -> dual of e's frame sending x to beta(gen_j, x)_j.

    Each nonzero generator entry gen[k][j] is scattered, times beta[k][i],
    into entry (j, i) for the nonzero entries of the (sparse) Gram row k.
    """
    f = e.field
    amb = e.ambient
    if len(amb) != beta.dim:
        raise ValueError("pairing dimension does not match the ambient frame")
    if any(amb):
        raise ValueError("a pairing needs a trivial ambient frame")
    gram = [[(i, b) for i, b in enumerate(row) if b] for row in beta.matrix]
    rows = []
    for tw, nonzero in zip(e.gen.src, e.gen.support()):
        accs = [[0] * max(0, 1 - tw) for _ in amb]
        for k, terms in nonzero:
            for i, b in gram[k]:
                acc = accs[i]
                for s, c in terms:
                    acc[s] += b * c
        rows.append([BinaryForm(f, -tw, f.reduce_all(acc)) for acc in accs])
    return GradedMatrix(f, amb, tuple(-tw for tw in e.gen.src), rows)


def _member_pairing_map(e: Subbundle, beta: Pairing) -> GradedMatrix:
    """pairing_map(e, beta), kept on e for its isotropy test and perp."""
    kept = e._pairing
    if kept is None or kept[0] is not beta:
        kept = e._pairing = (beta, pairing_map(e, beta))
    return kept[1]


def perp(e: Subbundle, beta: Pairing) -> Subbundle:
    """Annihilator subbundle of e under beta."""
    if e.rank == 0:
        return Subbundle.full(e.field, e.ambient)
    return kernel_free(_member_pairing_map(e, beta))


def is_isotropic(e: Subbundle, beta: Pairing) -> bool:
    if e.rank == 0:
        return True
    product = _member_pairing_map(e, beta) @ e.gen
    return product.is_zero()


def same_subsheaf(e1: Subbundle, e2: Subbundle) -> bool:
    """Mutual membership of generators (equality as subsheaves)."""
    if e1.ambient != e2.ambient or e1.rank != e2.rank:
        return False
    try:
        sub_lift(e1, e2)
        sub_lift(e2, e1)
    except ValueError:
        return False
    return True
