"""Subbundles of split bundles and the splitting-type calculus.

Everything on the projective line splits, so each computation here reduces
to a sorted multiset of twist integers.  Kernels and cokernels come from one
degreewise scan: the kernel of a map of free graded modules over k[T0, T1]
is free, so the second differences of its Hilbert function count its
generators degree by degree, and the scan ends with a certificate rather
than a heuristic.  ``kernel_free`` picks generators among the nullspace
vectors by ``linalg`` pivot columns; ``cokernel_type`` reads the cokernel's
twists from the counts alone, on the transposed dual, each nullity from a
rank.  Every degree piece reaches ``linalg`` as the sparse rows of
``GradedMatrix.sparse_piece``.
"""

from itertools import accumulate, compress, count
from typing import NamedTuple, Optional

from . import linalg
from .forms import BinaryForm
from .frames import GradedMatrix, RankProfile

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


class _Record:
    """An immutable value class, as a frozen dataclass without the import.

    The annotated names of a subclass are its fields, in order; a field
    assigned in the class body is its default.  ``__init__`` takes them
    positionally or by keyword.  A record equals only a record of its own
    class with equal fields and hashes as their tuple, unless the class
    says ``eq=False``, which keeps identity.  Assigning or deleting an
    attribute raises ``AttributeError``; pickle and copy restore the
    instance ``__dict__`` without assigning."""

    def __init_subclass__(cls, eq=True):
        cls._fields = tuple(cls.__annotations__)
        cls._defaults = {name: cls.__dict__[name] for name in cls._fields if name in cls.__dict__}
        if not eq:
            cls.__eq__, cls.__hash__ = object.__eq__, object.__hash__

    def __init__(self, *args, **kwargs):
        names, given = self._fields, dict(zip(self._fields, args))
        values = {**self._defaults, **given, **kwargs}
        if len(args) > len(names) or given.keys() & kwargs or values.keys() != set(names):
            raise TypeError(f"{type(self).__name__} takes the fields {', '.join(names)}")
        self.__dict__.update(values)

    def _values(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def __eq__(self, other):
        same = other.__class__ is self.__class__
        return self._values() == other._values() if same else NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, *value):
        raise AttributeError(f"cannot assign to field {name!r} of a {type(self).__name__}")

    __delattr__ = __setattr__

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"

    def replace(self, **changes):
        """A copy with the named fields changed; TypeError for a non-field."""
        return type(self)(**dict(zip(self._fields, self._values()), **changes))


class SplittingType(_Record):
    """Multiset of twists e1 >= ... >= er of a split bundle."""

    twists: tuple

    def __init__(self, twists):
        self.__dict__["twists"] = tuple(sorted(twists, reverse=True))

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


class Pairing(_Record):
    """Nondegenerate symmetric or skew-symmetric scalar pairing.

    ``Pairing(...)`` reduces, tests symmetry (n^2) and eliminates (n x n).
    The constructors skip that (``_valid``) where it is proved: hyperbolic
    and identity Gram matrices are signed permutations, and a block sum of
    valid pairings of one flavor keeps the flavor and has a product of
    nonzero determinants."""

    flavor: str  # "symmetric" | "skew"
    matrix: tuple  # n x n Gram matrix, rows of scalars
    field: object

    def __init__(self, flavor, matrix, field):
        matrix = tuple(tuple(map(field.of, r)) for r in matrix)
        self.__dict__.update(flavor=flavor, matrix=matrix, field=field)
        n = len(self.matrix)
        if any(len(r) != n for r in self.matrix):
            raise ValueError("pairing matrix must be square")
        if self.flavor not in ("symmetric", "skew"):
            raise ValueError(f"unknown pairing flavor {self.flavor!r}")
        for i in range(n):
            for j in range(n):
                m, mt = self.matrix[i][j], self.matrix[j][i]
                if not (m == mt if self.flavor == "symmetric" else field.is_zero(m + mt)):
                    raise ValueError(f"pairing matrix is not {self.flavor}")
        if self.flavor == "skew" and n % 2:
            raise ValueError("a nondegenerate skew pairing needs even dimension")
        if linalg.rank(field, self.matrix, n) != n:
            raise ValueError("pairing matrix is degenerate")

    @classmethod
    def _valid(cls, flavor, rows, field) -> "Pairing":
        """The pairing of reduced ``rows`` proved valid, unchecked."""
        if flavor not in ("symmetric", "skew"):
            raise ValueError(f"unknown pairing flavor {flavor!r}")
        pairing = object.__new__(cls)
        pairing.__dict__.update(flavor=flavor, matrix=tuple(map(tuple, rows)), field=field)
        return pairing

    def __hash__(self):
        # kept after the first computation, as GradedMatrix keeps its own;
        # of the Gram matrix alone, whose hash is the same in every process
        h = self.__dict__.get("_hash")
        if h is None:
            h = self.__dict__["_hash"] = hash(self.matrix)
        return h

    def _gram(self) -> GradedMatrix:
        """The Gram matrix as a constant GradedMatrix on the trivial frame,
        kept after the first call as the hash is; not a field, so equality
        and the hash do not see it."""
        g = self.__dict__.get("_gram_matrix")
        if g is None:
            f, frame, zero = self.field, (0,) * self.dim, BinaryForm.zero(self.field)
            rows = tuple(
                tuple(BinaryForm._valid(f, 0, (b,)) if b else zero for b in row)
                for row in self.matrix
            )
            g = self.__dict__["_gram_matrix"] = GradedMatrix._valid(f, frame, frame, rows)
        return g

    @property
    def dim(self) -> int:
        return len(self.matrix)

    @classmethod
    def hyperbolic(cls, field, b: int, flavor: str) -> "Pairing":
        """Dimension 2b, basis e_1..e_b, x_1..x_b with <e_i, x_j> = delta_ij
        and <x_j, e_i> = +-delta_ij per flavor."""
        one, zero = field.one, field.zero
        sign = one if flavor == "symmetric" else field.of(-1)
        n = 2 * b
        rows = [[zero] * n for _ in range(n)]
        for i in range(b):
            rows[i][b + i] = one
            rows[b + i][i] = sign
        return cls._valid(flavor, rows, field)

    @classmethod
    def diagonal_ones(cls, field, n: int) -> "Pairing":
        """Symmetric filler block: the identity Gram matrix."""
        rows = [[field.one if i == j else field.zero for j in range(n)] for i in range(n)]
        return cls._valid("symmetric", rows, field)

    @classmethod
    def orthogonal_sum(cls, *pairings: "Pairing") -> "Pairing":
        """The block sum of the nonempty ``pairings``, in order."""
        pairings = tuple(p for p in pairings if p.dim > 0)
        if not pairings:
            raise ValueError("empty orthogonal sum")
        f = pairings[0].field
        flavor = pairings[0].flavor
        if any(p.flavor != flavor or p.field != f for p in pairings):
            raise ValueError("orthogonal sum needs one flavor over one field")
        n = sum(p.dim for p in pairings)
        rows, off = [], 0
        for p in pairings:
            rows += [(f.zero,) * off + row + (f.zero,) * (n - off - p.dim) for row in p.matrix]
            off += p.dim
        return cls._valid(flavor, rows, f)


# ---------------------------------------------------------------------------


class Column(NamedTuple):
    twist: int
    forms: tuple


class Subbundle:
    """A locally split subsheaf of a trivial-frame bundle.

    Held as an everywhere-injective generator matrix from a free frame
    into the ambient frame, so the splitting type is the source frame.
    """

    __slots__ = ("gen", "type")

    def __init__(self, gen: GradedMatrix, check: bool = True):
        if check and gen.ncols:
            profile = gen.rank_everywhere()
            if profile != (gen.ncols, True):
                raise ValueError(
                    f"generator matrix is not everywhere injective: {profile}"
                )
        self.gen = gen
        self.type = SplittingType(gen.src)

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

    def __repr__(self):
        return f"Subbundle(type={self.type}, ambient rank {len(self.ambient)})"


def lift_through(phi: GradedMatrix, col: Column) -> Optional[Column]:
    """The unique x with phi*x = col, or None if col is not in the image.

    phi must be everywhere injective.  This is the one-column case of
    ``_lift``.
    """
    if len(col.forms) != len(phi.dst):
        raise ValueError("column length does not match the frame rank")
    lift = _lift(phi, GradedMatrix.from_columns(phi.field, phi.dst, [col]))
    return None if lift is None else Column(*lift.column(0))


def _lift(phi: GradedMatrix, target: GradedMatrix) -> Optional[GradedMatrix]:
    """The matrix L with phi @ L = target, or None if some column of
    target is not in the image of phi.

    phi must be everywhere injective, so every degree piece of phi has
    full column rank and each lift is unique.  A column of twist t lifts
    inside the degree -t piece, where its coordinates are its entries'
    coefficients in order (an entry of negative degree has none, and is
    zero), read sparsely from its nonzero terms.  The columns are grouped
    by twist, and each group is settled by one exact solve with all of its
    right-hand sides.  One product phi @ L then confirms every lift as a
    polynomial identity.
    """
    f = phi.field
    by_twist = {}
    for j, twist in enumerate(target.src):
        by_twist.setdefault(twist, []).append(j)
    lifted = [None] * target.ncols
    support = target.support()
    for twist, js in by_twist.items():
        n = -twist
        piece = phi.sparse_piece(n)
        off = [0, *accumulate(piece.dst_dims)]
        rhss = [{off[i] + s: c for i, terms in support[j] for s, c in terms} for j in js]
        xs = linalg.solve_many(f, piece.matrix, piece.ncols, rhss)
        if xs is None:
            return None
        for j, x in zip(js, xs):
            lifted[j] = (twist, _coordinates_to_forms(f, phi.src, n, x))
    lift = GradedMatrix.from_columns(f, phi.src, lifted)
    # degreewise solving is only consistent if the polynomial identity holds
    if phi @ lift != target:
        return None
    return lift


def _coordinates_to_forms(field, frame, n, coords):
    forms = []
    pos = 0
    for a in frame:
        d = n + a
        if d < 0:
            forms.append(BinaryForm.zero(field, d))
            continue
        forms.append(BinaryForm._valid(field, d, coords[pos : pos + d + 1]))
        pos += d + 1
    return forms


# ---------------------------------------------------------------------------
# kernels and cokernels, read from one Hilbert-function scan


def _hilbert_scan(m: GradedMatrix, r: int, basis: bool):
    """Yield (n, g, null) for each generator degree n of K = ker(m), null
    the nullspace basis of m's degree-n piece if ``basis``, else None.

    K is free of rank c = #src - r, r the generic rank of m, say with
    generators of degrees d_i, so its Hilbert function h(n) = dim K_n, the
    nullity of m's degree-n piece, is sum(max(0, n - d_i + 1)).  The
    nullity is len(null), or without a basis the piece's column count less
    its rank, which needs no back-substitution.  The first difference
    h(n) - h(n-1) counts the d_i <= n and the second difference g = h(n) -
    2h(n-1) + h(n-2) the d_i = n.  Each degree piece is built and
    eliminated once.

    Termination: the scan visits n upward from -max(src), below which
    every piece has no columns, so h(n-1) = h(n-2) = 0 there; it stops once
    the first difference reaches c, when every d_i has been passed.  No d_i
    exceeds ``_generator_degree_bound``, so the scan raises ``RuntimeError``
    past that bound plus two, and on a negative g, which no free module's
    Hilbert function has.  The yielded g then sum to c.
    """
    f, src = m.field, m.src
    c = len(src) - r
    if c == 0:
        return
    n = -max(src)
    guard = _generator_degree_bound(m, r, c) + 2
    h1 = h2 = 0  # h(n-1), h(n-2)
    while True:
        piece = m.sparse_piece(n)
        if basis:
            null = linalg.nullspace(f, piece.matrix, piece.ncols)
            h = len(null)
        else:
            null, h = None, piece.ncols - linalg.rank(f, piece.matrix, piece.ncols)
        g = h - 2 * h1 + h2
        if g < 0:
            raise RuntimeError(f"negative generator count {g} in degree {n}")
        if g:
            yield n, g, null
        if h - h1 == c:
            return
        if n > guard:
            raise RuntimeError("kernel scan exceeded its degree bound")
        h1, h2 = h, h1
        n += 1


def _generator_degree_bound(m: GradedMatrix, r: int, c: int) -> int:
    # deg(kernel) = deg(source) - deg(image), each kernel twist is at most
    # max(source twists), and a rank-r subsheaf of the target has degree at
    # most the sum of the r largest target twists
    max_a = max(m.src)
    top_b = sum(sorted(m.dst, reverse=True)[:r]) if r else 0
    return (c - 1) * max_a - sum(m.src) + top_b


def kernel_free(m: GradedMatrix) -> Subbundle:
    """Free generators G of K = ker(m) inside the source frame of m.

    At each generator degree n of ``_hilbert_scan``, the degree-n piece of
    the generators found so far, with the nullspace vectors appended as
    columns, goes through one ``linalg.pivot_columns`` elimination.  Pivots
    are the columns outside the span of those left of them, and each
    appended pivot is a new generator of twist -n.  Their number must be
    the scan's g, the count of generators of K in degree n.

    Why G is returned unchecked.  The pivots span every column, so G_n = K_n
    after the pick at each generator degree n of K; K is generated in those
    degrees and G lies in K, so G = K.  By the counts G has c generators, so
    the free module on them maps onto K, free of rank c, with a kernel of
    rank 0 inside a free module: G is a free basis of K.  K is saturated
    (src/K embeds in the free target, so it is torsion free, hence locally
    free on P^1), so G's matrix is everywhere injective.

    A wrong nullity in one degree raises ``RuntimeError``: a repeated
    nullspace vector gives fewer pivots than g; a dropped one gives a
    negative g, fewer pivots than g later, or in place of a generator u two
    generators with T0 u and T1 u in their span, hence dependent ones,
    which the rank at [1:0] shows.

    The scan needs m's generic rank, read from its rank profile
    (``rank_everywhere``).  A pairing map keeps its profile
    (``pairing_map``), so ``perp`` runs no Smith form.
    """
    f, src = m.field, m.src
    cols = []  # generator columns (twist, forms), in order of degree
    for n, g, null in _hilbert_scan(m, m.rank_everywhere().generic_rank, True):
        span = GradedMatrix.from_columns(f, src, cols).sparse_piece(n)
        rows, k = span.matrix, span.ncols
        for col, v in enumerate(null, k):
            for i in compress(count(), v):
                rows[i][col] = v[i]
        new = [j - k for j in linalg.pivot_columns(f, rows, k + len(null)) if j >= k]
        if len(new) != g:
            raise RuntimeError(
                f"kernel scan found {len(new)} generators but the generic rank "
                f"implies {g} in degree {n}"
            )
        cols += [(-n, _coordinates_to_forms(f, src, n, null[j])) for j in new]
    gen = GradedMatrix.from_columns(f, src, cols)
    if cols and linalg.rank(f, gen.value_at_infinity(), len(cols)) < len(cols):
        raise RuntimeError("kernel scan found dependent generators")
    return Subbundle(gen, check=False)


def cokernel_type(m: GradedMatrix) -> SplittingType:
    """Splitting type of coker(m); m must have constant pointwise rank.

    Constant rank makes Q = coker(m) locally free, and then Q's dual is the
    kernel of the transposed dual t.  Each generator of it in degree n, as
    ``_hilbert_scan`` of t counts them, gives Q a summand O(n); no
    generators are built.  For injective m, 0 -> src -> dst -> Q -> 0 is
    exact, so a type of degree other than deg dst - deg src, which a wrong
    nullity in the scan can give, raises ``RuntimeError``.

    That check does not prove the type: a wrong nullity that keeps the
    degree passes it.  For m = (T0, T1, 0)^T: O(-1) -> O^2 + O(3), whose
    cokernel is {3, 1}, a rank one too large at degree 1 of t gives
    {2, 2}, of the same degree, and nothing raises.  An exact pair
    (``verify._exact_pair``) is a proof; ROADMAP item 2 reads every
    classical cokernel from one.
    """
    profile = m.rank_everywhere()
    if not profile.constant:
        raise ValueError("cokernel not locally free: pointwise rank is not constant")
    return _scan_cokernel(m, profile.generic_rank)


def _scan_cokernel(m: GradedMatrix, r: int) -> SplittingType:
    """``cokernel_type`` of m known to have constant pointwise rank r."""
    scan = _hilbert_scan(m.transpose_dual(), r, False)
    coker = SplittingType(tuple(n for n, g, _ in scan for _ in range(g)))
    if r == len(m.src) and coker.degree != sum(m.dst) - sum(m.src):
        raise RuntimeError(
            f"cokernel type {coker} has degree {coker.degree}, but the map "
            f"has degree {sum(m.dst) - sum(m.src)}"
        )
    return coker


def sub_lift(inner: Subbundle, outer: Subbundle) -> GradedMatrix:
    """The matrix L with outer.gen @ L = inner.gen (membership certified)."""
    if inner.ambient != outer.ambient:
        raise ValueError("subbundles live in different ambient frames")
    lift = _lift(outer.gen, inner.gen)
    if lift is None:
        raise ValueError("E1 not contained in E2")
    return lift


def quotient_type(inner: Subbundle, outer: Subbundle) -> SplittingType:
    """Splitting type of outer/inner for nested subbundles of one ambient."""
    if inner.rank == 0:
        return outer.type
    return _lift_quotient_type(sub_lift(inner, outer))


def _lift_quotient_type(lift: GradedMatrix) -> SplittingType:
    """Splitting type of outer/inner, given a lift L with outer.gen @ L = inner.gen
    (a top chunk's gen is its own lift into its block).  No rank profile: a
    vector L kills at a point is killed by inner.gen = outer.gen @ L, which
    is everywhere injective, so L has constant rank ncols too."""
    return _scan_cokernel(lift, lift.ncols)


def pairing_map(e: Subbundle, beta: Pairing) -> GradedMatrix:
    """The map ambient -> dual of e's frame sending x to beta(gen_j, x)_j:
    e's transposed dual generator times beta's Gram matrix (``Pairing._gram``).

    It keeps the profile (rank e, True).  Proof: at a point its rows are
    the functionals x -> beta(v_j, x) of the values v_j of e's generators
    there, which are independent, e's generator being everywhere
    injective; beta is nondegenerate, so v -> beta(v, .) is injective and
    the rows are independent at every point.
    """
    amb = e.ambient
    if len(amb) != beta.dim:
        raise ValueError("pairing dimension does not match the ambient frame")
    if any(amb):
        raise ValueError("a pairing needs a trivial ambient frame")
    m = e.gen.transpose_dual() @ beta._gram()
    m._profile = RankProfile(e.rank, True)
    return m


class Block(NamedTuple):
    """An orthogonal block of a family's ambient, as ``verify.certify``
    reads it: coordinates that beta pairs with none outside them, holding
    each member column or none of it.  Its dimension is its top chunk's
    row count.  The whole ambient, with beta and the whole members, always
    is one.

    Why the pairing stages may run per block: beta is the orthogonal sum of
    the blocks' pairings, and a member E is the sum of its chunks E_B.  So E
    is isotropic iff each E_B is; a perp is a direct sum over blocks (x is
    orthogonal to E iff each block part x_B is to E_B), and ``perp`` of an
    empty chunk is the whole block; for F in E^perp the lift of F into
    E^perp is block diagonal, so E^perp/F is the union of the block
    quotients E_B^perp/F_B."""

    pairing: Pairing  # beta on the block's coordinates
    chunks: tuple  # per member, its columns there: a Subbundle of the block
    witness: object = None  # a builder's perp witness, checked before use (verify)


def perp(e: Subbundle, beta: Pairing) -> Subbundle:
    """Annihilator subbundle of e under beta."""
    if e.rank == 0:
        return Subbundle.full(e.field, e.ambient)
    return kernel_free(pairing_map(e, beta))


def is_isotropic(e: Subbundle, beta: Pairing) -> bool:
    return e.rank == 0 or (pairing_map(e, beta) @ e.gen).is_zero()


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
