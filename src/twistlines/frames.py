"""Split frames and twist-respecting matrices between them.

A frame (a1, ..., am) stands for the split bundle O(a1) + ... + O(am) on
the projective line.  A GradedMatrix from frame A to frame B is a grid of
binary forms whose (i, j) entry is homogeneous of degree B[i] - A[j]; the
constructor rejects any entry violating that constraint.  The degree-n
piece of a frame is the space of degree-n global sections, of dimension
sum(max(0, n + a + 1)); basis order is summand-major with the T1-exponent
ascending inside each summand.

A GradedMatrix is immutable.  Its nonzero support (per source column, the
nonzero entries with their nonzero terms) is computed on first use and
kept, so degree pieces, products and zero tests of one matrix scan each
coefficient once rather than on every call.  Its rank profile is kept the
same way, and ``transpose_dual`` hands it to the transpose, whose rank is
the same at every point.
"""

from typing import NamedTuple

from . import linalg
from .forms import BinaryForm, _poly_mul, _poly_sub, poly_divmod

__all__ = [
    "frame_rank",
    "frame_degree",
    "trivial_frame",
    "GradedMatrix",
    "DegreePiece",
    "RankProfile",
    "degree_piece",
    "rank_everywhere",
    "transpose_dual",
    "pullback_power",
    "piece_dimension",
]


def frame_rank(frame) -> int:
    return len(frame)


def frame_degree(frame) -> int:
    return sum(frame)


def trivial_frame(n: int):
    return (0,) * n


def piece_dimension(frame, n: int) -> int:
    return sum(max(0, n + a + 1) for a in frame)


class DegreePiece(NamedTuple):
    n: int
    src_dims: tuple
    dst_dims: tuple
    matrix: tuple  # rows of scalars

    @property
    def nrows(self):
        return sum(self.dst_dims)

    @property
    def ncols(self):
        return sum(self.src_dims)


class RankProfile(NamedTuple):
    generic_rank: int
    constant: bool


class GradedMatrix:
    __slots__ = ("field", "src", "dst", "entries", "_support", "_profile")

    def __init__(self, field, src, dst, entries):
        src = tuple(src)
        dst = tuple(dst)
        entries = tuple(tuple(row) for row in entries)
        if len(entries) != len(dst) or any(len(row) != len(src) for row in entries):
            raise ValueError("entry grid shape does not match the frames")
        for i, b in enumerate(dst):
            for j, a in enumerate(src):
                e = entries[i][j]
                if e.degree != b - a:
                    raise ValueError(
                        f"entry ({i},{j}) has degree {e.degree}, frames require {b - a}"
                    )
                if b - a < 0 and not e.is_zero():
                    raise ValueError(f"entry ({i},{j}) must vanish: negative twist gap")
        self.field = field
        self.src = src
        self.dst = dst
        self.entries = entries
        self._support = None
        self._profile = None

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, field, src, dst):
        return cls(
            field, src, dst, [[BinaryForm.zero(field, b - a) for a in src] for b in dst]
        )

    @classmethod
    def identity(cls, field, frame):
        rows = []
        for i, b in enumerate(frame):
            row = []
            for j, a in enumerate(frame):
                if i == j:
                    row.append(BinaryForm.constant(field, 1))
                else:
                    row.append(BinaryForm.zero(field, b - a))
            rows.append(row)
        return cls(field, frame, frame, rows)

    @classmethod
    def from_columns(cls, field, dst, columns):
        """columns: iterable of (twist, forms down the ambient frame)."""
        columns = list(columns)
        src = tuple(tw for tw, _ in columns)
        rows = [
            [columns[j][1][i] for j in range(len(columns))] for i in range(len(dst))
        ]
        return cls(field, src, dst, rows)

    # -- basic structure ----------------------------------------------

    @property
    def ncols(self):
        return len(self.src)

    @property
    def nrows(self):
        return len(self.dst)

    def column(self, j):
        return self.src[j], tuple(self.entries[i][j] for i in range(len(self.dst)))

    def columns(self):
        return [self.column(j) for j in range(len(self.src))]

    def support(self):
        """Per source column, the (row, terms) pairs of its nonzero entries."""
        support = self._support
        if support is None:
            support = []
            for j in range(len(self.src)):
                col = []
                for i, row in enumerate(self.entries):
                    terms = row[j].terms()
                    if terms:
                        col.append((i, terms))
                support.append(tuple(col))
            support = self._support = tuple(support)
        return support

    def is_zero(self) -> bool:
        return not any(self.support())

    def __eq__(self, other):
        return (
            isinstance(other, GradedMatrix)
            and self.field == other.field
            and self.src == other.src
            and self.dst == other.dst
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.src, self.dst, self.entries))

    def __repr__(self):
        return f"GradedMatrix({list(self.src)} -> {list(self.dst)})"

    # -- algebra --------------------------------------------------------

    def __matmul__(self, other: "GradedMatrix") -> "GradedMatrix":
        """Composition self∘other (other maps into self's source frame)."""
        if other.dst != self.src:
            raise ValueError("frames do not match for composition")
        f = self.field
        support = other.support()
        rows = []
        for i, b in enumerate(self.dst):
            left = self.entries[i]
            row = []
            for j, c in enumerate(other.src):
                acc = BinaryForm.zero(f, b - c)
                for k, _ in support[j]:
                    e1 = left[k]
                    if not e1.is_zero():
                        acc = acc + e1 * other.entries[k][j]
                row.append(acc)
            rows.append(row)
        return GradedMatrix(f, other.src, self.dst, rows)

    def twist(self, t: int) -> "GradedMatrix":
        return GradedMatrix(
            self.field, tuple(a + t for a in self.src), tuple(b + t for b in self.dst), self.entries
        )

    def transpose_dual(self) -> "GradedMatrix":
        rows = [
            [self.entries[i][j] for i in range(len(self.dst))] for j in range(len(self.src))
        ]
        dual = GradedMatrix(
            self.field, tuple(-b for b in self.dst), tuple(-a for a in self.src), rows
        )
        dual._profile = self._profile
        return dual

    def pullback_power(self, d: int) -> "GradedMatrix":
        """Substitute T0 -> T0^d, T1 -> T1^d; every twist scales by d."""
        if d < 1:
            raise ValueError("pullback exponent must be >= 1")
        rows = [[e.substitute_power(d) for e in row] for row in self.entries]
        return GradedMatrix(
            self.field, tuple(d * a for a in self.src), tuple(d * b for b in self.dst), rows
        )

    def evaluate(self, t0, t1):
        """Scalar matrix of values at the point (t0, t1)."""
        return [[e.evaluate(t0, t1) for e in row] for row in self.entries]

    def value_at_infinity(self):
        """Scalar matrix of values at [1:0]: each entry's T0^d coefficient."""
        zero = self.field.zero
        return [[e.coeffs[0] if e.coeffs else zero for e in row] for row in self.entries]

    # -- degree pieces --------------------------------------------------

    def degree_piece(self, n: int) -> DegreePiece:
        f = self.field
        src_dims = tuple(max(0, n + a + 1) for a in self.src)
        dst_dims = tuple(max(0, n + b + 1) for b in self.dst)
        ncols = sum(src_dims)
        rows = [[f.zero] * ncols for _ in range(sum(dst_dims))]
        dst_off = []
        off = 0
        for d in dst_dims:
            dst_off.append(off)
            off += d
        col = 0
        for dim, nonzero in zip(src_dims, self.support()):
            for i_exp in range(dim):
                # the source basis monomial T0^(n+a-i_exp) * T1^i_exp of O(a)
                # maps to each entry's terms shifted by i_exp; a nonzero entry
                # has b >= a, so they fit the degree-n piece of O(b), and each
                # (row, col) slot is written at most once
                for i, terms in nonzero:
                    base = dst_off[i] + i_exp
                    for s, cf in terms:
                        rows[base + s][col] = cf
                col += 1
        return DegreePiece(n, src_dims, dst_dims, tuple(tuple(r) for r in rows))

    # -- everywhere-rank certificate -------------------------------------

    def rank_everywhere(self) -> RankProfile:
        """Generic rank plus constancy of the pointwise rank.

        The pointwise rank is constant iff the gcd of all maximal minors is
        a nonzero constant.  That gcd is the top determinantal divisor of
        the matrix over the affine chart T1 != 0, read off from a
        diagonalization over the univariate polynomial ring (elementary
        operations preserve determinantal divisors), together with a
        full-rank check at the one remaining point [1:0].  The profile is
        computed once per matrix and kept.
        """
        profile = self._profile
        if profile is None:
            profile = self._profile = self._rank_profile()
        return profile

    def _rank_profile(self) -> RankProfile:
        if not self.src or not self.dst:
            return RankProfile(0, True)
        f = self.field
        polys = [[e.dehomogenize() for e in row] for row in self.entries]
        diag = _poly_diagonal(f, polys)
        r = len(diag)
        all_const = all(len(d) == 1 for d in diag)
        if not all_const:
            return RankProfile(r, False)
        rank_inf = linalg.rank(f, self.value_at_infinity(), len(self.src))
        return RankProfile(r, rank_inf == r)


def _poly_deg(p):
    return len(p) - 1


def _poly_diagonal(field, m):
    """Diagonalize a polynomial matrix by elementary row/column operations.

    Returns the list of nonzero diagonal entries (no divisibility
    normalization; only their number and degrees are consumed).
    """
    m = [row[:] for row in m]
    nr = len(m)
    nc = len(m[0]) if nr else 0
    diag = []
    k = 0
    while k < min(nr, nc):
        pi = pj = -1
        best = -1
        for i in range(k, nr):
            for j in range(k, nc):
                if m[i][j]:
                    d = _poly_deg(m[i][j])
                    if best < 0 or d < best:
                        best, pi, pj = d, i, j
        if best < 0:
            break
        m[k], m[pi] = m[pi], m[k]
        for row in m:
            row[k], row[pj] = row[pj], row[k]
        while True:
            # kill column k below the pivot
            dirty = False
            for i in range(k + 1, nr):
                if m[i][k]:
                    q, rem = poly_divmod(field, m[i][k], m[k][k])
                    if q:
                        for j in range(k, nc):
                            m[i][j] = _poly_sub(field, m[i][j], _poly_mul(field, q, m[k][j]))
                    m[i][k] = rem
                    if rem:
                        dirty = True
            if dirty:
                _swap_min_into_pivot_col(field, m, k, nr)
                continue
            # kill row k right of the pivot
            dirty = False
            for j in range(k + 1, nc):
                if m[k][j]:
                    q, rem = poly_divmod(field, m[k][j], m[k][k])
                    if q:
                        for i in range(k, nr):
                            m[i][j] = _poly_sub(field, m[i][j], _poly_mul(field, q, m[i][k]))
                    m[k][j] = rem
                    if rem:
                        dirty = True
            if not dirty:
                break
            _swap_min_into_pivot_row(field, m, k, nc)
        diag.append(m[k][k])
        k += 1
    return diag


def _swap_min_into_pivot_col(field, m, k, nr):
    best_i = k
    for i in range(k, nr):
        if m[i][k] and (not m[best_i][k] or _poly_deg(m[i][k]) < _poly_deg(m[best_i][k])):
            best_i = i
    m[k], m[best_i] = m[best_i], m[k]


def _swap_min_into_pivot_row(field, m, k, nc):
    best_j = k
    for j in range(k, nc):
        if m[k][j] and (not m[k][best_j] or _poly_deg(m[k][j]) < _poly_deg(m[k][best_j])):
            best_j = j
    for row in m:
        row[k], row[best_j] = row[best_j], row[k]


# ---------------------------------------------------------------------------
# spec-level operations

def degree_piece(m: GradedMatrix, n: int) -> DegreePiece:
    return m.degree_piece(n)


def rank_everywhere(m: GradedMatrix) -> RankProfile:
    return m.rank_everywhere()


def transpose_dual(m: GradedMatrix) -> GradedMatrix:
    return m.transpose_dual()


def pullback_power(m: GradedMatrix, d: int) -> GradedMatrix:
    return m.pullback_power(d)
