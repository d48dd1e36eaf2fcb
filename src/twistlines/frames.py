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
kept, so degree pieces, products, rank profiles and zero tests of one
matrix scan each coefficient once, not on every call.  Its rank profile
is kept the same way, and ``transpose_dual`` hands it to the transpose,
whose rank is the same at every point.
"""

from typing import NamedTuple

from . import linalg
from .forms import BinaryForm, _poly_submul, poly_divmod

__all__ = [
    "trivial_frame",
    "GradedMatrix",
    "DegreePiece",
    "RankProfile",
]


def trivial_frame(n: int):
    return (0,) * n


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
        """Composition self∘other (other maps into self's source frame), each
        entry accumulated from both factors' cached terms and reduced once."""
        if other.dst != self.src:
            raise ValueError("frames do not match for composition")
        f = self.field
        reduce_all = f.reduce_all
        support = other.support()
        rows = []
        for b, left in zip(self.dst, self.entries):
            left = [e.terms() for e in left]
            row = []
            for c, nonzero in zip(other.src, support):
                acc = [0] * max(0, b - c + 1)
                for k, terms in nonzero:
                    for s, x in left[k]:
                        for t, y in terms:
                            acc[s + t] += x * y
                row.append(BinaryForm(f, b - c, reduce_all(acc)))
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
        """Substitute T0 -> T0^d, T1 -> T1^d; every twist scales by d.
        d = 1 returns self, so its forms and their cached terms are shared."""
        if d < 1:
            raise ValueError("pullback exponent must be >= 1")
        if d == 1:
            return self
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
        diag = _poly_diagonal(self.field, self._dehomogenized())
        r = len(diag)
        if any(len(d) > 1 for d in diag):
            return RankProfile(r, False)
        rank_inf = linalg.rank(self.field, self.value_at_infinity(), len(self.src))
        return RankProfile(r, rank_inf == r)

    def _dehomogenized(self):
        """Each entry's f(x, 1) as a trimmed list by x-power ([] for zero)."""
        polys = [[[] for _ in self.src] for _ in self.dst]
        for j, (a, nonzero) in enumerate(zip(self.src, self.support())):
            for i, terms in nonzero:
                d = self.dst[i] - a
                poly = polys[i][j] = [0] * (d - terms[0][0] + 1)
                for s, c in terms:
                    poly[d - s] = c
        return polys


def _poly_diagonal(field, m):
    """Diagonalize a nonempty grid m of trimmed coefficient lists (index =
    power, [] for zero; native scalars) in place by elementary row and
    column operations; return the nonzero diagonal entries.

    Pivot k is the least-degree nonzero entry of rows and columns >= k,
    first in row-major order.  A round divides the entries below the pivot
    by it with row operations; if remainders survive, the least-degree one
    (first on ties) is swapped into the pivot.  Otherwise the entries right
    of it are divided by column operations (the column below is clear, so
    only the pivot-row entry changes, to its remainder), with the same swap
    rule.  Remainders have lower degree than the pivot, so each round
    finishes the pivot or strictly lowers its degree: a pivot of degree d
    takes at most d + 1 rounds, and there are at most min(rows, cols).

    Each coefficient is the field element per-operation field calls give
    (over GF(p) the residue of the same integer expression, over the
    rationals the same exact value), and the control flow reads only zero
    tests and lengths, so pivots, swaps and degrees are unchanged by it.
    """
    nr, nc = len(m), len(m[0])
    diag = []
    for k in range(min(nr, nc)):
        best = 0
        for i in range(k, nr):
            row = m[i]
            for j in range(k, nc):
                e = row[j]
                if e and (not best or len(e) < best):
                    best, pi, pj = len(e), i, j
            if best == 1:  # a constant: nothing later in row-major order wins
                break
        if not best:
            break
        m[k], m[pi] = m[pi], m[k]
        for row in m:
            row[k], row[pj] = row[pj], row[k]
        while True:
            piv, rk = m[k][k], m[k]
            low = -1  # the least-degree remainder, first on ties
            for i in range(k + 1, nr):  # row operations below the pivot
                ri = m[i]
                rem = ri[k]
                if rem and len(rem) >= len(piv):
                    q, rem = poly_divmod(field, rem, piv)
                    for j in range(k + 1, nc):
                        if rk[j]:
                            ri[j] = _poly_submul(field, ri[j], q, rk[j])
                    ri[k] = rem
                if rem and (low < 0 or len(rem) < len(m[low][k])):
                    low = i
            if low >= 0:
                m[k], m[low] = m[low], m[k]
                continue
            for j in range(k + 1, nc):  # column operations right of it
                rem = rk[j]
                if rem and len(rem) >= len(piv):
                    rem = rk[j] = poly_divmod(field, rem, piv)[1]
                if rem and (low < 0 or len(rem) < len(rk[low])):
                    low = j
            if low < 0:
                break
            for row in m:
                row[k], row[low] = row[low], row[k]
        diag.append(m[k][k])
    return diag

