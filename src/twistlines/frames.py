"""Split frames and twist-respecting matrices between them.

A frame (a1, ..., am) stands for the split bundle O(a1) + ... + O(am) on
the projective line.  A GradedMatrix from frame A to frame B is a grid of
binary forms whose (i, j) entry is homogeneous of degree B[i] - A[j]; the
constructor rejects any entry violating that constraint.  Products,
twists, transposed duals, pullbacks, direct sums (and so the zero
matrix) and identities meet it by construction and skip the check.  The
degree-n piece of a frame is the space of degree-n global sections, of
dimension sum(max(0, n + a + 1)); basis order is summand-major with the
T1-exponent ascending inside each summand.  A matrix's degree-n piece is
built by one scatter of its nonzero terms into sparse rows, {column:
nonzero} (``sparse_piece``), which ``linalg`` eliminates as they are;
``degree_piece`` is the dense view of that scatter.

A GradedMatrix is immutable.  Its nonzero support (per source column, the
nonzero entries with their nonzero terms) is computed on first use and
kept, so degree pieces, products, rank profiles and zero tests of one
matrix scan each coefficient once, not on every call.  Its rank profile
is kept the same way, and ``transpose_dual`` hands it to the transpose,
whose rank is the same at every point, as does ``twist``.  Profiles
compose: ``direct_sum`` keeps one when each block has one,
``pullback_power`` keeps its argument's, a product of two everywhere-
injective factors is everywhere injective, and ``identity`` carries its
own, as ``sheaves.pairing_map`` does, each proved where it is made; so a
matrix assembled from profiled blocks needs no Smith form of its own, and
``_rank_profile`` is the fallback and the oracle.  Every rank, generic
rank included, is read from a kept profile or that Smith form.
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
    matrix: tuple  # rows: tuples of scalars, or a list of {column: nonzero} dicts

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
    __slots__ = ("field", "src", "dst", "entries", "_support", "_profile", "_hash")

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
        self._support = self._profile = self._hash = None

    # -- constructors -------------------------------------------------

    @classmethod
    def _valid(cls, field, src, dst, entries) -> "GradedMatrix":
        """The matrix of tuple frames and entry rows proved valid, unchecked."""
        m = object.__new__(cls)
        m.field, m.src, m.dst, m.entries = field, src, dst, entries
        m._support = m._profile = m._hash = None
        return m

    @classmethod
    def direct_sum(cls, field, *blocks) -> "GradedMatrix":
        """The block-diagonal matrix of ``blocks`` over ``field``: each
        block's rows and columns placed after the earlier blocks', every
        other entry zero.

        Built unchecked, being valid: a block entry keeps the row and column
        twists it had in its block, and an entry off the blocks, joining a
        row twist b to a column twist a, is the zero form of degree b - a,
        which the frames allow whatever the sign of b - a.  Forms are
        immutable, so each degree gets one shared zero form.

        The sum keeps a rank profile when every block with rows and columns
        has one: the generic rank is the sum of the blocks', and the rank is
        constant iff each block's is.  Proof: at every point (the generic
        one included) the rank of a block-diagonal matrix is the sum of its
        blocks' ranks, and a block with no rows or no columns has rank 0
        everywhere.  No block's rank at a point exceeds its generic rank,
        so the sum equals the sum of the generic ranks at a point iff every
        block's rank does there.
        """
        if any(m.field != field for m in blocks):
            raise ValueError("a direct sum needs all its blocks over one field")
        src = tuple(a for m in blocks for a in m.src)
        dst = tuple(b for m in blocks for b in m.dst)
        zeros = {d: BinaryForm.zero(field, d) for d in {b - a for b in set(dst) for a in set(src)}}
        rows, start = [], 0
        for m in blocks:
            for b, row in zip(m.dst, m.entries):
                full = [zeros[b - a] for a in src]
                full[start : start + len(row)] = row
                rows.append(tuple(full))
            start += len(m.src)
        total = cls._valid(field, src, dst, tuple(rows))
        profiles = [m._profile for m in blocks if m.src and m.dst]
        if None not in profiles:
            total._profile = RankProfile(
                sum(p.generic_rank for p in profiles), all(p.constant for p in profiles)
            )
        return total

    @classmethod
    def zero(cls, field, src, dst):
        """The direct sum of a block with no columns and one with no rows."""
        return cls.direct_sum(
            field, cls._valid(field, (), dst, ((),) * len(dst)), cls._valid(field, src, (), ())
        )

    @classmethod
    def identity(cls, field, frame):
        """The square matrix on ``frame`` with entry 1 on the diagonal and a
        zero form, one per degree, off it; its rank is len(frame) at every
        point, and it keeps that profile."""
        frame = tuple(frame)
        one = BinaryForm.constant(field, 1)
        zeros = {d: BinaryForm.zero(field, d) for d in {b - a for b in frame for a in frame}}
        rows = tuple(
            tuple(one if i == j else zeros[b - a] for j, a in enumerate(frame))
            for i, b in enumerate(frame)
        )
        m = cls._valid(field, frame, frame, rows)
        m._profile = RankProfile(len(frame), True)
        return m

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
        h = self._hash
        if h is None:
            h = self._hash = hash((self.src, self.dst, self.entries))
        return h

    def __repr__(self):
        return f"GradedMatrix({list(self.src)} -> {list(self.dst)})"

    # -- algebra --------------------------------------------------------

    def __matmul__(self, other: "GradedMatrix") -> "GradedMatrix":
        """Composition self∘other (other maps into self's source frame), each
        entry accumulated from both factors' cached terms and reduced once;
        an entry that comes out zero is the shared ``BinaryForm.zero``.  A
        column of other that is a unit column with constant entry 1 at row
        k gives self's column k, whose forms are returned as they are, so
        equal columns of a product and its factor compare by identity.

        The product keeps the profile (other.ncols, True) when self has
        (self.ncols, True) and other has (other.ncols, True): at every
        point, the generic one included, a composition of injective fibre
        maps is injective."""
        if other.dst != self.src:
            raise ValueError("frames do not match for composition")
        f = self.field
        reduce_all, zero = f.reduce_all, BinaryForm.zero
        support = other.support()
        units = [  # the row of a unit column with constant entry 1, else None
            col[0][0] if len(col) == 1 and col[0][1] == ((0, 1),) and other.dst[col[0][0]] == c
            else None
            for c, col in zip(other.src, support)
        ]
        rows = []
        for b, entries in zip(self.dst, self.entries):
            left = [e.terms() for e in entries]
            row = []
            for c, nonzero, unit in zip(other.src, support, units):
                if unit is not None:
                    row.append(entries[unit])
                    continue
                acc = [0] * max(0, b - c + 1)
                for k, terms in nonzero:
                    for s, x in left[k]:
                        for t, y in terms:
                            acc[s + t] += x * y
                coeffs = reduce_all(acc)
                d = b - c
                row.append(BinaryForm._valid(f, d, coeffs) if any(coeffs) else zero(f, d))
            rows.append(tuple(row))
        product = GradedMatrix._valid(f, other.src, self.dst, tuple(rows))
        if self._profile == (len(self.src), True) and other._profile == (len(other.src), True):
            product._profile = RankProfile(len(other.src), True)
        return product

    def twist(self, t: int) -> "GradedMatrix":
        """self ⊗ O(t), with self's entries and rank profile: the entries,
        hence the rank at every point, are unchanged."""
        twisted = GradedMatrix._valid(
            self.field, tuple(a + t for a in self.src), tuple(b + t for b in self.dst), self.entries
        )
        twisted._profile = self._profile
        return twisted

    def transpose_dual(self) -> "GradedMatrix":
        dual = GradedMatrix._valid(
            self.field,
            tuple(-b for b in self.dst),
            tuple(-a for a in self.src),
            tuple(tuple(row[j] for row in self.entries) for j in range(len(self.src))),
        )
        dual._profile = self._profile
        return dual

    def pullback_power(self, d: int) -> "GradedMatrix":
        """Substitute T0 -> T0^d, T1 -> T1^d; every twist scales by d.
        d = 1 returns self, so its forms and their cached terms are shared.

        Built unchecked: the substitution takes an entry of degree b - a to
        one of degree d(b - a), the gap between the scaled twists, and a
        zero entry to a zero one.

        The pullback keeps self's rank profile.  Proof: its rank at [s:t] is
        self's rank at [s^d:t^d].  The substitution is an injective ring
        map, so each minor of the pullback is the substituted minor of
        self, nonzero iff that one is: the generic rank is unchanged.  Over
        the algebraic closure [s:t] -> [s^d:t^d] is onto the line, so the
        set of pointwise ranks is unchanged, and with it constancy."""
        if d < 1:
            raise ValueError("pullback exponent must be >= 1")
        if d == 1:
            return self
        rows = tuple(tuple(e.substitute_power(d) for e in row) for row in self.entries)
        pulled = GradedMatrix._valid(
            self.field, tuple(d * a for a in self.src), tuple(d * b for b in self.dst), rows
        )
        pulled._profile = self._profile
        return pulled

    def value_at_infinity(self):
        """Scalar matrix of values at [1:0]: each entry's T0^d coefficient."""
        zero = self.field.zero
        return [[e.coeffs[0] if e.coeffs else zero for e in row] for row in self.entries]

    # -- degree pieces --------------------------------------------------

    def sparse_piece(self, n: int) -> DegreePiece:
        """The degree-n piece with rows as {column: nonzero} dicts, columns
        ascending: one scatter of the kept support."""
        src_dims = tuple(max(0, n + a + 1) for a in self.src)
        dst_dims = tuple(max(0, n + b + 1) for b in self.dst)
        rows = [{} for _ in range(sum(dst_dims))]
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
        return DegreePiece(n, src_dims, dst_dims, rows)

    def degree_piece(self, n: int) -> DegreePiece:
        """The degree-n piece with dense rows: the view of ``sparse_piece``."""
        piece, zero = self.sparse_piece(n), self.field.zero
        cols = range(piece.ncols)
        dense = tuple(tuple(row.get(c, zero) for c in cols) for row in piece.matrix)
        return piece._replace(matrix=dense)

    # -- everywhere-rank certificate -------------------------------------

    def rank_everywhere(self) -> RankProfile:
        """Generic rank plus constancy of the pointwise rank.

        The pointwise rank is constant iff the gcd of all maximal minors is
        a nonzero constant.  That gcd is the top determinantal divisor of
        the matrix over the affine chart T1 != 0, read off from a
        diagonalization over the univariate polynomial ring (elementary
        operations preserve determinantal divisors), together with a
        full-rank check at the one remaining point [1:0].  The profile is
        computed once per matrix and kept; a matrix built with a proved
        profile (see the module docstring) keeps that one and runs no
        Smith form.
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

