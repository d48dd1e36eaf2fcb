"""The explicit flag families on the projective line.

A family is an orthogonal sum of blocks, as in the paper, and a family
takes one of two forms.  Every builder makes a block family
(``BlockFamily``), given by its blocks, one ``Part`` each:
the block's summand of the pairing (none when classical), its top chunk
as the direct sum of the builder's blocks, each lower member's witness
into the chunk above, and its perp witness.  The classical top is k - 2
lines (T0, T1), the last line with the degree-(n - 2k) monomial curve,
one block since low's combined column joins them, and a unit.  Every
isotropic case (I-IV) is one row of ``_CASES``: a small block (E(1,2),
the cubic block, the R3 block or a hyperbolic plane), an optional
E_{2a,2b} block, pulled back by a finite cover in cases I-III, and a
filler with no columns.  A row names the small block, its columns in
each lower member, and (a, b) as a function of l = k // 2 and m = n // 2.
Every big-block column lies in every lower member, so its witness is the
identity.  The pairing is ``Pairing.orthogonal_sum`` of the summands.

A member is defined as the direct sum of its chunks, which ``_chunks``
gives per block: the top chunk, checked everywhere injective, and each
lower chunk with its flag quotient, read from its witness by ``_lower``,
whose docstring holds the one proof.  A witness entry is an index, the
generator above it selects, or a combination of two of them times
monomials (only classical II's combined column and case IVa's e1 column).
A block family makes its members and its pairing only when they are
read; ``verify.certify`` reads its blocks, the one place the witnesses
are kept.  A member family (``FlagFamily``) is given by its members and
pairing: the orbit family, hand-built flags, and a block family's
``as_members()``, the oracle's form, which ``certify`` takes by the
member path.  Both forms are immutable records, compared by identity;
``fam.replace(...)`` changes header fields and keeps the form.

Every block carries its rank profile with no Smith form: a column of
monomials by ``_column``, an E_{2a,2b} block from the binomial pair
(``build_phi_psi``), the cubic and R3 blocks by the minors in their
docstrings.  While ``verify.run_sweep`` runs, it keeps one memo
(``_once``), and the builders take their blocks from it: the monomial
column per (field, d), each small block per (field, flavor, kind), the
pulled-back E_{2a,2b} block with its pairing per (field, flavor, a, b,
d), and the filler's pairing per (field, flavor, dimension).  ``verify``'s
block stages share it.  Outside a sweep nothing is kept.

An E_{2a,2b} block, big or the small E(1,2), comes with its perp witness
(psi', inner, psi''), three matrices of the two binomial sequences it is
built from (``_e2a2b``), pulled back with it by ``_block``.  The cubic
and R3 blocks come with a perp basis (P, L): the skew cubic block's is a
basis of its low chunk's perp with the block's lift into it
(``_cubic_block``); the symmetric cubic and R3 blocks' is (gen,
identity), the top chunk as its own basis, which says that the top
chunk is the perp of the chunk the rule reads.  ``verify`` checks each
before use.  The plane block needs none: the chunk whose perp its rule
reads, the low one, is empty.
"""
from functools import cached_property
from math import comb
from typing import NamedTuple

from .forms import BinaryForm
from .frames import GradedMatrix, RankProfile, trivial_frame
from .sheaves import Pairing, Subbundle, _Record

__all__ = [
    "ExceptionalCaseError",
    "HypothesisError",
    "FlagFamily",
    "BlockFamily",
    "Part",
    "OrbitDatum",
    "EXCEPTIONAL_CASES",
    "is_exceptional",
    "build_phi_psi",
    "build_E2a2b",
    "build_classical",
    "build_classical_orbit",
    "build_isotropic",
    "build_family",
    "case_Ia",
]


class ExceptionalCaseError(ValueError):
    """Raised for the finitely many (n, k) with no twisting family."""


class HypothesisError(ValueError):
    """Raised when a construction's numeric hypotheses fail."""


#: (flavor, n, k) pairs refused by the constructors.  ``None`` marks the
#: classical Grassmannian.
EXCEPTIONAL_CASES = frozenset(
    {
        (None, 2, 1),
        ("skew", 2, 1),
        ("symmetric", 2, 1),
        ("symmetric", 3, 1),
        ("symmetric", 4, 1),
        ("symmetric", 4, 2),
    }
)


def is_exceptional(flavor, n: int, k: int) -> bool:
    return (flavor, n, k) in EXCEPTIONAL_CASES


class Part(NamedTuple):
    """One block of a family as its builder writes it (``BlockFamily.blocks``)."""

    pairing: object  # the block's summand of the family's pairing; None when classical
    top: tuple  # the builder's blocks, whose direct sum is the top member's chunk
    lower: tuple  # per lower member, from the top down: its chunk's witness into the one above
    witness: object = None  # the block's perp witness, or None


class FlagFamily(_Record, eq=False):
    """A flag of subbundles of O^n given by its members, with its case tag
    and optional pairing: the member family.

    ``members`` is ordered by rank; ``shape`` records the expected ranks.
    In the skew n=2k cases the top member is the R-flag member, which is
    not required to be isotropic.  ``requested`` keeps the original (n, k)
    when an odd symmetric dimension was rerouted to its even neighbor.

    ``verify.certify`` takes it by the member path, which reads no
    witness: the orbit family, hand-built flags, and the oracle's
    ``BlockFamily.as_members()``.
    """

    case: str
    n: int
    k: int
    flavor: object  # None | "symmetric" | "skew"
    members: tuple
    shape: tuple
    pairing: object  # None when classical
    notes: tuple = ()
    requested: object = None


class BlockFamily(_Record, eq=False):
    """A flag family given by its blocks, one ``Part`` each: the block
    family every builder makes.  Its header fields are those of
    ``FlagFamily``.

    ``verify.certify`` reads the blocks, with their witnesses.  The
    members, direct sums of the blocks' chunks, and the pairing, the
    orthogonal sum of the blocks' summands (None when classical), are
    made on first read and kept; they are not fields, so ``replace``
    keeps a block family one, and refuses them.
    """

    case: str
    n: int
    k: int
    flavor: object  # None | "symmetric" | "skew"
    shape: tuple
    blocks: tuple  # per block, its Part
    notes: tuple = ()
    requested: object = None

    @cached_property
    def members(self):
        """Per member, the direct sum of its chunks in each block."""
        per_member = zip(*(_once(_chunks, part)[0] for part in self.blocks), strict=True)
        field = self.blocks[0].top[0].field
        sums = (GradedMatrix.direct_sum(field, *(c.gen for c in cs)) for cs in per_member)
        return tuple(Subbundle(m, check=False) for m in sums)

    @cached_property
    def pairing(self):
        """The orthogonal sum of the blocks' summands, or None when classical."""
        if self.blocks[0].pairing is not None:
            return Pairing.orthogonal_sum(*(part.pairing for part in self.blocks))

    def as_members(self) -> FlagFamily:
        """The member family of the same fields, members and pairing."""
        return FlagFamily(*(getattr(self, name) for name in FlagFamily._fields))


class OrbitDatum(_Record):
    """Diagonal 1-parameter subgroup weights plus a constant base flag."""

    weights: tuple
    base_members: tuple  # per member: tuple of constant columns

    def weight_sum(self) -> int:
        return sum(self.weights)


# ---------------------------------------------------------------------------
# the sweep memo

_memo = None  # results by content while run_sweep runs


def _set_memo(memo):
    global _memo
    _memo = memo


def _once(stage, *args):
    """stage(*args), once per key while a memo is open (a Subbundle's key is its gen).

    The key is the stage and its arguments' content, field included, and a
    stage is a deterministic function of that content, so a hit is what a
    recomputation gives.  A stage that raises stores nothing."""
    if _memo is None:
        return stage(*args)
    key = (stage, *(a.gen if isinstance(a, Subbundle) else a for a in args))
    found = _memo.get(key, _memo)
    if found is _memo:
        found = _memo[key] = stage(*args)
    return found


# ---------------------------------------------------------------------------
# binomial matrix pair


def build_phi_psi(field, a: int, b: int):
    """The complementary pair phi: O^a -> O(b-a)^b, psi: O(b-a)^b -> O(b)^(b-a).

    Entries are single monomials with binomial coefficients; psi∘phi = 0,
    phi is everywhere injective and psi everywhere surjective, so the pair
    is an exact splice realizing a cokernel of type {b}^(b-a).  Every entry
    of phi has degree b - a and every entry of psi degree a, as their frames
    ask, so both are built unchecked with one zero form each.

    psi keeps its rank profile (b - a, True), over any field, with no
    Smith form.  Proof: psi's row i holds the coefficients of y^(i-1) p(y),
    p = (T1 - T0 y)^a, in the basis y^0, ..., y^(b-1), so at a point
    [s:t] psi^T is multiplication by p_(s,t) = (t - s y)^a from the
    polynomials of degree < b - a to those of degree < b.  Its y^0 and y^a
    coefficients are t^a and (-s)^a, which never vanish together, so
    p_(s,t) is nonzero and multiplying by it is injective: psi has full
    row rank b - a at every point.

    phi keeps the profile (a, True) when 2a coefficients of its entries
    are nonzero in the field, read from the built entries.  Proof: entry
    (j, k) is a multiple of T0^(b-a+k-j) T1^(j-k), zero unless 0 <= j - k
    <= b - a.  So phi's top a x a block is lower triangular with diagonal
    entries C(b-k, a-k) T0^(b-a); at a point [s:t] with s != 0 its
    determinant is the product of the C(b-k, a-k) times s^(a(b-a)).  At
    [0:1] an entry survives iff its T0-exponent is 0, so column k keeps
    only its entry in row k + b - a, C(k+b-a-1, k-1) T1^(b-a), in a row of
    its own.  If all these coefficients are nonzero, phi has rank a at
    every point, the generic one included (no rank exceeds the generic
    rank, nor a).  Where one vanishes (C(5, 1) in GF(5), say) phi keeps
    no profile, and ``rank_everywhere`` runs its Smith form.
    """
    if a < 1 or a > b:
        raise HypothesisError(f"need 1 <= a <= b, got a={a}, b={b}")
    zero = BinaryForm.zero(field, b - a)
    phi_rows = tuple(
        tuple(
            # T0^(b-a+k-j) T1^(j-k)
            BinaryForm.monomial(field, b - a, j - k, comb(b - j, a - k) * comb(j - 1, k - 1))
            if 0 <= j - k <= b - a
            else zero
            for k in range(1, a + 1)
        )
        for j in range(1, b + 1)
    )
    phi = GradedMatrix._valid(field, trivial_frame(a), (b - a,) * b, phi_rows)
    # the lemma's coefficients: the top block's diagonal at T0^(b-a), and
    # each column's one entry at [0:1], at T1^(b-a); reduced, so zero iff falsy
    if all(phi_rows[k][k].coeffs[0] and phi_rows[k + b - a][k].coeffs[-1] for k in range(a)):
        phi._profile = RankProfile(a, True)
    zero = BinaryForm.zero(field, a)
    psi_rows = tuple(
        tuple(
            BinaryForm.monomial(field, a, a - (j - i), (-1) ** (j - i) * comb(a, j - i))
            if 0 <= j - i <= a
            else zero
            for j in range(1, b + 1)
        )
        for i in range(1, b - a + 1)
    )
    psi = GradedMatrix._valid(field, (b - a,) * b, (b,) * (b - a), psi_rows)
    psi._profile = RankProfile(b - a, True)
    return phi, psi


# ---------------------------------------------------------------------------
# the hyperbolic isotropic block


def build_E2a2b(field, a: int, b: int, flavor: str):
    """Rank-2a isotropic subbundle of the 2b-dimensional hyperbolic pairing.

    Generators split into a columns mapping into the e-half and a columns
    into the x-half; the x-half columns are the annihilator generators of
    the e-half image composed with a second binomial matrix, which is what
    makes the cross terms vanish.
    """
    beta, gen, _ = _e2a2b(field, flavor, a, b)
    return beta, Subbundle(gen)


def _e2a2b(field, flavor: str, a: int = 1, b: int = 2):
    """The pairing, the unchecked generator phi_plus ⊕ phi_minus of
    ``build_E2a2b``, phi_plus into the e-half and phi_minus into the
    x-half, and the block's perp witness (psi', inner, psi'').  The
    defaults give the smallest block, E(1,2), the small block of the case
    I and III rows.

    With c = b - a, psi' = psi_(a,b).twist(-c): O^b -> O(a)^c, and
    phi_minus = psi'^T inner with inner = phi_(a,c).twist(-c): O(-c)^a ->
    O(-a)^c, and psi'' = psi_(a,c).twist(-c): O(-a)^c -> O^(c-a), the
    other half of inner's binomial pair.  ``verify._witnessed_quotient``
    checks (phi_plus, psi') and (inner, psi'') as exact pairs and the
    product, and reads perp/top from psi''.

    The generator's profile (2a, True) composes with no Smith form where
    ``build_phi_psi`` keeps phi's: phi_plus is phi twisted, phi_minus the
    product of two everywhere-injective maps, psi'^T and inner, and the
    generator their direct sum."""
    if a < 1:
        raise HypothesisError(f"need a >= 1, got a={a}")
    if b < 2 * a:
        raise HypothesisError(f"need b >= 2a, got a={a}, b={b}")
    beta = Pairing.hyperbolic(field, b, flavor)
    c = b - a
    phi_plus, psi = (m.twist(-c) for m in build_phi_psi(field, a, b))  # O(-c)^a -> O^b -> O(a)^c
    inner, psi_inner = (m.twist(-c) for m in build_phi_psi(field, a, c))  # -> O(-a)^c -> O^(c-a)
    gen = GradedMatrix.direct_sum(field, phi_plus, psi.transpose_dual() @ inner)
    return beta, gen, (psi, inner, psi_inner)


# ---------------------------------------------------------------------------
# flags from their witnesses


def _column(field, twists, specs):
    """The column into O(twists[0]) + O(twists[1]) + ... whose entry i is
    BinaryForm.monomial(field, *specs[i]), checked, with its rank profile.

    The profile needs no Smith form.  A column has generic rank 1 iff an
    entry is nonzero, and then rank 1 at a point iff an entry is nonzero
    there.  A nonzero c T0^(d-e) T1^e vanishes at [0:1] iff e < d, at
    [1:0] iff e > 0, and nowhere else; so the rank is constant iff some
    nonzero entry has e = 0 and some has e = d (a zero column has rank 0
    everywhere)."""
    forms = [BinaryForm.monomial(field, *spec) for spec in specs]
    col = GradedMatrix.from_columns(field, twists, [(twists[0] - specs[0][0], forms)])
    nonzero = [spec[:2] for spec, form in zip(specs, forms) if not form.is_zero()]
    col._profile = RankProfile(
        min(1, len(nonzero)),
        not nonzero or (any(e == 0 for _, e in nonzero) and any(e == d for d, e in nonzero)),
    )
    return col


def _lower(outer, witness):
    """(outer @ L, the twists of coker L) for the inclusion witness L that
    ``witness`` writes, or None if it writes none.

    ``witness`` is a tuple of L's columns, one per generator of the lower
    member: an index i is the unit column at outer row i, and a
    combination ((i1, s1), (i2, s2)) is the column with entry
    BinaryForm.monomial(field, *s) = c T0^(d-e) T1^e at row i1 and i2, for
    s = (d, e[, c]), and zero elsewhere (``_column``).
    None when an entry is neither, when a row repeats or is not an int in
    range(outer.ncols), or when a combination's column does not keep the
    profile (1, True).  An index column of outer @ L is outer's column, the
    same form objects; a combination's is the product of outer's two
    columns with it.

    The lemma.  Then L is everywhere injective, and coker L is the
    summands of outer's frame at the rows no entry names, plus one
    O(a1 + a2 - t) per combination c: O(t) -> O(a1) + O(a2).  Proof: up to
    a permutation of rows and columns, L is block diagonal, with a 1 x 1
    unit per index, the 2 x 1 column c per combination, and a zero row per
    row left out.  A unit is an isomorphism; c has rank 1 at every point,
    so it is injective on every fiber and coker c is a line bundle, whose
    degree is a1 + a2 - t.  So if outer is everywhere injective, so is
    outer @ L, and outer/inner = coker L for inner = outer @ L: outer is an
    isomorphism onto its image that carries im L onto inner.  The identity
    witness, every index in order, gives outer itself and no quotient."""
    if not isinstance(witness, tuple):
        return None
    if witness == tuple(range(outer.ncols)) and all(type(i) is int for i in witness):
        return outer, ()
    field, used, columns, src, lines = outer.field, set(), [], [], []
    for entry in witness:
        if type(entry) is int:
            rows = (entry,)
        elif isinstance(entry, tuple) and len(entry) == 2 and all(
            isinstance(part, tuple) and len(part) == 2 and isinstance(part[1], tuple)
            for part in entry
        ):
            rows = (entry[0][0], entry[1][0])
        else:
            return None
        for r in rows:
            if type(r) is not int or not 0 <= r < outer.ncols or r in used:
                return None
            used.add(r)
        if len(rows) == 1:
            src.append(outer.src[entry])
            columns.append(tuple(row[entry] for row in outer.entries))
            continue
        twists = tuple(outer.src[r] for r in rows)
        try:
            col = _column(field, twists, (entry[0][1], entry[1][1]))
        except (TypeError, ValueError):
            return None
        if col.rank_everywhere() != (1, True):
            return None
        pair = tuple(tuple(row[r] for r in rows) for row in outer.entries)
        product = GradedMatrix._valid(field, twists, outer.dst, pair) @ col
        src.append(col.src[0])
        columns.append(tuple(row[0] for row in product.entries))
        lines.append(sum(twists) - col.src[0])
    entries = tuple(zip(*columns)) if columns else ((),) * outer.nrows
    left = [a for r, a in enumerate(outer.src) if r not in used]
    return GradedMatrix._valid(field, tuple(src), outer.dst, entries), (*left, *lines)


def _chunks(part):
    """Each member's chunk in the block ``part``, and the twists of each
    flag quotient's summand there, both bottom first: the direct sum of
    ``part.top``, checked everywhere injective by its blocks' profiles,
    then each chunk ``_lower`` reads from its witness into the one above,
    everywhere injective by its lemma.  A refused witness raises
    ``ValueError``."""
    top = part.top[0]
    if len(part.top) > 1:
        top = GradedMatrix.direct_sum(top.field, *part.top)
    chunks, quotients = [Subbundle(top)], []
    for witness in part.lower:
        found = _lower(chunks[-1].gen, witness)
        if found is None:
            raise ValueError(f"not a flag witness: {witness!r}")
        above = chunks[-1]
        chunks.append(above if found[0] is above.gen else Subbundle(found[0], check=False))
        quotients.append(found[1])
    return tuple(chunks[::-1]), tuple(quotients[::-1])


# ---------------------------------------------------------------------------
# classical Grassmannian


def _classical_point(n, k):
    """Refuse an (n, k) with no classical family, as both builders do."""
    if n < 2 or k < 1 or 2 * k > n:
        raise HypothesisError(f"need n >= 2 and 1 <= k <= n/2, got ({n},{k})")
    if is_exceptional(None, n, k):
        raise ExceptionalCaseError(f"exceptional case: classical ({n},{k})")


def _monomials(field, d):
    """The column O(-d) -> O^(d+1) of all degree-d monomials, with its
    profile (1, True): T0^d and T1^d have no common zero."""
    return _column(field, (0,) * (d + 1), [(d, j) for j in range(d + 1)])


def build_classical(field, n: int, k: int) -> BlockFamily:
    """The (k-1, k, k+1)-flag inside O^n for the classical Grassmannian.

    The top member is line^(k-1) ⊕ curve ⊕ unit, each the column O(-d) ->
    O^(d+1) of all degree-d monomials: d = 1, n-2k and 0.  mid drops the
    unit; low is the first k-2 lines and the last line times T0^(n-2k)
    plus the curve times T1, which joins those two into one block."""
    _classical_point(n, k)
    line, curve, unit = (_once(_monomials, field, d) for d in (1, n - 2 * k, 0))
    if k == 1:
        case, parts = "classical-I", [Part(None, (curve,), ((0,), ()))]
    else:
        joined = Part(None, (line, curve), ((0, 1), (((0, (n - 2 * k, 0)), (1, (1, 1))),)))
        case, parts = "classical-II", [*[Part(None, (line,), ((0,), (0,)))] * (k - 2), joined]
    parts.append(Part(None, (unit,), ((), ())))
    return BlockFamily(case, n, k, None, (k - 1, k, k + 1), tuple(parts))


def build_classical_orbit(field, n: int, k: int):
    """Orbit-curve weights and base flag whose sweep is the classical flag.

    The 1-parameter subgroup is diagonal: weights (0,1) on each 2-block of
    the first summand, 1..n+1-2k on the middle summand, and the balancing
    weight on the last line so the total is zero.  Homogenizing t^w per
    column and clearing common powers reproduces the monomial matrices.
    """
    _classical_point(n, k)
    r = n + 1 - 2 * k
    weights = (0, 1) * (k - 1) + tuple(range(1, r + 1)) + (-((k - 1) + (r + 1) * r // 2),)

    def ones(start, stop):  # the constant column, 1 on coordinates start..stop-1
        return tuple(field.one if start <= i < stop else field.zero for i in range(n))

    pairs = [ones(2 * i, 2 * i + 2) for i in range(k - 1)]
    middle = ones(2 * k - 2, 2 * k - 2 + r)
    low = () if k == 1 else (*pairs[: k - 2], ones(2 * k - 4, 2 * k - 2 + r))
    datum = OrbitDatum(weights, (low, (*pairs, middle), (*pairs, middle, ones(n - 1, n))))
    members = tuple(_orbit_member(field, weights, cols, n) for cols in datum.base_members)
    return datum, FlagFamily("classical-orbit", n, k, None, members, (k - 1, k, k + 1), None)


def _orbit_member(field, weights, cols, n) -> Subbundle:
    out = []
    for col in cols:
        support = [w for w, v in zip(weights, col) if not field.is_zero(v)]
        lo, d = min(support), max(support) - min(support)
        zero = BinaryForm.zero(field, d)
        forms = [
            zero if field.is_zero(v) else BinaryForm.monomial(field, d, w - lo, v)
            for w, v in zip(weights, col)
        ]
        out.append((-d, forms))
    return Subbundle(GradedMatrix.from_columns(field, trivial_frame(n), out))


# ---------------------------------------------------------------------------
# isotropic cases


def _cubic_block(field, flavor):
    """g, f1, f2 in a hyperbolic 6-space: the rank-3 cubic block, with its
    perp witness (P, L).

    The symmetric block is Lagrangian, its own perp, so its witness is
    (gen, identity).  The skew block's: P's columns e0, e1 - x1, x2, T1 e1
    + T0 e2 and T0 e1 + T1 x0 span perp(g), which is where the skew rule
    asks for a perp, and L is the lift of the block into it, P @ L = (g,
    f1, f2): g = -T0^2 e0 + T0 T1 (e1 - x1) + T1^2 x2, f1 = -T0 (e1 - x1)
    + 2 (T0 e1 + T1 x0), f2 = -T1 (e1 - x1) + 2 (T1 e1 + T0 e2).
    ``verify._lifted_quotient`` checks either witness before it reads
    perp/top from L.

    The generator and P keep the profile (ncols, True), with no Smith
    form.  Proof: in the basis e0, e1, e2, x0, x1, x2, the maximal minors
    on rows (e0, e2, x1) and (x2, x0, x1) of the symmetric generator are
    -T0^4 and T1^4, those on rows (e0, e1, e2) and (x2, e1, x0) of the
    skew one -2 T0^4 and -2 T1^4, and P's without row x0 and without row
    e2 are T0^2 and -T1^2.  T0 and T1 have no common zero, and 2 is a unit
    (``PrimeField`` refuses characteristic 2), so at every point, the
    generic one included, one of each pair is nonzero: the rank is the
    column count everywhere."""
    t0 = BinaryForm.monomial(field, 1, 0)
    t1 = BinaryForm.monomial(field, 1, 1)
    t00 = BinaryForm.monomial(field, 2, 0)
    t01 = BinaryForm.monomial(field, 2, 1)
    t11 = BinaryForm.monomial(field, 2, 2)
    z1 = BinaryForm.zero(field, 1)
    z2 = BinaryForm.zero(field, 2)
    beta = Pairing.hyperbolic(field, 3, flavor)
    if flavor == "symmetric":
        g = (-2, [t00, t01, z2, z2, z2, t11])
        f1 = (-1, [z1, z1, t0, z1, -t1, z1])
        f2 = (-1, [z1, z1, z1, t1, -t0, z1])
        gen = _profiled(GradedMatrix.from_columns(field, trivial_frame(6), [g, f1, f2]))
        return beta, gen, (gen, GradedMatrix.identity(field, gen.src))
    g = (-2, [-t00, t01, z2, z2, -t01, t11])
    f1 = (-1, [z1, t0, z1, t1 + t1, t0, z1])
    f2 = (-1, [z1, t1, t0 + t0, z1, t1, z1])
    gen = _profiled(GradedMatrix.from_columns(field, trivial_frame(6), [g, f1, f2]))
    one, two, z0 = (BinaryForm.constant(field, c) for c in (1, 2, 0))
    p = GradedMatrix.from_columns(
        field,
        trivial_frame(6),
        [
            (0, [one, z0, z0, z0, z0, z0]),
            (0, [z0, one, z0, z0, -one, z0]),
            (0, [z0, z0, z0, z0, z0, one]),
            (-1, [z1, t1, t0, z1, z1, z1]),
            (-1, [z1, t0, z1, t1, z1, z1]),
        ],
    )
    lift = GradedMatrix.from_columns(
        field,
        p.src,
        [
            (-2, [-t00, t01, t11, z1, z1]),
            (-1, [z1, -t0, z1, z0, two]),
            (-1, [z1, -t1, z1, two, z0]),
        ],
    )
    return beta, gen, (_profiled(p), lift)


def _r3_block(field, flavor):
    """col_a, col_bp, col_bm in a skew hyperbolic 4-space: the R3 block,
    whose top member is not isotropic, with its perp witness (gen,
    identity): the top is the perp of the low chunk e1 = T0 col_bp - T1
    col_bm, which ``verify._lifted_quotient`` checks before use.

    It keeps the profile (3, True), with no Smith form: in the basis e0,
    e1, x0, x1 its maximal minors on rows (e0, e1, x1) and (e1, x0, x1)
    are -T0^2 and T1^2, which have no common zero."""
    t0 = BinaryForm.monomial(field, 1, 0)
    t1 = BinaryForm.monomial(field, 1, 1)
    one = BinaryForm.constant(field, 1)
    z0 = BinaryForm.zero(field, 0)
    z1 = BinaryForm.zero(field, 1)
    col_a = (0, [z0, one, z0, -one])
    col_bp = (-1, [t0, t1, z1, z1])
    col_bm = (-1, [z1, z1, -t1, t0])
    gen = _profiled(GradedMatrix.from_columns(field, trivial_frame(4), [col_a, col_bp, col_bm]))
    return Pairing.hyperbolic(field, 2, flavor), gen, (gen, GradedMatrix.identity(field, gen.src))


def _profiled(m):
    """m, keeping the profile (m.ncols, True) a lemma gives it."""
    m._profile = RankProfile(m.ncols, True)
    return m


def _plane_block(field, flavor):
    """e and x spanning a skew hyperbolic plane."""
    return Pairing.hyperbolic(field, 1, flavor), GradedMatrix.identity(field, (0, 0))


def _finite_cover_degree(a: int, b: int) -> int:
    # the dual twists b-a must stay ample after tensoring with O(-1)
    return 1 if b - a >= 2 else 2


def _filler_pairing(field, flavor, dim):
    if flavor == "symmetric":
        return Pairing.diagonal_ones(field, dim)
    if dim % 2:
        raise HypothesisError("skew filler blocks need even dimension")
    return Pairing.hyperbolic(field, dim // 2, "skew")


class _Case(NamedTuple):
    small: object  # (field, flavor) -> (pairing, top generator in the block[, perp witness])
    lower: tuple  # per lower member, from the top down: its small-block columns
    big: object  # (l, m) -> (a, b) of the E_{2a,2b} block; a = 0: no big block
    pulled: bool  # pulled back by T -> T^d, d = _finite_cover_degree(a, b)


# one row per construction, l = k // 2 and m = n // 2; see the module docstring
_CASES = {
    "I": _Case(_e2a2b, ((0,), ()), lambda l, m: (l, m - 2), True),
    "II": _Case(_cubic_block, ((0, 1), (0,)), lambda l, m: (l - 1, m - 3), True),
    "IIIa": _Case(_e2a2b, ((),), lambda l, m: (l - 1, m - 2), True),
    "IIIb": _Case(_cubic_block, ((0,),), lambda l, m: (l - 1, m - 3), True),
    # IVa's low member starts with e1 = T0 * col_bp - T1 * col_bm
    "IVa": _Case(
        _r3_block, ((1, 2), (((0, (1, 0)), (1, (1, 1, -1))),)), lambda l, m: (l - 1, m - 2), False
    ),
    "IVb": _Case(_plane_block, ((0,), ()), lambda l, m: (l, m - 1), False),
}


def _block(build, field, flavor, d, *ab):
    """The pairing, the generator and the perp witness of one isotropic
    block, build(field, flavor, *ab), pulled back by T -> T^d with its
    rank profile, found before the pullback, which keeps it (a Smith form
    only where ``build_phi_psi`` keeps no profile for phi), and with the
    witness pulled back too.  ``_isotropic`` takes it through ``_once``."""
    beta, gen, *witness = build(field, flavor, *ab)
    gen.rank_everywhere()
    witness = tuple(m.pullback_power(d) for m in witness[0]) if witness else None
    return beta, gen.pullback_power(d), witness


def _isotropic(case, field, n, k, flavor, row) -> BlockFamily:
    """The family of one ``_CASES`` row: the small block, then the big
    block, then the filler, each a block of the pairing and of the top,
    whose filler block has no columns.  A lower member is its small-block
    columns followed by every big-block column: the big block's witness
    is the identity.  A one-step (case III) flag has shape (k-2, k)."""
    small, lower, big, pulled = row
    beta, gen, witness = _once(_block, small, field, flavor, 1)
    parts = [Part(beta, (gen,), lower, witness)]
    a, b = big(k // 2, n // 2)
    if a:
        d = _finite_cover_degree(a, b) if pulled else 1
        beta, gen, witness = _once(_block, _e2a2b, field, flavor, d, a, b)
        parts.append(Part(beta, (gen,), (tuple(range(gen.ncols)),) * len(lower), witness))
    if filler := n - sum(part.pairing.dim for part in parts):
        top = GradedMatrix.zero(field, (), trivial_frame(filler))
        beta = _once(_filler_pairing, field, flavor, filler)
        parts.append(Part(beta, (top,), ((),) * len(lower)))
    shape = (k - 2, k) if len(lower) == 1 else (k - 1, k, k + 1)
    return BlockFamily(case, n, k, flavor, shape, tuple(parts))


def case_Ia(field, n: int, flavor: str) -> BlockFamily:
    """k = 1 flag: both small members inside one rank-2 isotropic block.
    Unlike ``build_isotropic`` it also builds the exceptional symmetric
    n = 4 flag, whose positivity verdict is what fails."""
    if n < 4:
        raise HypothesisError(f"case Ia needs n >= 4, got n={n}")
    return _isotropic("Ia", field, n, 1, flavor, _CASES["I"])


def build_isotropic(field, n: int, k: int, flavor: str) -> BlockFamily:
    """The isotropic Grassmannian's family, from its ``_CASES`` row.

    n >= 2k+2 is case I for odd k and II for even k (Ia and IIa for k <= 2,
    with no big block); n = 2k is III when symmetric and IV when skew (a
    for even k, b for odd k).  Odd symmetric dimension with n = 2k+1 is rerouted to the equivalent
    (n+1, k+1) construction; the certificate keeps the requested pair.
    """
    if flavor not in ("symmetric", "skew"):
        raise ValueError(f"flavor must be 'symmetric' or 'skew', got {flavor!r}")
    if flavor == "skew" and n % 2:
        raise HypothesisError("skew pairings need even dimension")
    if k < 1 or 2 * k > n:
        raise HypothesisError(f"need 1 <= k <= n/2, got ({n},{k})")
    if is_exceptional(flavor, n, k):
        raise ExceptionalCaseError(f"exceptional case: {flavor} ({n},{k})")
    if n >= 2 * k + 2:
        row = "I" if k % 2 else "II"
        case = row + ("a" if k <= 2 else "b")
        if case == "IIa":
            case = "IIa-sym" if flavor == "symmetric" else "IIa-skew"
        return _isotropic(case, field, n, k, flavor, _CASES[row])
    if n == 2 * k:
        row = ("III" if flavor == "symmetric" else "IV") + ("b" if k % 2 else "a")
        return _isotropic(row, field, n, k, flavor, _CASES[row])
    # n == 2k + 1, symmetric only: a maximal isotropic flag in odd dimension
    note = f"odd-dimension case ({n},{k}) verified via the ({n + 1},{k + 1}) flag"
    fam = build_isotropic(field, n + 1, k + 1, "symmetric")
    return fam.replace(requested=(n, k), notes=fam.notes + (note,))


def build_family(field, n: int, k: int, flavor) -> BlockFamily:
    """The classical family when ``flavor`` is None, else the isotropic one."""
    return build_classical(field, n, k) if flavor is None else build_isotropic(field, n, k, flavor)
