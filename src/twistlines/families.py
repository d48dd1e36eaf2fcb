"""The explicit flag families on the projective line.

Each builder assembles a nested chain of certified subbundles of a trivial
bundle, together with the pairing the chain must respect.  The matrix data
is exactly the binomial/monomial data the constructions call for; every
member is certified as a locally split subbundle on construction, the top
by its rank profile and a lower member by its witness into the member
above, as ``_flag`` proves (the positivity layer sits in ``verify``).

Every top member is the direct sum of its blocks
(``GradedMatrix.direct_sum``).  The classical top is k - 1 lines, the
degree-(n - 2k) monomial curve and a unit.  Every isotropic case (I-IV) is
one row of ``_CASES``: an orthogonal sum of a small block (E(1,2), the
cubic block, the R3 block or a hyperbolic plane), an optional E_{2a,2b}
block, pulled back by a finite cover in cases I-III, and a filler with no
columns.  A row names the small block, its columns in each lower member,
and (a, b) as a function of l = k // 2 and m = n // 2; ``_isotropic``
builds every row the same way, and ``build_isotropic`` picks the row.
The pairing is ``Pairing.orthogonal_sum`` of the blocks' pairings, which
keeps them as its summands, and every member column lies in one of them:
``verify.certify`` splits the members along those summands
(``sheaves.orthogonal_blocks``) and runs its pairing stages on them.

Each builder assembles only the top member; every lower member is given
by its witness into the member above, the tuple of its columns, which
the builder writes and the family keeps as its ``inclusions``.  An entry
is an index, the generator above it selects, or a combination of two of
them times monomials; only the combined column of classical case II and
the e1 column of case IVa are combinations.  ``_lower`` reads a witness:
the member's generator, and the flag quotient from frames, by one lemma
in its docstring.  The witnesses are not trusted data: ``certify`` reads
one only if ``_lower`` gives the member from it, and otherwise finds the
inclusion again by elimination.

Every matrix here is assembled from blocks that carry their rank
profile, so the profile of the top member composes
(``GradedMatrix.direct_sum``, ``pullback_power``, ``identity`` and
products), a combination's column reads its own from its monomials
(``_column``), and only the cubic and R3 blocks run a Smith form: an
E_{2a,2b} block composes its profile from the binomial pair
(``build_phi_psi``).
While ``verify.run_sweep`` runs, each process keeps one memo
(``_once``), and the builders take their blocks from it: the classical
monomial column per (field, d), each small block per (field, flavor,
kind), the pulled-back E_{2a,2b} block with its pairing per (field,
flavor, a, b, d), and each combination column of a witness per its
content.  So a sweep worker builds each distinct block, and runs a
cubic or R3 block's Smith form, once; a column of monomials (a classical
block, or a witness's combination column) needs none (``_column``).
``verify``'s block stages share the memo.  Outside a sweep nothing is
kept, and a build that raises stores nothing.

An E_{2a,2b} block, big or the small E(1,2), comes with its perp witness
(psi', inner, psi''), three matrices of the two binomial sequences it is
built from (``_e2a2b``), pulled back with it by ``_block``; the skew
cubic block comes with (P, L), a basis of its low chunk's perp and the
block's lift into it (``_cubic_block``).  ``_isotropic`` hands each to
the family's ``perps`` with the block's first coordinate, and
``verify.certify`` reads the block's perp/top from it, once checked, with
no kernel scan.  The symmetric cubic, R3 and plane blocks have none:
``certify`` answers them by their shape, the R3 and symmetric cubic
blocks with their top chunk as the perp basis.
"""
from dataclasses import dataclass, replace
from math import comb
from typing import NamedTuple

from .forms import BinaryForm
from .frames import GradedMatrix, RankProfile, trivial_frame
from .sheaves import Pairing, Subbundle

__all__ = [
    "ExceptionalCaseError",
    "HypothesisError",
    "FlagFamily",
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


@dataclass(frozen=True, eq=False)
class FlagFamily:
    """A flag of subbundles of O^n with its case tag and optional pairing.

    ``members`` is ordered by rank; ``shape`` records the expected ranks.
    In the skew n=2k cases the top member is the R-flag member, which is
    not required to be isotropic.  ``requested`` keeps the original (n, k)
    when an odd symmetric dimension was rerouted to its even neighbor.

    ``inclusions`` holds the builder's witness for each adjacent pair,
    from which the builder made members[i] itself: the tuple of the
    columns of L_i, members[i+1].gen @ L_i == members[i].gen, each an
    index or a two-row combination (``_lower``).  Empty means no
    witnesses (the orbit family, hand-built flags).  ``verify.certify``
    reads a quotient from a witness only if ``_lower`` gives members[i]
    from it, and falls back to elimination when a witness is missing or
    fails.

    ``perps`` holds, per block of the pairing with a perp witness, the
    block's first ambient coordinate and the witness: (psi', inner,
    psi'') for an E_{2a,2b} block (``_e2a2b``), two exact pairs with
    the block's generator, and (P, L) for the skew cubic block
    (``_cubic_block``), a perp basis and the top's lift into it.
    ``verify.certify`` checks a witness against the block it finds there
    before it reads isotropy or perp/top from it; a witness that fails,
    or that is not a tuple of matrices of its length, falls back to
    ``is_isotropic``, ``perp`` and ``quotient_type``.
    """

    case: str
    n: int
    k: int
    flavor: object  # None | "symmetric" | "skew"
    members: tuple
    shape: tuple
    pairing: object
    notes: tuple = ()
    requested: object = None
    inclusions: tuple = ()  # per pair: L_i's columns, outer.gen @ L_i == inner.gen (_lower)
    perps: tuple = ()  # (first coordinate, witness) per block with a perp witness

    @property
    def field(self):
        return self.members[-1].field


@dataclass(frozen=True)
class OrbitDatum:
    """Diagonal 1-parameter subgroup weights plus a constant base flag."""

    weights: tuple
    base_members: tuple  # per member: tuple of constant columns

    def weight_sum(self) -> int:
        return sum(self.weights)


# ---------------------------------------------------------------------------
# the sweep memo

_memo = None  # results by content while run_sweep runs, one per process


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
    generator their direct sum.  ``_isotropic`` embeds this block, or its
    pullback, in a block-diagonal top member, whose rank profile composes
    from its blocks', so the check of the top certifies the block too.
    """
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
    s = (d, e[, c]), and zero elsewhere (``_column``, through ``_once``).
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
    isomorphism onto its image that carries im L onto inner."""
    if not isinstance(witness, tuple):
        return None
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
            col = _once(_column, field, twists, (entry[0][1], entry[1][1]))
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


def _flag(case, n, k, flavor, shape, pairing, top, *lower, perps=()) -> FlagFamily:
    """The family with top member ``top`` and, from the top down, one lower
    member per entry of ``lower``: its inclusion witness into the member
    above, a tuple of that member's generators and combinations of two of
    them (``_lower``).  The member's generator is outer.gen @ L, and the
    witness is kept as the family's inclusion; a witness ``_lower``
    refuses raises ``ValueError``.

    The member is certified by its witness, not by its n-row generator:
    outer.gen is everywhere injective, so the member is too (``_lower``'s
    lemma).  ``perps`` goes to the family as it is."""
    members, inclusions = [top], []
    for witness in lower:
        found = _lower(members[0].gen, witness)
        if found is None:
            raise ValueError(f"not a flag witness: {witness!r}")
        members.insert(0, Subbundle(found[0], check=False))
        inclusions.insert(0, witness)
    members, inclusions = tuple(members), tuple(inclusions)
    return FlagFamily(
        case, n, k, flavor, members, shape, pairing, inclusions=inclusions, perps=perps
    )


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


def build_classical(field, n: int, k: int) -> FlagFamily:
    """The (k-1, k, k+1)-flag inside O^n for the classical Grassmannian.

    The top member is line^(k-1) ⊕ curve ⊕ unit, each block the column
    O(-d) -> O^(d+1) of all degree-d monomials: k-1 lines (T0, T1) with
    d = 1, the curve with d = n-2k, and the unit with d = 0."""
    _classical_point(n, k)
    line, curve, unit = (_once(_monomials, field, d) for d in (1, n - 2 * k, 0))
    top = Subbundle(GradedMatrix.direct_sum(field, *[line] * (k - 1), curve, unit))
    if k == 1:
        case, low = "classical-I", ()
    else:
        # mid's generators are the lines, then the curve; low combines the
        # last line times T0^(n-2k) with the curve times T1
        case, low = "classical-II", (*range(k - 2), ((k - 2, (n - 2 * k, 0)), (k - 1, (1, 1))))
    return _flag(case, n, k, None, (k - 1, k, k + 1), None, top, tuple(range(k)), low)


def build_classical_orbit(field, n: int, k: int):
    """Orbit-curve weights and base flag whose sweep is the classical flag.

    The 1-parameter subgroup is diagonal: weights (0,1) on each 2-block of
    the first summand, 1..n+1-2k on the middle summand, and the balancing
    weight on the last line so the total is zero.  Homogenizing t^w per
    column and clearing common powers reproduces the monomial matrices.
    """
    _classical_point(n, k)
    r = n + 1 - 2 * k
    c = -((k - 1) + (r + 1) * r // 2)
    weights = []
    for _ in range(k - 1):
        weights.extend([0, 1])
    weights.extend(range(1, r + 1))
    weights.append(c)
    weights = tuple(weights)

    one, zero = field.one, field.zero

    def unit_pairs():
        cols = []
        for i in range(k - 1):
            col = [zero] * n
            col[2 * i] = one
            col[2 * i + 1] = one
            cols.append(tuple(col))
        return cols

    ones_middle = tuple(
        one if 2 * k - 2 <= i < 2 * k - 2 + r else zero for i in range(n)
    )
    unit_last = tuple(one if i == n - 1 else zero for i in range(n))
    top_cols = unit_pairs() + [ones_middle, unit_last]
    mid_cols = unit_pairs() + [ones_middle]
    if k == 1:
        low_cols = []
    else:
        bridge = tuple(one if 2 * k - 4 <= i < 2 * k - 2 + r else zero for i in range(n))
        low_cols = unit_pairs()[: k - 2] + [bridge]
    datum = OrbitDatum(
        weights=weights,
        base_members=(tuple(low_cols), tuple(mid_cols), tuple(top_cols)),
    )
    members = tuple(
        _orbit_member(field, weights, cols, n) for cols in datum.base_members
    )
    fam = FlagFamily(
        case="classical-orbit",
        n=n,
        k=k,
        flavor=None,
        members=members,
        shape=(k - 1, k, k + 1),
        pairing=None,
    )
    return datum, fam


def _orbit_member(field, weights, cols, n) -> Subbundle:
    if not cols:
        return Subbundle.zero(field, trivial_frame(n))
    out = []
    for col in cols:
        support = [w for w, v in zip(weights, col) if not field.is_zero(v)]
        lo, hi = min(support), max(support)
        forms = []
        for w, v in zip(weights, col):
            d = hi - lo
            if field.is_zero(v):
                forms.append(BinaryForm.zero(field, d))
            else:
                forms.append(BinaryForm.monomial(field, d, w - lo, v))
        out.append((-(hi - lo), forms))
    return Subbundle(GradedMatrix.from_columns(field, trivial_frame(n), out))


# ---------------------------------------------------------------------------
# isotropic cases


def _cubic_block(field, flavor):
    """g, f1, f2 in a hyperbolic 6-space: the rank-3 cubic block.

    The skew block also returns its perp witness (P, L): P's columns e0,
    e1 - x1, x2, T1 e1 + T0 e2 and T0 e1 + T1 x0 span perp(g), which is
    where the skew rule asks for a perp, and L is the lift of the block
    into it, P @ L = (g, f1, f2): g = -T0^2 e0 + T0 T1 (e1 - x1) + T1^2 x2,
    f1 = -T0 (e1 - x1) + 2 (T0 e1 + T1 x0), f2 = -T1 (e1 - x1) + 2 (T1 e1
    + T0 e2).  ``verify._lifted_quotient`` checks both before it reads
    perp(g)/top from L."""
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
        return beta, GradedMatrix.from_columns(field, trivial_frame(6), [g, f1, f2])
    g = (-2, [-t00, t01, z2, z2, -t01, t11])
    f1 = (-1, [z1, t0, z1, t1 + t1, t0, z1])
    f2 = (-1, [z1, t1, t0 + t0, z1, t1, z1])
    gen = GradedMatrix.from_columns(field, trivial_frame(6), [g, f1, f2])
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
    return beta, gen, (p, lift)


def _r3_block(field, flavor):
    """col_a, col_bp, col_bm in a skew hyperbolic 4-space: the R3 block,
    whose top member is not isotropic."""
    t0 = BinaryForm.monomial(field, 1, 0)
    t1 = BinaryForm.monomial(field, 1, 1)
    one = BinaryForm.constant(field, 1)
    z0 = BinaryForm.zero(field, 0)
    z1 = BinaryForm.zero(field, 1)
    col_a = (0, [z0, one, z0, -one])
    col_bp = (-1, [t0, t1, z1, z1])
    col_bm = (-1, [z1, z1, -t1, t0])
    gen = GradedMatrix.from_columns(field, trivial_frame(4), [col_a, col_bp, col_bm])
    return Pairing.hyperbolic(field, 2, flavor), gen


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
    """The pairing, the generator and the perp witness of one block of an
    isotropic top member: build(field, flavor, *ab), pulled back by
    T -> T^d, with its rank profile, found before the pullback, which
    keeps it.  The E_{2a,2b} and plane blocks carry theirs; the cubic and
    R3 blocks, and an E_{2a,2b} block whose phi keeps none, run one Smith
    form.  The witness is that of an E_{2a,2b} block (``_e2a2b``) or of
    the skew cubic block (``_cubic_block``), pulled back too, else None.
    ``_isotropic`` takes every block through ``_once``."""
    beta, gen, *witness = build(field, flavor, *ab)
    gen.rank_everywhere()
    witness = tuple(m.pullback_power(d) for m in witness[0]) if witness else None
    return beta, gen.pullback_power(d), witness


def _isotropic(case, field, n, k, flavor, row) -> FlagFamily:
    """The family of one ``_CASES`` row: the small block, then the big
    block, then the filler, each a block of the pairing and of the top,
    whose filler block has no columns.  A lower member is its small-block
    columns followed by every big-block column, which in the member above
    start right after that member's small-block entries.  A one-step
    (case III) flag has shape (k-2, k).  The family's ``perps`` holds the
    perp witness of each block that has one, at its first coordinate."""
    small, lower, big, pulled = row
    beta, small_gen, witness = _once(_block, small, field, flavor, 1)
    pairings, gens, perps = [beta], [small_gen], [(0, witness)]
    a, b = big(k // 2, n // 2)
    if a:
        d = _finite_cover_degree(a, b) if pulled else 1
        beta_big, e_big, witness = _once(_block, _e2a2b, field, flavor, d, a, b)
        perps.append((beta.dim, witness))
        pairings.append(beta_big)
        gens.append(e_big)
    filler = n - sum(p.dim for p in pairings)
    pairing = Pairing.orthogonal_sum(*pairings, _filler_pairing(field, flavor, filler))
    filler_gen = GradedMatrix.zero(field, (), trivial_frame(filler))
    top = Subbundle(GradedMatrix.direct_sum(field, *gens, filler_gen))
    lists, above, nbig = [], small_gen.ncols, top.rank - small_gen.ncols
    for cols in lower:
        lists.append((*cols, *range(above, above + nbig)))
        above = len(cols)
    shape = (k - 2, k) if len(lower) == 1 else (k - 1, k, k + 1)
    perps = tuple((at, witness) for at, witness in perps if witness)
    return _flag(case, n, k, flavor, shape, pairing, top, *lists, perps=perps)


def case_Ia(field, n: int, flavor: str) -> FlagFamily:
    """k = 1 flag: both small members inside one rank-2 isotropic block.
    Unlike ``build_isotropic`` it also builds the exceptional symmetric
    n = 4 flag, whose positivity verdict is what fails."""
    if n < 4:
        raise HypothesisError(f"case Ia needs n >= 4, got n={n}")
    return _isotropic("Ia", field, n, 1, flavor, _CASES["I"])


def build_isotropic(field, n: int, k: int, flavor: str) -> FlagFamily:
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
    # n == 2k + 1, symmetric only: a maximal isotropic flag in odd dimension;
    # replace keeps the members and their inclusion witnesses
    fam = build_isotropic(field, n + 1, k + 1, "symmetric")
    return replace(
        fam,
        requested=(n, k),
        notes=fam.notes
        + (f"odd-dimension case ({n},{k}) verified via the ({n + 1},{k + 1}) flag",),
    )


def build_family(field, n: int, k: int, flavor) -> FlagFamily:
    """The classical family when ``flavor`` is None, else the isotropic one."""
    if flavor is None:
        return build_classical(field, n, k)
    return build_isotropic(field, n, k, flavor)
