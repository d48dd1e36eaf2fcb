"""The explicit flag families on the projective line, case by case.

Each builder assembles a nested chain of certified subbundles of a trivial
bundle, together with the pairing the chain must respect.  The matrix data
is exactly the binomial/monomial data the constructions call for; every
member is certified as a locally split subbundle on construction, the top
by its rank profile and a lower member by that check or, when it is a
selection of the generators above it, by the proof in ``_flag`` (the
positivity layer sits in ``verify``).

Each builder assembles only the top member; every lower member is one
list of columns of the member above it (``_flag``).  An entry is either an
index, that generator itself, or a combination of generators; only the
combined column of classical case II and the e1 column of case IVa are
computed.  The same list gives the member's generator matrix and the
family's ``inclusions`` entry for it: the matrix L with
members[i+1].gen @ L == members[i].gen.  These are witnesses, not trusted
data: ``certify`` uses one only after checking that product (for a
selection, column by column), and otherwise finds the inclusion again by
elimination.
"""

from dataclasses import dataclass, replace
from math import comb

from .forms import BinaryForm
from .frames import GradedMatrix, trivial_frame
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
    "case_Ia",
    "case_Ib",
    "case_IIa",
    "case_IIb",
    "case_IIIa",
    "case_IIIb",
    "case_IVa",
    "case_IVb",
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

    ``inclusions`` holds the builder's witness for each adjacent pair: the
    matrix L_i with members[i+1].gen @ L_i == members[i].gen, made from the
    same column list as members[i] itself.  Empty means no witnesses (the
    orbit family, hand-built flags).  ``verify.certify``
    checks each product before it reads a quotient from L_i, and falls back
    to elimination when a witness is missing or fails.
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
    inclusions: tuple = ()  # L_i with members[i+1].gen @ L_i == members[i].gen

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
# binomial matrix pair


def build_phi_psi(field, a: int, b: int):
    """The complementary pair phi: O^a -> O(b-a)^b, psi: O(b-a)^b -> O(b)^(b-a).

    Entries are single monomials with binomial coefficients; psi∘phi = 0,
    phi is everywhere injective and psi everywhere surjective, so the pair
    is an exact splice realizing a cokernel of type {b}^(b-a).
    """
    if a < 1 or a > b:
        raise HypothesisError(f"need 1 <= a <= b, got a={a}, b={b}")
    phi_rows = []
    for j in range(1, b + 1):
        row = []
        for k in range(1, a + 1):
            e1 = b - a + k - j  # T0 exponent
            e2 = j - k  # T1 exponent
            if e1 < 0 or e2 < 0:
                row.append(BinaryForm.zero(field, b - a))
                continue
            c = comb(b - j, a - k) * comb(j - 1, k - 1)
            row.append(BinaryForm.monomial(field, b - a, e2, c) if c else BinaryForm.zero(field, b - a))
        phi_rows.append(row)
    phi = GradedMatrix(field, trivial_frame(a), (b - a,) * b, phi_rows)
    psi_rows = []
    for i in range(1, b - a + 1):
        row = []
        for j in range(1, b + 1):
            e0 = j - i
            if e0 < 0 or e0 > a:
                row.append(BinaryForm.zero(field, a))
                continue
            c = (-1) ** e0 * comb(a, e0)
            row.append(BinaryForm.monomial(field, a, a - e0, c))
        psi_rows.append(row)
    psi = GradedMatrix(field, (b - a,) * b, (b,) * (b - a), psi_rows)
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
    beta, gen = _e2a2b(field, a, b, flavor)
    return beta, Subbundle(gen)


def _e2a2b(field, a: int, b: int, flavor: str):
    """The pairing and the unchecked generator matrix of ``build_E2a2b``.

    The case builders embed this block, or its pullback, in a
    block-diagonal top member.  A block-diagonal matrix is everywhere
    injective exactly when each block is, so ``_member``'s check of the top
    certifies the block too.
    """
    if a < 1:
        raise HypothesisError(f"need a >= 1, got a={a}")
    if b < 2 * a:
        raise HypothesisError(f"need b >= 2a, got a={a}, b={b}")
    beta = Pairing.hyperbolic(field, b, flavor)
    phi, psi = build_phi_psi(field, a, b)
    phi_plus = phi.twist(-(b - a))  # O(-(b-a))^a -> O^b
    psi_dagger = psi.twist(-(b - a)).transpose_dual()  # O(-a)^(b-a) -> O^b
    inner = build_phi_psi(field, a, b - a)[0].twist(-(b - a))  # O(-(b-a))^a -> O(-a)^(b-a)
    phi_minus = psi_dagger @ inner
    n = 2 * b
    cols = []
    for tw, forms in phi_plus.columns():
        cols.append((tw, list(forms) + [BinaryForm.zero(field, -tw)] * b))
    for tw, forms in phi_minus.columns():
        cols.append((tw, [BinaryForm.zero(field, -tw)] * b + list(forms)))
    return beta, GradedMatrix.from_columns(field, trivial_frame(n), cols)


# ---------------------------------------------------------------------------
# column plumbing


def _zero_forms(field, twists):
    """Zero forms of degree -t for the twists t; forms are immutable, so
    each degree gets one shared form."""
    zeros = {t: BinaryForm.zero(field, -t) for t in set(twists)}
    return [zeros[t] for t in twists]


def _member(field, n, chunks) -> Subbundle:
    """Assemble a subbundle of O^n from [(offset, columns), ...] chunks,
    placing each block column (twist, forms) at rows offset, offset+1, ..."""
    cols = []
    for offset, columns in chunks:
        for tw, forms in columns:
            full = _zero_forms(field, (tw,) * n)
            full[offset : offset + len(forms)] = forms
            cols.append((tw, full))
    return Subbundle(GradedMatrix.from_columns(field, trivial_frame(n), cols))


def _flag(case, n, k, flavor, shape, pairing, top, *lower) -> FlagFamily:
    """The family with top member ``top`` and, from the top down, one lower
    member per entry of ``lower``.  Each is a list of columns of the member
    above it: an index i is that member's generator i (the same forms), and
    {i: form, ...} is the combination sum(form * generator i).  The one list
    gives both the member's generator matrix and its witness L, with
    outer.gen @ L == member.gen.

    A member whose witness is a selection (distinct indices only) is not
    checked again: at every point the outer generator matrix has
    independent columns, so any set of its columns is independent there
    too, and the member is everywhere injective because the member above
    it is.  A member with a combination column is checked."""
    field = top.field
    one = BinaryForm.constant(field, 1)
    members, inclusions = [top], []
    for columns in lower:
        outer = members[0].gen
        gen_cols, wit_cols = [], []
        for col in columns:
            if isinstance(col, int):
                tw, forms = outer.column(col)
                col = {col: one}
            else:
                i, form = next(iter(col.items()))
                tw = outer.src[i] - form.degree
                forms = _zero_forms(field, (tw,) * n)
                for i, factor in col.items():
                    for r, f in enumerate(outer.column(i)[1]):
                        if not f.is_zero():
                            forms[r] = forms[r] + factor * f
            gen_cols.append((tw, forms))
            wit = _zero_forms(field, [tw - a for a in outer.src])
            for i, form in col.items():
                wit[i] = form
            wit_cols.append((tw, wit))
        gen = GradedMatrix.from_columns(field, trivial_frame(n), gen_cols)
        witness = GradedMatrix.from_columns(field, outer.src, wit_cols)
        members.insert(0, Subbundle(gen, check=witness.selection() is None))
        inclusions.insert(0, witness)
    return FlagFamily(
        case, n, k, flavor, tuple(members), shape, pairing, inclusions=tuple(inclusions)
    )


def _unit_column(field):
    return (0, [BinaryForm.constant(field, 1)])


def _filler_pairing(field, flavor, dim):
    if flavor == "symmetric":
        return Pairing.diagonal_ones(field, dim)
    if dim % 2:
        raise HypothesisError("skew filler blocks need even dimension")
    return Pairing.hyperbolic(field, dim // 2, "skew")


# ---------------------------------------------------------------------------
# classical Grassmannian


def _classical_blocks(field, n, k):
    """Generator columns for the three direct-sum blocks of the ambient."""
    t0 = BinaryForm.monomial(field, 1, 0)
    t1 = BinaryForm.monomial(field, 1, 1)
    prime_cols = []  # k-1 columns, twists -1, inside coords [0, 2k-2)
    for i in range(k - 1):
        forms = _zero_forms(field, (-1,) * (2 * k - 2))
        forms[2 * i] = t0
        forms[2 * i + 1] = t1
        prime_cols.append((-1, forms))
    d = n - 2 * k
    dprime_col = (
        -d,
        [BinaryForm.monomial(field, d, j) for j in range(d + 1)],
    )  # monomial column over the middle block of size n+1-2k
    unit_col = _unit_column(field)
    return prime_cols, dprime_col, unit_col


def build_classical(field, n: int, k: int) -> FlagFamily:
    """The (k-1, k, k+1)-flag inside O^n for the classical Grassmannian."""
    if n < 2 or k < 1 or 2 * k > n:
        raise HypothesisError(f"need n >= 2 and 1 <= k <= n/2, got ({n},{k})")
    if is_exceptional(None, n, k):
        raise ExceptionalCaseError(f"exceptional case: classical ({n},{k})")
    prime_cols, dprime_col, unit_col = _classical_blocks(field, n, k)
    top = _member(
        field, n, [(0, prime_cols), (2 * k - 2, [dprime_col]), (n - 1, [unit_col])]
    )
    if k == 1:
        case, low = "classical-I", []
    else:
        # mid's generators are prime_cols, then dprime_col; low combines the
        # last prime column times T0^(n-2k) with dprime_col times T1
        scale0 = BinaryForm.monomial(field, n - 2 * k, 0)
        t1 = BinaryForm.monomial(field, 1, 1)
        case, low = "classical-II", [*range(k - 2), {k - 2: scale0, k - 1: t1}]
    return _flag(case, n, k, None, (k - 1, k, k + 1), None, top, range(k), low)


def build_classical_orbit(field, n: int, k: int):
    """Orbit-curve weights and base flag whose sweep is the classical flag.

    The 1-parameter subgroup is diagonal: weights (0,1) on each 2-block of
    the first summand, 1..n+1-2k on the middle summand, and the balancing
    weight on the last line so the total is zero.  Homogenizing t^w per
    column and clearing common powers reproduces the monomial matrices.
    """
    if n < 2 or k < 1 or 2 * k > n:
        raise HypothesisError(f"need n >= 2 and 1 <= k <= n/2, got ({n},{k})")
    if is_exceptional(None, n, k):
        raise ExceptionalCaseError(f"exceptional case: classical ({n},{k})")
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


def _phi36_columns(field, flavor):
    """Images of g, f1, f2 in the 6-dimensional hyperbolic block."""
    t0 = BinaryForm.monomial(field, 1, 0)
    t1 = BinaryForm.monomial(field, 1, 1)
    t00 = BinaryForm.monomial(field, 2, 0)
    t01 = BinaryForm.monomial(field, 2, 1)
    t11 = BinaryForm.monomial(field, 2, 2)
    z1 = BinaryForm.zero(field, 1)
    z2 = BinaryForm.zero(field, 2)
    if flavor == "symmetric":
        g = (-2, [t00, t01, z2, z2, z2, t11])
        f1 = (-1, [z1, z1, t0, z1, -t1, z1])
        f2 = (-1, [z1, z1, z1, t1, -t0, z1])
    else:
        g = (-2, [-t00, t01, z2, z2, -t01, t11])
        f1 = (-1, [z1, t0, z1, t1 + t1, t0, z1])
        f2 = (-1, [z1, t1, t0 + t0, z1, t1, z1])
    return g, f1, f2


def _finite_cover_degree(a: int, b: int) -> int:
    # the dual twists b-a must stay ample after tensoring with O(-1)
    return 1 if b - a >= 2 else 2


def case_Ia(field, n: int, flavor: str) -> FlagFamily:
    """k = 1 flag: both small members inside one rank-2 isotropic block."""
    if n < 4:
        raise HypothesisError(f"case Ia needs n >= 4, got n={n}")
    beta4, e24 = _e2a2b(field, 1, 2, flavor)
    pairing = Pairing.orthogonal_sum(beta4, _filler_pairing(field, flavor, n - 4))
    top = _member(field, n, [(0, e24.columns())])
    return _flag("Ia", n, 1, flavor, (0, 1, 2), pairing, top, [0], [])


def case_Ib(field, n: int, k: int, flavor: str) -> FlagFamily:
    """Odd k > 1, n >= 2k+2: rank-2 block plus a pulled-back big block."""
    l = (k - 1) // 2
    m = n // 2
    if l < 1 or m < 2 * l + 2:
        raise HypothesisError(f"case Ib needs k odd > 1 and n >= 2k+2, got ({n},{k})")
    beta4, e24 = _e2a2b(field, 1, 2, flavor)
    a, b = l, m - 2
    beta_big, e_pre = _e2a2b(field, a, b, flavor)
    d = _finite_cover_degree(a, b)
    odd = n % 2
    pairing = Pairing.orthogonal_sum(beta4, beta_big, Pairing.diagonal_ones(field, odd))
    cols_big = e_pre.pullback_power(d).columns()
    top = _member(field, n, [(0, e24.columns()), (4, cols_big)])
    big = len(cols_big)
    return _flag(
        "Ib", n, k, flavor, (k - 1, k, k + 1), pairing, top,
        [0, *range(2, 2 + big)], range(1, 1 + big),
    )


def case_IIa(field, n: int, flavor: str) -> FlagFamily:
    """k = 2, n >= 6: the rank-3 cubic block carries the whole flag."""
    if n < 6:
        raise HypothesisError(f"case IIa needs n >= 6, got n={n}")
    beta6 = Pairing.hyperbolic(field, 3, flavor)
    pairing = Pairing.orthogonal_sum(beta6, _filler_pairing(field, flavor, n - 6))
    top = _member(field, n, [(0, _phi36_columns(field, flavor))])
    tag = "IIa-sym" if flavor == "symmetric" else "IIa-skew"
    return _flag(tag, n, 2, flavor, (1, 2, 3), pairing, top, [0, 1], [0])


def case_IIb(field, n: int, k: int, flavor: str) -> FlagFamily:
    """Even k > 2, n >= 2k+2: cubic block plus a pulled-back big block."""
    l = k // 2
    m = n // 2
    if l < 2 or m < 2 * l + 1:
        raise HypothesisError(f"case IIb needs k even > 2 and n >= 2k+2, got ({n},{k})")
    beta6 = Pairing.hyperbolic(field, 3, flavor)
    a, b = l - 1, m - 3
    beta_big, e_pre = _e2a2b(field, a, b, flavor)
    d = _finite_cover_degree(a, b)
    odd = n % 2
    pairing = Pairing.orthogonal_sum(beta6, beta_big, Pairing.diagonal_ones(field, odd))
    cols_big = e_pre.pullback_power(d).columns()
    top = _member(field, n, [(0, _phi36_columns(field, flavor)), (6, cols_big)])
    big = len(cols_big)
    return _flag(
        "IIb", n, k, flavor, (k - 1, k, k + 1), pairing, top,
        [0, 1, *range(3, 3 + big)], [0, *range(2, 2 + big)],
    )


def case_IIIa(field, k: int) -> FlagFamily:
    """Symmetric n = 2k, k even >= 4: a (k-2, k)-flag."""
    l = k // 2
    if l < 2:
        raise HypothesisError(f"case IIIa needs even k >= 4, got k={k}")
    n = 4 * l
    beta4, e24 = _e2a2b(field, 1, 2, "symmetric")
    a, b = l - 1, 2 * l - 2
    beta_big, e_pre = _e2a2b(field, a, b, "symmetric")
    pairing = Pairing.orthogonal_sum(beta4, beta_big)
    cols_big = e_pre.pullback_power(_finite_cover_degree(a, b)).columns()
    top = _member(field, n, [(0, e24.columns()), (4, cols_big)])
    return _flag(
        "IIIa", n, k, "symmetric", (k - 2, k), pairing, top, range(2, 2 + len(cols_big))
    )


def case_IIIb(field, k: int) -> FlagFamily:
    """Symmetric n = 2k, k odd >= 3: a (k-2, k)-flag on the cubic block."""
    l = (k - 1) // 2
    if l < 1:
        raise HypothesisError(f"case IIIb needs odd k >= 3, got k={k}")
    n = 4 * l + 2
    pairing = Pairing.hyperbolic(field, 3, "symmetric")
    cols_big = []
    if l > 1:
        a, b = l - 1, 2 * l - 2
        beta_big, e_pre = _e2a2b(field, a, b, "symmetric")
        pairing = Pairing.orthogonal_sum(pairing, beta_big)
        cols_big = e_pre.pullback_power(_finite_cover_degree(a, b)).columns()
    top = _member(field, n, [(0, _phi36_columns(field, "symmetric")), (6, cols_big)])
    return _flag(
        "IIIb", n, k, "symmetric", (k - 2, k), pairing, top,
        [0, *range(3, 3 + len(cols_big))],
    )


def _r3_columns(field):
    t0 = BinaryForm.monomial(field, 1, 0)
    t1 = BinaryForm.monomial(field, 1, 1)
    one = BinaryForm.constant(field, 1)
    z0 = BinaryForm.zero(field, 0)
    z1 = BinaryForm.zero(field, 1)
    col_a = (0, [z0, one, z0, -one])
    col_bp = (-1, [t0, t1, z1, z1])
    col_bm = (-1, [z1, z1, -t1, t0])
    return col_a, col_bp, col_bm


def case_IVa(field, k: int) -> FlagFamily:
    """Skew n = 2k, k even >= 2: flag with the non-isotropic R-member."""
    l = k // 2
    if l < 1:
        raise HypothesisError(f"case IVa needs even k >= 2, got k={k}")
    n = 4 * l
    pairing = Pairing.hyperbolic(field, 2, "skew")
    cols_big = []
    if l > 1:
        a, b = l - 1, 2 * l - 2
        beta_big, e_big = _e2a2b(field, a, b, "skew")
        pairing = Pairing.orthogonal_sum(pairing, beta_big)
        cols_big = e_big.columns()
    # the R-member's generators are col_a, col_bp, col_bm, then the big block
    top = _member(field, n, [(0, _r3_columns(field)), (4, cols_big)])
    t0 = BinaryForm.monomial(field, 1, 0)
    t1 = BinaryForm.monomial(field, 1, 1)
    big = len(cols_big)
    # low's first column is e1 = T0 * col_bp - T1 * col_bm
    return _flag(
        "IVa", n, k, "skew", (k - 1, k, k + 1), pairing, top,
        range(1, 3 + big), [{0: t0, 1: -t1}, *range(2, 2 + big)],
    )


def case_IVb(field, k: int) -> FlagFamily:
    """Skew n = 2k, k odd >= 3: R-member spans a full hyperbolic plane."""
    l = (k - 1) // 2
    if l < 1:
        raise HypothesisError(f"case IVb needs odd k >= 3, got k={k}")
    n = 4 * l + 2
    beta2 = Pairing.hyperbolic(field, 1, "skew")
    a, b = l, 2 * l
    beta_big, e_big = _e2a2b(field, a, b, "skew")
    pairing = Pairing.orthogonal_sum(beta2, beta_big)
    cols_big = e_big.columns()
    unit = _unit_column(field)
    # the R-member's generators are e, x, then the big block
    top = _member(field, n, [(0, [unit]), (1, [unit]), (2, cols_big)])
    big = len(cols_big)
    return _flag(
        "IVb", n, k, "skew", (k - 1, k, k + 1), pairing, top,
        [0, *range(2, 2 + big)], range(1, 1 + big),
    )


def build_isotropic(field, n: int, k: int, flavor: str) -> FlagFamily:
    """Dispatch to the case construction for the isotropic Grassmannian.

    Odd symmetric dimension with n = 2k+1 is rerouted to the equivalent
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
        if k == 1:
            return case_Ia(field, n, flavor)
        if k == 2:
            return case_IIa(field, n, flavor)
        if k % 2:
            return case_Ib(field, n, k, flavor)
        return case_IIb(field, n, k, flavor)
    if n == 2 * k:
        if flavor == "symmetric":
            fam = case_IIIa(field, k) if k % 2 == 0 else case_IIIb(field, k)
        else:
            fam = case_IVa(field, k) if k % 2 == 0 else case_IVb(field, k)
        return fam
    # n == 2k + 1, symmetric only: a maximal isotropic flag in odd dimension;
    # replace keeps the members and their inclusion witnesses
    fam = build_isotropic(field, n + 1, k + 1, "symmetric")
    return replace(
        fam,
        requested=(n, k),
        notes=fam.notes
        + (f"odd-dimension case ({n},{k}) verified via the ({n + 1},{k + 1}) flag",),
    )
