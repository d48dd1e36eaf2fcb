"""The explicit flag families on the projective line, case by case.

Each builder assembles a nested chain of certified subbundles of a trivial
bundle, together with the pairing the chain must respect.  The matrix data
is exactly the binomial/monomial data the constructions call for; every
member is re-certified as a locally split subbundle on construction (the
positivity layer sits in ``verify``).

The builders assemble the members from shared columns, so they also know
how each member sits inside the next one.  A family carries that knowledge
as its ``inclusions``: one matrix L per adjacent pair of members, with
members[i+1].gen @ L == members[i].gen.  Most are column selections; the
two exceptions are the combined column of classical case II and the e1
column of case IVa.  These are witnesses, not trusted data: ``certify``
uses one only after checking that product, and otherwise finds the
inclusion again by elimination.
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
    matrix L_i with members[i+1].gen @ L_i == members[i].gen.  Empty means
    no witnesses (the orbit family, hand-built flags).  ``verify.certify``
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
    gen = GradedMatrix.from_columns(field, trivial_frame(n), cols)
    return beta, Subbundle(gen)


# ---------------------------------------------------------------------------
# column plumbing


def _zero_forms(field, twists):
    return [BinaryForm.zero(field, -t) for t in twists]


def _embed_columns(field, n, offset, columns):
    """Place block columns (twist, forms) into an ambient of rank n."""
    out = []
    for tw, forms in columns:
        full = _zero_forms(field, (tw,) * n)
        for i, f in enumerate(forms):
            full[offset + i] = f
        out.append((tw, full))
    return out


def _member(field, n, chunks) -> Subbundle:
    """Assemble a subbundle of O^n from [(offset, columns), ...] chunks."""
    cols = []
    for offset, columns in chunks:
        cols.extend(_embed_columns(field, n, offset, columns))
    if not cols:
        return Subbundle.zero(field, trivial_frame(n))
    return Subbundle(GradedMatrix.from_columns(field, trivial_frame(n), cols))


def _inclusion(field, outer: Subbundle, columns) -> GradedMatrix:
    """The witness L with outer.gen @ L == inner.gen, given inner's
    generators in terms of outer's: column j of inner is the combination
    columns[j] = {i: form} of outer's generators i, and a plain index i
    stands for {i: 1}, generator i itself."""
    one = BinaryForm.constant(field, 1)
    src = outer.gen.src
    zeros = {}  # degree -> zero form, shared by the entries of that degree
    cols = []
    for col in columns:
        if isinstance(col, int):
            col = {col: one}
        i, form = next(iter(col.items()))
        tw = src[i] - form.degree
        forms = []
        for r, a in enumerate(src):
            if r not in col and a - tw not in zeros:
                zeros[a - tw] = BinaryForm.zero(field, a - tw)
            forms.append(col[r] if r in col else zeros[a - tw])
        cols.append((tw, forms))
    return GradedMatrix.from_columns(field, src, cols)


def _unit_column(field, size, index):
    forms = [BinaryForm.zero(field, 0)] * size
    forms[index] = BinaryForm.constant(field, 1)
    return (0, forms)


def _filler_pairing(field, flavor, dim):
    if dim == 0:
        return None
    if flavor == "symmetric":
        return Pairing.diagonal_ones(field, dim)
    if dim % 2:
        raise HypothesisError("skew filler blocks need even dimension")
    return Pairing.hyperbolic(field, dim // 2, "skew")


def _ortho(*pairings):
    parts = [p for p in pairings if p is not None]
    return Pairing.orthogonal_sum(*parts)


def _combine(field, scalars_and_columns, twist):
    """Linear combination sum(form_i * column_i) as a single (twist, forms)."""
    n = len(scalars_and_columns[0][1][1])
    forms = _zero_forms(field, (twist,) * n)
    for factor, (tw, col) in scalars_and_columns:
        for i, f in enumerate(col):
            if not f.is_zero():
                forms[i] = forms[i] + factor * f
    return (twist, forms)


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
    unit_col = _unit_column(field, 1, 0)
    return prime_cols, dprime_col, unit_col


def build_classical(field, n: int, k: int) -> FlagFamily:
    """The (k-1, k, k+1)-flag inside O^n for the classical Grassmannian."""
    if n < 2 or k < 1 or 2 * k > n:
        raise HypothesisError(f"need n >= 2 and 1 <= k <= n/2, got ({n},{k})")
    if is_exceptional(None, n, k):
        raise ExceptionalCaseError(f"exceptional case: classical ({n},{k})")
    prime_cols, dprime_col, unit_col = _classical_blocks(field, n, k)
    off_prime, off_dprime, off_unit = 0, 2 * k - 2, n - 1
    top = _member(
        field,
        n,
        [(off_prime, prime_cols), (off_dprime, [dprime_col]), (off_unit, [unit_col])],
    )
    mid = _member(field, n, [(off_prime, prime_cols), (off_dprime, [dprime_col])])
    if k == 1:
        low = Subbundle.zero(field, trivial_frame(n))
        low_in_mid = []
        case = "classical-I"
    else:
        t1 = BinaryForm.monomial(field, 1, 1)
        d = n - 2 * k
        scale0 = BinaryForm.monomial(field, d, 0)  # T0^(n-2k)
        last_prime = _embed_columns(field, n, off_prime, [prime_cols[-1]])[0]
        dprime_full = _embed_columns(field, n, off_dprime, [dprime_col])[0]
        combined = _combine(
            field, [(scale0, last_prime), (t1, dprime_full)], -(n + 1 - 2 * k)
        )
        low_chunks = [(off_prime, prime_cols[: k - 2])]
        low = _member(field, n, low_chunks + [(0, [combined])]) if k > 2 else _member(
            field, n, [(0, [combined])]
        )
        # mid's generators are prime_cols, then dprime_col
        low_in_mid = [*range(k - 2), {k - 2: scale0, k - 1: t1}]
        case = "classical-II"
    return FlagFamily(
        case=case,
        n=n,
        k=k,
        flavor=None,
        members=(low, mid, top),
        shape=(k - 1, k, k + 1),
        pairing=None,
        inclusions=(_inclusion(field, mid, low_in_mid), _inclusion(field, top, range(k))),
    )


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


def _pullback_sub(e: Subbundle, d: int) -> Subbundle:
    if d == 1:
        return e
    return Subbundle(e.gen.pullback_power(d))


def _finite_cover_degree(a: int, b: int) -> int:
    # the dual twists b-a must stay ample after tensoring with O(-1)
    return 1 if b - a >= 2 else 2


def case_Ia(field, n: int, flavor: str) -> FlagFamily:
    """k = 1 flag: both small members inside one rank-2 isotropic block."""
    if n < 4:
        raise HypothesisError(f"case Ia needs n >= 4, got n={n}")
    beta4, e24 = build_E2a2b(field, 1, 2, flavor)
    pairing = _ortho(beta4, _filler_pairing(field, flavor, n - 4))
    amb = trivial_frame(n)
    cols = e24.columns()
    e2 = _member(field, n, [(0, cols)])
    e1 = _member(field, n, [(0, cols[:1])])
    e0 = Subbundle.zero(field, amb)
    inclusions = (_inclusion(field, e1, []), _inclusion(field, e2, [0]))
    return FlagFamily(
        "Ia", n, 1, flavor, (e0, e1, e2), (0, 1, 2), pairing, inclusions=inclusions
    )


def case_Ib(field, n: int, k: int, flavor: str) -> FlagFamily:
    """Odd k > 1, n >= 2k+2: rank-2 block plus a pulled-back big block."""
    l = (k - 1) // 2
    m = n // 2
    if l < 1 or m < 2 * l + 2:
        raise HypothesisError(f"case Ib needs k odd > 1 and n >= 2k+2, got ({n},{k})")
    beta4, e24 = build_E2a2b(field, 1, 2, flavor)
    a, b = l, m - 2
    beta_big, e_pre = build_E2a2b(field, a, b, flavor)
    d = _finite_cover_degree(a, b)
    e_big = _pullback_sub(e_pre, d)
    odd = n % 2
    pairing = _ortho(beta4, beta_big, Pairing.one_dim(field) if odd else None)
    cols4 = e24.columns()
    cols_big = e_big.columns()
    top = _member(field, n, [(0, cols4), (4, cols_big)])
    mid = _member(field, n, [(0, cols4[:1]), (4, cols_big)])
    low = _member(field, n, [(4, cols_big)])
    big = len(cols_big)
    inclusions = (
        _inclusion(field, mid, range(1, 1 + big)),
        _inclusion(field, top, [0, *range(2, 2 + big)]),
    )
    return FlagFamily(
        "Ib", n, k, flavor, (low, mid, top), (k - 1, k, k + 1), pairing, inclusions=inclusions
    )


def case_IIa(field, n: int, flavor: str) -> FlagFamily:
    """k = 2, n >= 6: the rank-3 cubic block carries the whole flag."""
    if n < 6:
        raise HypothesisError(f"case IIa needs n >= 6, got n={n}")
    beta6 = Pairing.hyperbolic(field, 3, flavor)
    g, f1, f2 = _phi36_columns(field, flavor)
    pairing = _ortho(beta6, _filler_pairing(field, flavor, n - 6))
    e3 = _member(field, n, [(0, [g, f1, f2])])
    e2 = _member(field, n, [(0, [g, f1])])
    e1 = _member(field, n, [(0, [g])])
    tag = "IIa-sym" if flavor == "symmetric" else "IIa-skew"
    inclusions = (_inclusion(field, e2, [0]), _inclusion(field, e3, [0, 1]))
    return FlagFamily(
        tag, n, 2, flavor, (e1, e2, e3), (1, 2, 3), pairing, inclusions=inclusions
    )


def case_IIb(field, n: int, k: int, flavor: str) -> FlagFamily:
    """Even k > 2, n >= 2k+2: cubic block plus a pulled-back big block."""
    l = k // 2
    m = n // 2
    if l < 2 or m < 2 * l + 1:
        raise HypothesisError(f"case IIb needs k even > 2 and n >= 2k+2, got ({n},{k})")
    beta6 = Pairing.hyperbolic(field, 3, flavor)
    g, f1, f2 = _phi36_columns(field, flavor)
    a, b = l - 1, m - 3
    beta_big, e_pre = build_E2a2b(field, a, b, flavor)
    d = _finite_cover_degree(a, b)
    e_big = _pullback_sub(e_pre, d)
    odd = n % 2
    pairing = _ortho(beta6, beta_big, Pairing.one_dim(field) if odd else None)
    cols_big = e_big.columns()
    top = _member(field, n, [(0, [g, f1, f2]), (6, cols_big)])
    mid = _member(field, n, [(0, [g, f1]), (6, cols_big)])
    low = _member(field, n, [(0, [g]), (6, cols_big)])
    big = len(cols_big)
    inclusions = (
        _inclusion(field, mid, [0, *range(2, 2 + big)]),
        _inclusion(field, top, [0, 1, *range(3, 3 + big)]),
    )
    return FlagFamily(
        "IIb", n, k, flavor, (low, mid, top), (k - 1, k, k + 1), pairing, inclusions=inclusions
    )


def case_IIIa(field, k: int) -> FlagFamily:
    """Symmetric n = 2k, k even >= 4: a (k-2, k)-flag."""
    l = k // 2
    if l < 2:
        raise HypothesisError(f"case IIIa needs even k >= 4, got k={k}")
    n = 4 * l
    beta4, e24 = build_E2a2b(field, 1, 2, "symmetric")
    a, b = l - 1, 2 * l - 2
    beta_big, e_pre = build_E2a2b(field, a, b, "symmetric")
    e_big = _pullback_sub(e_pre, _finite_cover_degree(a, b))
    pairing = _ortho(beta4, beta_big)
    cols_big = e_big.columns()
    top = _member(field, n, [(0, e24.columns()), (4, cols_big)])
    low = _member(field, n, [(4, cols_big)])
    inclusions = (_inclusion(field, top, range(2, 2 + len(cols_big))),)
    return FlagFamily(
        "IIIa", n, k, "symmetric", (low, top), (k - 2, k), pairing, inclusions=inclusions
    )


def case_IIIb(field, k: int) -> FlagFamily:
    """Symmetric n = 2k, k odd >= 3: a (k-2, k)-flag on the cubic block."""
    l = (k - 1) // 2
    if l < 1:
        raise HypothesisError(f"case IIIb needs odd k >= 3, got k={k}")
    n = 4 * l + 2
    beta6 = Pairing.hyperbolic(field, 3, "symmetric")
    g, f1, f2 = _phi36_columns(field, "symmetric")
    if l == 1:
        pairing = beta6
        cols_big = []
        top = _member(field, n, [(0, [g, f1, f2])])
        low = _member(field, n, [(0, [g])])
    else:
        a, b = l - 1, 2 * l - 2
        beta_big, e_pre = build_E2a2b(field, a, b, "symmetric")
        e_big = _pullback_sub(e_pre, _finite_cover_degree(a, b))
        pairing = _ortho(beta6, beta_big)
        cols_big = e_big.columns()
        top = _member(field, n, [(0, [g, f1, f2]), (6, cols_big)])
        low = _member(field, n, [(0, [g]), (6, cols_big)])
    inclusions = (_inclusion(field, top, [0, *range(3, 3 + len(cols_big))]),)
    return FlagFamily(
        "IIIb", n, k, "symmetric", (low, top), (k - 2, k), pairing, inclusions=inclusions
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
    beta4 = Pairing.hyperbolic(field, 2, "skew")
    col_a, col_bp, col_bm = _r3_columns(field)
    t0 = BinaryForm.monomial(field, 1, 0)
    t1 = BinaryForm.monomial(field, 1, 1)
    col_e1 = _combine(field, [(t0, col_bp), (-t1, col_bm)], -2)
    if l == 1:
        pairing = beta4
        cols_big = []
    else:
        a, b = l - 1, 2 * l - 2
        beta_big, e_big = build_E2a2b(field, a, b, "skew")
        pairing = _ortho(beta4, beta_big)
        cols_big = e_big.columns()
    chunks_extra = [(4, cols_big)]
    r_top = _member(field, n, [(0, [col_a, col_bp, col_bm])] + chunks_extra)
    mid = _member(field, n, [(0, [col_bp, col_bm])] + chunks_extra)
    low = _member(field, n, [(0, [col_e1])] + chunks_extra)
    big = len(cols_big)
    inclusions = (
        _inclusion(field, mid, [{0: t0, 1: -t1}, *range(2, 2 + big)]),
        _inclusion(field, r_top, range(1, 3 + big)),
    )
    return FlagFamily(
        "IVa", n, k, "skew", (low, mid, r_top), (k - 1, k, k + 1), pairing, inclusions=inclusions
    )


def case_IVb(field, k: int) -> FlagFamily:
    """Skew n = 2k, k odd >= 3: R-member spans a full hyperbolic plane."""
    l = (k - 1) // 2
    if l < 1:
        raise HypothesisError(f"case IVb needs odd k >= 3, got k={k}")
    n = 4 * l + 2
    beta2 = Pairing.hyperbolic(field, 1, "skew")
    a, b = l, 2 * l
    beta_big, e_big = build_E2a2b(field, a, b, "skew")
    pairing = _ortho(beta2, beta_big)
    cols_big = e_big.columns()
    e_unit = _unit_column(field, 1, 0)
    x_unit = _unit_column(field, 1, 0)
    r_top = _member(field, n, [(0, [e_unit]), (1, [x_unit]), (2, cols_big)])
    mid = _member(field, n, [(0, [e_unit]), (2, cols_big)])
    low = _member(field, n, [(2, cols_big)])
    big = len(cols_big)
    inclusions = (
        _inclusion(field, mid, range(1, 1 + big)),
        _inclusion(field, r_top, [0, *range(2, 2 + big)]),
    )
    return FlagFamily(
        "IVb", n, k, "skew", (low, mid, r_top), (k - 1, k, k + 1), pairing, inclusions=inclusions
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
