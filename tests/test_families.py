from math import comb

import pytest
from graded_strategies import witness_matrix
from hypothesis import given, settings
from hypothesis import strategies as hst

from twistlines import families
from twistlines.fields import QQ, PrimeField
from twistlines.forms import BinaryForm
from twistlines.frames import GradedMatrix
from twistlines.families import (
    ExceptionalCaseError,
    HypothesisError,
    build_classical,
    build_classical_orbit,
    build_E2a2b,
    build_family,
    build_isotropic,
    build_phi_psi,
    case_Ia,
    is_exceptional,
)
from twistlines.sheaves import (
    SplittingType,
    Subbundle,
    cokernel_type,
    is_isotropic,
    perp,
    quotient_type,
    same_subsheaf,
)

FIELDS = (QQ, PrimeField(10007))
T0 = BinaryForm.monomial(QQ, 1, 0)
T1 = BinaryForm.monomial(QQ, 1, 1)


def st(*twists):
    return SplittingType(tuple(twists))


def test_phi_psi_smallest_pair():
    phi, psi = build_phi_psi(QQ, 1, 2)
    assert phi.entries == ((T0,), (T1,))
    assert psi.entries == ((T1, -T0),)


def test_phi_psi_square_case_is_isomorphism():
    phi, psi = build_phi_psi(QQ, 2, 2)
    assert psi.nrows == 0  # empty target, vacuously surjective
    from twistlines.sheaves import cokernel_type

    assert cokernel_type(phi) == st()


def test_phi_psi_evaluation_at_one_zero():
    for (a, b) in [(2, 5), (3, 7)]:
        phi, psi = build_phi_psi(QQ, a, b)
        phi_vals = phi.value_at_infinity()
        for j in range(b):
            for k in range(a):
                expect = comb(b - j - 1, a - j - 1) if j == k and j < a else 0
                assert phi_vals[j][k] == expect, (j, k)
        psi_vals = psi.value_at_infinity()
        sign = (-1) ** a
        for i in range(b - a):
            for j in range(b):
                expect = sign if j == i + a else 0
                assert psi_vals[i][j] == expect


def checked_copy(m):
    """The matrix rebuilt through the checked constructor."""
    return GradedMatrix(m.field, m.src, m.dst, m.entries)


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_phi_psi_pass_the_checked_constructor(field):
    for b in range(1, 15):
        for a in range(1, b + 1):
            for m in build_phi_psi(field, a, b):
                assert checked_copy(m) == m, (a, b)


@pytest.mark.parametrize("field", [*FIELDS, PrimeField(5)], ids=str)
def test_psi_keeps_the_profile_a_fresh_smith_form_gives(field):
    # everywhere surjective by build_phi_psi's lemma, over GF(5) too, where
    # some of psi's binomial coefficients vanish; a twist keeps the profile
    for b in range(1, 15):
        for a in range(1, b + 1):
            psi = build_phi_psi(field, a, b)[1]
            assert psi._profile == (b - a, True), (a, b)
            assert psi.twist(-(b - a))._profile is psi._profile
            assert checked_copy(psi)._rank_profile() == psi._profile, (a, b)


@pytest.mark.parametrize("field", [*FIELDS, PrimeField(5), PrimeField(3)], ids=str)
def test_phi_keeps_the_profile_a_fresh_smith_form_gives(field):
    # build_phi_psi's lemma: phi keeps (a, True) iff the diagonal
    # coefficients C(b-k, a-k) of its top block and its coefficients
    # C(k+b-a-1, k-1) at [0:1] are nonzero in the field; over GF(5) and
    # GF(3) some vanish, and phi keeps no profile, injective or not
    p = field.characteristic
    kept = withheld = 0
    for b in range(1, 15):
        for a in range(1, b + 1):
            phi = build_phi_psi(field, a, b)[0]
            coefficients = [
                comb(b - k, a - k) * comb(k + b - a - 1, k - 1) for k in range(1, a + 1)
            ]
            lemma = all(c % p for c in coefficients) if p else True
            fresh = checked_copy(phi)._rank_profile()
            if lemma:
                kept += 1
                assert phi._profile == (a, True) == fresh, (a, b)
            else:
                withheld += 1
                assert phi._profile is None, (a, b)
                assert phi.rank_everywhere() == fresh, (a, b)
    assert kept and (withheld > 0) == (p in (3, 5)), (kept, withheld)


def test_an_e2a2b_block_composes_its_profile_with_no_smith_form(monkeypatch):
    # phi_plus, inner and psi'^T keep their profiles, so the block's
    # generator has (2a, True) from the product and direct-sum rules
    def refuse(m):
        raise AssertionError("Smith form run")

    monkeypatch.setattr(GradedMatrix, "_rank_profile", refuse)
    for field in FIELDS:
        for a, b in [(1, 2), (1, 5), (2, 4), (3, 8), (4, 11)]:
            for flavor in ("symmetric", "skew"):
                gen = families._e2a2b(field, flavor, a, b)[1]
                assert gen._profile == (2 * a, True), (a, b)
    monkeypatch.undo()
    assert checked_copy(gen)._rank_profile() == (2 * a, True)


def test_phi_psi_rejects_bad_parameters():
    with pytest.raises(HypothesisError):
        build_phi_psi(QQ, 0, 2)
    with pytest.raises(HypothesisError):
        build_phi_psi(QQ, 3, 2)


def test_E2a2b_small_cases():
    beta, e = build_E2a2b(QQ, 1, 2, "symmetric")
    assert e.rank == 2 and e.type == st(-1, -1)
    assert same_subsheaf(perp(e, beta), e)
    assert quotient_type(e, perp(e, beta)).rank == 0

    beta, e = build_E2a2b(QQ, 1, 3, "symmetric")
    assert quotient_type(e, perp(e, beta)) == st(0, 0)

    beta, e = build_E2a2b(QQ, 2, 5, "skew")
    assert e.type.dual() == st(3, 3, 3, 3)
    assert e.type.dual().is_ample


def test_E2a2b_rejects_hypothesis_violation():
    with pytest.raises(HypothesisError):
        build_E2a2b(QQ, 2, 3, "symmetric")
    with pytest.raises(HypothesisError):
        build_E2a2b(QQ, 0, 2, "symmetric")


def test_classical_case_I_types():
    fam = build_classical(QQ, 6, 1)
    e0, e1, e2 = fam.members
    assert fam.case == "classical-I"
    assert e0.rank == 0
    assert quotient_type(e0, e1) == st(-4)  # -(n-2k) with k=1
    assert quotient_type(e1, e2) == st(0)


def test_classical_case_II_types():
    fam = build_classical(QQ, 7, 3)
    low, mid, top = fam.members
    assert fam.case == "classical-II"
    assert quotient_type(low, mid) == st(0)
    assert quotient_type(mid, top) == st(0)
    twisted = low.type.dual().tensor(quotient_type(low, mid))
    assert twisted == st(1, 2)  # {1}^(k-2) plus {n+1-2k}


def test_classical_rejects_exceptional_and_bad_input():
    with pytest.raises(ExceptionalCaseError):
        build_classical(QQ, 2, 1)
    with pytest.raises(HypothesisError):
        build_classical(QQ, 5, 3)


def test_orbit_weight_sum_vanishes():
    for (n, k) in [(4, 1), (5, 2), (6, 2), (7, 3), (8, 4), (9, 3), (16, 8)]:
        datum, _ = build_classical_orbit(QQ, n, k)
        assert datum.weight_sum() == 0
        assert len(datum.weights) == n


def test_orbit_monomial_column():
    datum, fam = build_classical_orbit(QQ, 9, 2)
    mid = fam.members[1]
    tw, forms = mid.gen.column(mid.rank - 1)
    d = 9 - 4  # n - 2k
    assert tw == -d
    middle = forms[2 : 2 + d + 1]
    assert [f for f in middle] == [BinaryForm.monomial(QQ, d, j) for j in range(d + 1)]


def test_orbit_flag_equals_direct_flag():
    # the orbit members come from their own code, so they check the
    # classical top assembled as a direct sum and the members below it
    for field in FIELDS:
        for n in range(3, 13):
            for k in range(1, n // 2 + 1):
                _, orbit = build_classical_orbit(field, n, k)
                direct = build_classical(field, n, k)
                assert all(
                    same_subsheaf(a, b) for a, b in zip(orbit.members, direct.members)
                ), (field, n, k)


def test_orbit_rejects_exceptional():
    with pytest.raises(ExceptionalCaseError):
        build_classical_orbit(QQ, 2, 1)


def test_exceptional_list():
    assert is_exceptional(None, 2, 1)
    assert is_exceptional("skew", 2, 1)
    for pair in [(2, 1), (3, 1), (4, 1), (4, 2)]:
        assert is_exceptional("symmetric", *pair)
    assert not is_exceptional("symmetric", 5, 1)
    assert not is_exceptional("skew", 4, 2)


def test_case_Ib_perp_quotient_types():
    fam = build_isotropic(QQ, 12, 3, "symmetric")
    low, mid, top = fam.members
    assert fam.case == "Ib"
    assert quotient_type(top, perp(top, fam.pairing)) == st(0, 0, 0, 0)
    assert quotient_type(mid, top) == st(-1)
    assert quotient_type(low, mid) == st(-1)
    assert low.type.dual().tensor(quotient_type(low, mid)).is_ample


def test_case_Ib_finite_cover_kicks_in():
    # (l, m) = (1, 4): the big block must be pulled back by degree 2
    fam = build_isotropic(QQ, 8, 3, "symmetric")
    low = fam.members[0]
    assert low.type == st(-2, -2)
    assert low.type.dual().tensor(st(-1)).is_ample


def test_case_IIa_types():
    fam = build_isotropic(QQ, 6, 2, "symmetric")
    e1, e2, e3 = fam.members
    assert e1.type.dual().tensor(quotient_type(e1, e2)) == st(1)
    assert all(is_isotropic(m, fam.pairing) for m in fam.members)


def test_case_IIb_finite_cover_kicks_in():
    # (l, m) = (2, 5): n = 10 or 11, k = 4
    fam = build_isotropic(QQ, 10, 4, "symmetric")
    assert fam.case == "IIb"
    assert fam.members[0].type == st(-2, -2, -2)


def test_case_IVa_quotients():
    fam = build_isotropic(QQ, 4, 2, "skew")
    low, mid, r_top = fam.members
    assert fam.case == "IVa"
    assert quotient_type(mid, r_top) == st(0)
    assert quotient_type(low, mid) == st(0)
    assert same_subsheaf(perp(low, fam.pairing), r_top)
    assert not is_isotropic(r_top, fam.pairing)


def test_case_IVb_members():
    fam = build_isotropic(QQ, 6, 3, "skew")
    low, mid, r_top = fam.members
    assert fam.case == "IVb"
    assert low.type == st(-1, -1)
    assert quotient_type(mid, r_top) == st(0)
    assert quotient_type(low, mid) == st(0)
    assert same_subsheaf(perp(low, fam.pairing), r_top)


def test_odd_symmetric_dimension_reroutes():
    fam = build_isotropic(QQ, 5, 2, "symmetric")
    assert fam.requested == (5, 2)
    assert fam.n == 6 and fam.k == 3
    assert fam.case == "IIIb"
    assert any("odd-dimension" in note for note in fam.notes)


def test_isotropic_rejects_exceptional_and_bad_flavor():
    for (flavor, n, k) in [
        ("symmetric", 2, 1),
        ("symmetric", 3, 1),
        ("symmetric", 4, 1),
        ("symmetric", 4, 2),
        ("skew", 2, 1),
    ]:
        with pytest.raises(ExceptionalCaseError):
            build_isotropic(QQ, n, k, flavor)
    with pytest.raises(HypothesisError):
        build_isotropic(QQ, 7, 2, "skew")
    with pytest.raises(ValueError):
        build_isotropic(QQ, 8, 2, "hermitian")
    with pytest.raises(HypothesisError):
        build_isotropic(QQ, 6, 4, "symmetric")


def test_case_Ia_exists_below_verification_threshold():
    # the n = 4 symmetric flag exists; only the positivity verdict fails
    fam = case_Ia(QQ, 4, "symmetric")
    assert [m.rank for m in fam.members] == [0, 1, 2]
    assert all(is_isotropic(m, fam.pairing) for m in fam.members)


@pytest.mark.parametrize("flavor", ["symmetric", "skew"])
def test_case_Ia_needs_room_for_its_block(flavor):
    # the E(1,2) block alone is 4-dimensional; below that the filler's
    # dimension would be negative
    with pytest.raises(HypothesisError):
        case_Ia(QQ, 3, flavor)


def test_members_isotropic_across_cases():
    cases = [
        (6, 1, "symmetric"),
        (9, 3, "symmetric"),
        (10, 4, "symmetric"),
        (8, 4, "symmetric"),
        (6, 3, "symmetric"),
        (6, 1, "skew"),
        (8, 3, "skew"),
        (10, 4, "skew"),
        (8, 4, "skew"),
        (10, 5, "skew"),
    ]
    for n, k, flavor in cases:
        fam = build_isotropic(QQ, n, k, flavor)
        members = fam.members
        if flavor == "skew" and fam.case.startswith("IV"):
            members = members[:-1]
        for m in members:
            assert is_isotropic(m, fam.pairing), (n, k, flavor)


def test_constructions_work_over_prime_field():
    gf = PrimeField(10007)
    fam = build_isotropic(gf, 8, 3, "skew")
    assert fam.members[0].type == st(-2, -2)
    fam_q = build_isotropic(QQ, 8, 3, "skew")
    assert [m.type for m in fam.members] == [m.type for m in fam_q.members]


# ---------------------------------------------------------------------------
# lower members certified by their witnesses


def test_flag_refuses_a_combination_witness_that_drops_rank():
    # T0 e0 + T0 e1 vanishes at [0:1]; T0 e0 + T1 e1 vanishes nowhere
    top = Subbundle.full(QQ, (0, 0))
    drops, keeps = ((0, (1, 0)), (1, (1, 0))), ((0, (1, 0)), (1, (1, 1)))
    assert families._lower(top.gen, (drops,)) is None
    with pytest.raises(ValueError, match="not a flag witness"):
        families._flag("x", 2, 1, None, (1, 2), None, top, (drops,))
    fam = families._flag("x", 2, 1, None, (1, 2), None, top, (keeps,))
    assert fam.members[0].type == st(-1)
    assert fam.inclusions == ((keeps,),)
    # coker of O(-1) -> O + O is O(0 + 0 - (-1))
    assert families._lower(top.gen, (keeps,))[1] == (1,)
    assert quotient_type(fam.members[0], top) == st(1)


def families_to_24(field):
    """Every non-exceptional family with n <= 24."""
    for flavor in (None, "symmetric", "skew"):
        for n in range(2, 25):
            for k in range(1, n // 2 + 1):
                if not ((flavor == "skew" and n % 2) or is_exceptional(flavor, n, k)):
                    yield build_family(field, n, k, flavor)


def combination_columns(fam):
    """The column ``_lower`` builds for each combination entry of a
    family's witnesses."""
    return [
        families._column(
            fam.field, tuple(outer.gen.src[r] for r, _ in entry), tuple(s for _, s in entry)
        )
        for witness, outer in zip(fam.inclusions, fam.members[1:])
        for entry in witness
        if not isinstance(entry, int)
    ]


def test_witnesses_to_24_are_index_tuples_but_the_combinations():
    # every witness is a tuple; only classical II and case IVa combine
    # generators, one combination each, in the low member
    witnesses = combined = 0
    for fam in families_to_24(QQ):
        for i, witness in enumerate(fam.inclusions):
            assert isinstance(witness, tuple)
            witnesses += 1
            combinations = [entry for entry in witness if not isinstance(entry, int)]
            if combinations:
                combined += 1
                assert len(combinations) == 1
                assert (fam.case, i) in (("classical-II", 0), ("IVa", 0)), (fam.n, fam.k)
    assert (witnesses, combined) == (700, 127)


def test_flag_refuses_a_selection_of_repeated_or_out_of_range_indices(monkeypatch):
    built = []

    class Recording(Subbundle):
        def __init__(self, gen, check=True):
            built.append(gen)
            super().__init__(gen, check)

    top = Subbundle.full(QQ, (0, 0))
    monkeypatch.setattr(families, "Subbundle", Recording)
    for witness in ((0, 0), (0, 2), (-1,), (True,), [0], "0"):
        assert families._lower(top.gen, witness) is None
        with pytest.raises(ValueError, match="not a flag witness"):
            families._flag("x", 2, 1, None, (1, 2), None, top, witness)
    assert built == []


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_every_lower_member_to_24_is_everywhere_injective(field):
    # the witness check stands in for the member's own rank profile
    for fam in families_to_24(field):
        for member in fam.members[:-1]:
            if member.rank:
                Subbundle(member.gen, check=True)


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_blocks_and_members_to_24_pass_the_checked_constructor(field):
    # every E_{2a,2b} generator the n <= 24 families can use, as built and
    # pulled back, and every member and witness they hold
    for flavor in ("symmetric", "skew"):
        for b in range(2, 13):
            for a in range(1, b // 2 + 1):
                gen = families._e2a2b(field, flavor, a, b)[1]
                for d in (1, 2):
                    assert checked_copy(gen.pullback_power(d)) == gen.pullback_power(d)
    for fam in families_to_24(field):
        for m in [member.gen for member in fam.members] + combination_columns(fam):
            assert checked_copy(m) == m, (fam.flavor, fam.n, fam.k)


# ---------------------------------------------------------------------------
# rank profiles built with their matrices


@hst.composite
def monomial_columns(draw):
    """A field, a column's target twists and its monomial specs (d, e, c),
    with coefficients that can vanish in the field."""
    field = draw(hst.sampled_from([QQ, PrimeField(7)]))
    src = draw(hst.integers(-4, 0))
    degrees = draw(hst.lists(hst.integers(0, 4), min_size=1, max_size=4))
    specs = tuple((d, draw(hst.integers(0, d)), draw(hst.integers(-8, 8))) for d in degrees)
    return field, tuple(src + d for d in degrees), specs


@settings(max_examples=200, deadline=None)
@given(monomial_columns())
def test_a_monomial_column_is_profiled_without_a_smith_form(case):
    field, twists, specs = case
    col = families._column(field, twists, specs)
    assert col == checked_copy(col)
    assert col._profile == checked_copy(col)._rank_profile()


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_composed_profiles_to_24_equal_a_fresh_smith_form(field):
    # the top member's profile composes from its blocks', and each
    # combination column's is read from its monomials; each is kept, and is
    # what the whole matrix gives
    for fam in families_to_24(field):
        for m in [fam.members[-1].gen, *combination_columns(fam)]:
            assert m._profile == checked_copy(m)._rank_profile(), (fam.n, fam.k, fam.flavor)


def test_a_witness_is_the_direct_sum_of_its_columns():
    # an index, a combination of two rows, an index; into the identity of
    # the frame, outer @ L is L itself, and the lemma's twists are coker L's
    frame = (0, -1, -2, -3)
    one, zero = BinaryForm.constant(QQ, 1), BinaryForm.zero
    t00, t1 = BinaryForm.monomial(QQ, 2, 0), BinaryForm.monomial(QQ, 1, 1)
    outer = GradedMatrix.identity(QQ, frame)
    combination = ((1, (2, 0)), (2, (1, 1)))
    for witness in ((0, combination, 3), (3, combination, 0), (combination,)):
        gen, twists = families._lower(outer, witness)
        assert gen == witness_matrix(QQ, frame, witness)
        assert SplittingType(twists) == cokernel_type(gen)
    first = [one, zero(QQ, -1), zero(QQ, -2), zero(QQ, -3)]
    second = [zero(QQ, 3), t00, t1, zero(QQ, 0)]
    third = [zero(QQ, 3), zero(QQ, 2), zero(QQ, 1), one]
    expected = GradedMatrix.from_columns(QQ, frame, [(0, first), (-3, second), (-3, third)])
    assert families._lower(outer, (0, combination, 3)) == (expected, (0,))
    refused = [
        (1, combination),  # a row shared with an index
        (((0, (0, 0)), (2, (2, 0))),),  # frames that do not fit
        (((1, (2, 0)), (2, (1, 2))),),  # T1-exponent beyond the degree
        (((1, (2, 0)),),),  # one row
        (((1, (2, 0)), (2, (1, 1)), (3, (0, 0))),),  # three rows
        (((1, (2, 0)), (4, (1, 1))),),  # a row out of range
        (((1, [2, 0]), (2, (1, 1))),),  # a spec that is not a tuple
        ({1: (2, 0), 2: (1, 1)},),  # the old map form
    ]
    for witness in refused:
        assert families._lower(outer, witness) is None, witness
