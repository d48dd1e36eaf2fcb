import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as hst

from graded_strategies import ALL_FIELDS, FRACTION_COEFFS, assert_canonical, graded_matrices
from twistlines import linalg, sheaves
from twistlines.fields import QQ, PrimeField
from twistlines.forms import BinaryForm, random_form
from twistlines.frames import GradedMatrix, trivial_frame
from twistlines.families import build_E2a2b, build_isotropic, build_phi_psi
from twistlines.sheaves import (
    Column,
    Pairing,
    SplittingType,
    Subbundle,
    cokernel_type,
    is_isotropic,
    kernel_free,
    lift_through,
    pairing_map,
    perp,
    quotient_type,
    same_subsheaf,
    sub_lift,
)

T0 = BinaryForm.monomial(QQ, 1, 0)
T1 = BinaryForm.monomial(QQ, 1, 1)


def st(*twists):
    return SplittingType(tuple(twists))


# ---------------------------------------------------------------------------
# independent oracle: reconstruct a kernel's splitting type from nullity
# dimensions alone (kernel modules are saturated, so the Hilbert function
# of the kernel module is the h^0 function of the kernel sheaf)


def oracle_kernel_type(m, lo=-8, hi=10):
    dims = {}
    for n in range(lo, hi + 1):
        piece = m.degree_piece(n)
        dims[n] = len(
            linalg.nullspace(QQ, [list(r) for r in piece.matrix], piece.ncols)
        )
    twists = []
    for n in range(lo + 2, hi + 1):
        gens_at_n = dims[n] - 2 * dims[n - 1] + dims[n - 2]
        assert gens_at_n >= 0
        twists.extend([-n] * gens_at_n)
    return SplittingType(tuple(twists))


def test_splitting_type_basics():
    t = st(-1, 2, 0)
    assert t.twists == (2, 0, -1)
    assert t.rank == 3 and t.degree == 1
    assert t.dual() == st(-2, 0, 1)
    assert st(0).tensor(st(1, 2)) == st(1, 2)
    assert st(-1, -1).tensor(st(1)) == st(0, 0)
    assert st(-1, -1).wedge2().dual() == st(2)
    with pytest.raises(ValueError):
        st(1, 2, 3).wedge2()


def test_positivity_records():
    def record(t):
        return (t.is_ample, t.is_globally_generated, t.degree, t.rank)

    assert record(st(1, 1)) == (True, True, 2, 2)
    assert record(st(0)) == (False, True, 0, 1)
    empty = st()
    assert empty.is_ample and empty.rank == 0


def test_pairing_validation():
    Pairing.hyperbolic(QQ, 2, "symmetric")
    Pairing.hyperbolic(QQ, 2, "skew")
    with pytest.raises(ValueError):
        Pairing("skew", ((QQ.one,),), QQ)  # odd dimension
    with pytest.raises(ValueError):
        Pairing("symmetric", ((QQ.zero, QQ.one), (QQ.neg(QQ.one), QQ.zero)), QQ)
    with pytest.raises(ValueError):
        Pairing("symmetric", ((QQ.zero, QQ.zero), (QQ.zero, QQ.one)), QQ)  # degenerate


def test_a_pairing_refuses_a_malformed_gram_matrix_or_sum():
    for flavor, rows, message in [
        ("symmetric", ((1, 0),), "must be square"),
        ("hermitian", ((1,),), "unknown pairing flavor"),
        ("skew", ((0,),), "needs even dimension"),  # skew, but of odd dimension
    ]:
        with pytest.raises(ValueError, match=message):
            Pairing(flavor, rows, QQ)
    plane = Pairing.hyperbolic(QQ, 1, "symmetric")
    for summands, message in [
        ((), "empty orthogonal sum"),
        ((Pairing.diagonal_ones(QQ, 0),), "empty orthogonal sum"),
        ((plane, Pairing.hyperbolic(QQ, 1, "skew")), "one flavor over one field"),
        ((plane, Pairing.hyperbolic(PrimeField(7), 1, "symmetric")), "one flavor over one field"),
    ]:
        with pytest.raises(ValueError, match=message):
            Pairing.orthogonal_sum(*summands)


@pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=["QQ", "GF7"])
@pytest.mark.parametrize("flavor", ["symmetric", "skew"])
def test_assembled_pairings_equal_their_validated_construction(field, flavor):
    # hyperbolic and identity blocks and their sums are built without
    # validation; each must equal the pairing that the validating
    # constructor makes of its Gram matrix
    parts = [Pairing.hyperbolic(field, 2, flavor), Pairing.hyperbolic(field, 1, flavor)]
    if flavor == "symmetric":
        parts += [Pairing.diagonal_ones(field, 3), Pairing.diagonal_ones(field, 1)]
    total = Pairing.orthogonal_sum(*parts)
    for p in parts + [total]:
        assert p == Pairing(p.flavor, p.matrix, field)
    # the same Gram matrices made degenerate or asymmetric still raise
    degenerate = [list(row) for row in total.matrix]
    degenerate[0][2] = degenerate[2][0] = field.zero
    with pytest.raises(ValueError, match="degenerate"):
        Pairing(flavor, degenerate, field)
    asymmetric = [list(row) for row in total.matrix]
    asymmetric[0][1] = field.one
    with pytest.raises(ValueError, match=f"not {flavor}"):
        Pairing(flavor, asymmetric, field)
    with pytest.raises(ValueError, match="unknown pairing flavor"):
        Pairing.hyperbolic(field, 1, "hermitian")


def test_a_splitting_type_is_a_value_of_its_own_class():
    # equal and hashed alike however its twists are ordered, never equal to
    # the bare tuple of them, shown as a multiset, and immutable
    low, high = st(1, 3), st(3, 1)
    assert low == high and hash(low) == hash(high) and low.twists == (3, 1)
    assert low != (3, 1) and (3, 1) != low and low != st(3, 1, 0)
    assert repr(low) == "{3, 1}" and repr(st()) == "{}"
    with pytest.raises(AttributeError):
        low.twists = (1,)
    with pytest.raises(AttributeError):
        del low.twists
    assert low.twists == (3, 1)


def test_a_pairing_compares_and_hashes_by_its_fields_alone():
    # a pairing that keeps its hash and its Gram matrix equals one that
    # keeps neither; each of flavor, Gram matrix and field is compared
    for field, other in ((QQ, PrimeField(5)), (PrimeField(7), QQ)):
        kept, plain = (Pairing.hyperbolic(field, 2, "symmetric") for _ in range(2))
        hash(kept), kept._gram()
        assert {"_hash", "_gram_matrix"} <= set(kept.__dict__) - set(plain.__dict__)
        assert kept == plain and hash(kept) == hash(plain)
        assert kept != Pairing._valid("skew", kept.matrix, field)
        assert kept != Pairing.diagonal_ones(field, 4)
        assert kept != Pairing.hyperbolic(other, 2, "symmetric")
        assert kept != kept.matrix
        for name in ("flavor", "matrix", "field"):
            with pytest.raises(AttributeError):
                setattr(kept, name, getattr(plain, name))


def test_a_pairing_keeps_its_hash():
    # the hash is computed once and kept, equal for equal pairings however
    # built, and the same in a pickled copy
    for field in (QQ, PrimeField(7)):
        built = Pairing.hyperbolic(field, 3, "skew")
        assert "_hash" not in built.__dict__
        kept = hash(built)
        assert built.__dict__["_hash"] == kept == hash(built)
        checked = Pairing("skew", built.matrix, field)
        copy = pickle.loads(pickle.dumps(built))
        for other in (checked, copy, Pairing.orthogonal_sum(built)):
            assert other == built and hash(other) == kept
        assert len({built: 1, checked: 2, copy: 3}) == 1
        assert built != Pairing.diagonal_ones(field, 6)


def test_a_pairing_keeps_its_gram_matrix_out_of_equality_and_hash():
    # the constant Gram matrix pairing_map multiplies by is built once and
    # kept, and a pairing that keeps it compares, hashes and pickles as one
    # that does not
    for field in (QQ, PrimeField(7)):
        built, plain = Pairing.hyperbolic(field, 3, "skew"), Pairing.hyperbolic(field, 3, "skew")
        gram = built._gram()
        assert built._gram() is gram and "_gram_matrix" not in plain.__dict__
        assert gram.src == gram.dst == (0,) * 6
        assert gram.value_at_infinity() == [list(row) for row in built.matrix]
        assert built == plain and hash(built) == hash(plain)
        copy = pickle.loads(pickle.dumps(built))
        assert copy == plain and hash(copy) == hash(plain) and copy._gram() == gram
        assert len({built: 1, plain: 2, copy: 3}) == 1


def test_an_orthogonal_sum_keeps_its_summands_out_of_equality_and_hash():
    # an empty summand adds nothing, and the sum compares, hashes and
    # pickles as the checked pairing of its Gram matrix
    for field in (QQ, PrimeField(7)):
        plane, ones = Pairing.hyperbolic(field, 1, "symmetric"), Pairing.diagonal_ones(field, 2)
        total = Pairing.orthogonal_sum(plane, Pairing.diagonal_ones(field, 0), ones)
        assert total.dim == 4 and total == Pairing.orthogonal_sum(plane, ones)
        checked = Pairing("symmetric", total.matrix, field)
        assert checked == total and hash(checked) == hash(total)
        copy = pickle.loads(pickle.dumps(total))
        assert copy == total and hash(copy) == hash(total)


def test_pairing_entries_are_reduced_into_the_field():
    gf7 = PrimeField(7)
    assert Pairing("skew", ((0, 1), (-1, 0)), gf7).matrix == ((0, 1), (6, 0))
    assert Pairing("symmetric", ((1, 3), (10, 1)), gf7).matrix == ((1, 3), (3, 1))
    assert Pairing("symmetric", ((8, 0), (0, 1)), gf7).matrix == ((1, 0), (0, 1))
    assert Pairing("symmetric", ((Fraction(2, 2), 0), (0, 1)), QQ).matrix == ((1, 0), (0, 1))


def test_kernel_of_zero_map():
    z = GradedMatrix.zero(QQ, (0, 0), (1,))
    ker = kernel_free(z)
    assert ker.type == st(0, 0)


def test_kernel_of_psi12():
    _, psi = build_phi_psi(QQ, 1, 2)  # O(1)^2 -> O(2)
    ker = kernel_free(psi)
    assert ker.type == st(0)
    assert lift_through(ker.gen, Column(0, (T0, T1))) is not None
    assert ker.type == oracle_kernel_type(psi)


def test_kernel_generator_count_mismatch_raises(monkeypatch):
    # drop the new generator's pivot from the scan's first selection: the
    # Hilbert-function stopping rule still fires, and the count check must
    # catch the loss (a plain assert would vanish under python -O)
    _, psi = build_phi_psi(QQ, 1, 2)
    psi.rank_everywhere()  # kept on psi, so only the scan sees the patch
    original = linalg.pivot_columns
    dropped = []

    def lossy(field, rows, ncols):
        pivots = original(field, rows, ncols)
        if not dropped:
            dropped.append(pivots.pop())
        return pivots

    monkeypatch.setattr(linalg, "pivot_columns", lossy)
    with pytest.raises(RuntimeError, match="generators but the generic rank implies"):
        kernel_free(psi)
    assert dropped


def scan_matrices():
    beta, e = build_E2a2b(QQ, 1, 4, "symmetric")
    # (T0, T1, 0): O^2 + O(-3) -> O(1) has kernel generators in degrees 1
    # and 3 and none in degree 2
    mixed = GradedMatrix.from_columns(
        QQ, (1,), [(0, [T0]), (0, [T1]), (-3, [BinaryForm.zero(QQ, 4)])]
    )
    return [build_phi_psi(QQ, 1, 2)[1], build_phi_psi(QQ, 2, 5)[1], pairing_map(e, beta), mixed]


@pytest.mark.parametrize("change", ["repeat", "drop"])
@pytest.mark.parametrize("index", range(4))
def test_kernel_scan_with_a_wrong_nullity_in_one_degree_raises(monkeypatch, index, change):
    # one nullspace vector repeated or dropped in a single degree: a repeat
    # gives one more generator than pivots there; a drop gives a negative
    # count, a count mismatch later, or generators dependent at [1:0] (for
    # the mixed matrix, T0 v and T1 v in place of the degree-1 generator v)
    m = scan_matrices()[index]
    m.rank_everywhere()  # kept on m, so only the scan sees the patch
    original = linalg.nullspace
    nonempty = [n for n in range(-max(m.src), 12) if nullity(m, n)]
    degrees = [n for n in nonempty if n <= max(-e for e in kernel_free(m).type.twists)]
    assert degrees
    for bad in degrees:

        def wrong(f, rows, ncols, bad=bad):
            null = original(f, rows, ncols)
            if ncols != m.degree_piece(bad).ncols:
                return null
            return null + null[:1] if change == "repeat" else null[1:]

        monkeypatch.setattr(linalg, "nullspace", wrong)
        with pytest.raises(RuntimeError, match="generator"):
            kernel_free(m)
        monkeypatch.setattr(linalg, "nullspace", original)


def test_perp_makes_no_checked_subbundle(monkeypatch):
    # kernel_free returns a free basis of a saturated kernel, which is
    # everywhere injective by its proof, so no rank_everywhere re-check
    checked = []
    original = Subbundle.__init__

    def recording(self, gen, check=True):
        if check and gen.ncols:
            checked.append(gen)
        original(self, gen, check)

    beta, e = build_E2a2b(QQ, 1, 4, "symmetric")
    monkeypatch.setattr(Subbundle, "__init__", recording)
    p = perp(e, beta)
    monkeypatch.setattr(Subbundle, "__init__", original)
    assert p.type == st(*[-1] * 6) and not checked
    assert p.gen.rank_everywhere() == (p.rank, True)


def test_kernel_annihilator_degrees():
    # annihilator of the image of phi_(1,2) inside the dual trivial bundle
    phi, _ = build_phi_psi(QQ, 1, 2)
    ann = kernel_free(phi.twist(-1).transpose_dual())
    assert ann.type == st(-1)
    assert ann.type == oracle_kernel_type(phi.twist(-1).transpose_dual())


def test_cokernel_examples():
    col = GradedMatrix.from_columns(QQ, trivial_frame(2), [(-1, [T0, T1])])
    assert cokernel_type(col) == st(1)
    phi, _ = build_phi_psi(QQ, 2, 5)
    assert cokernel_type(phi) == st(5, 5, 5)
    assert cokernel_type(GradedMatrix.identity(QQ, trivial_frame(3))) == st()


def test_cokernel_dimension_oracle():
    # h^0 count: sections of O^2 modulo (T0, T1)-multiples per degree
    col = GradedMatrix.from_columns(QQ, trivial_frame(2), [(-1, [T0, T1])])
    for n in range(0, 5):
        piece = col.degree_piece(n)
        rk = linalg.rank(QQ, [list(r) for r in piece.matrix], piece.ncols)
        coker_dim = piece.nrows - rk
        assert coker_dim == n + 2  # h^0 of O(1) twisted by n


def test_cokernel_requires_constant_rank():
    m = GradedMatrix.from_columns(
        QQ,
        trivial_frame(2),
        [(-2, [BinaryForm.monomial(QQ, 2, 0), BinaryForm.monomial(QQ, 2, 1)])],
    )
    with pytest.raises(ValueError):
        cokernel_type(m)


# ---------------------------------------------------------------------------
# the rank-only cokernel type against the generator scan it replaced: the
# dual of the kernel of the transposed dual


def generator_cokernel_type(m):
    return kernel_free(m.transpose_dual()).type.dual()


@settings(max_examples=100, deadline=None)
@given(graded_matrices(fields=ALL_FIELDS))
def test_cokernel_type_matches_the_generator_scan(m):
    # the kernel generators of a random m are everywhere injective, and
    # their transposed dual is everywhere surjective: both have constant rank
    gen = kernel_free(m).gen
    cases = [gen, gen.transpose_dual()] if gen.ncols else []
    if m.rank_everywhere().constant:
        cases.append(m)
    for mat in cases:
        assert cokernel_type(mat) == generator_cokernel_type(mat)


@pytest.mark.parametrize("off_by", [1, -1])
def test_cokernel_scan_with_a_wrong_rank_raises(monkeypatch, off_by):
    # a rank off by one in every degree with a nonempty nullspace (one
    # nullspace vector dropped, or one repeated) shifts a generator to the
    # next degree or leaves a negative count; the degree invariant or the
    # count check catches it.  The scan reads each nullity from the rank,
    # that is from the number of pivot columns.
    col = GradedMatrix.from_columns(QQ, trivial_frame(2), [(-1, [T0, T1])])
    phi, _ = build_phi_psi(QQ, 2, 5)
    for m in (col, phi):
        m.rank_everywhere()  # kept on m, so only the scan sees the patch
    original = linalg.pivot_columns

    def wrong(f, rows, ncols):
        pivots = original(f, rows, ncols)
        if len(pivots) == ncols:  # an empty nullspace
            return pivots
        assert pivots  # so a rank one smaller exists
        if off_by > 0:
            return sorted(pivots + [min(set(range(ncols)) - set(pivots))])
        return pivots[1:]

    monkeypatch.setattr(linalg, "pivot_columns", wrong)
    for m in (col, phi):
        with pytest.raises(RuntimeError, match="degree|negative generator count"):
            cokernel_type(m)


def test_cokernel_scan_guard_fires(monkeypatch):
    # the cokernel of phi_(2,5) is {5, 5, 5}, so the scan of its transpose
    # runs from degree 3 to 5; a bound below the start stops it at once
    phi, _ = build_phi_psi(QQ, 2, 5)
    monkeypatch.setattr(sheaves, "_generator_degree_bound", lambda m, r, c: -10)
    with pytest.raises(RuntimeError, match="exceeded its degree bound"):
        cokernel_type(phi)
    # the kernel scan is the same loop: ker(psi_(1,2)) = O starts at degree -1
    _, psi = build_phi_psi(QQ, 1, 2)
    with pytest.raises(RuntimeError, match="exceeded its degree bound"):
        kernel_free(psi)


def test_subbundle_certification():
    good = GradedMatrix.from_columns(QQ, trivial_frame(2), [(-1, [T0, T1])])
    assert Subbundle(good).type == st(-1)
    bad = GradedMatrix.from_columns(
        QQ,
        trivial_frame(2),
        [(-2, [BinaryForm.monomial(QQ, 2, 0), BinaryForm.monomial(QQ, 2, 1)])],
    )
    with pytest.raises(ValueError):
        Subbundle(bad)


def test_lift_of_generator_is_unit_vector():
    beta, e = build_E2a2b(QQ, 1, 2, "symmetric")
    col = Column(*e.gen.column(0))
    lifted = lift_through(e.gen, col)
    assert lifted is not None
    one = BinaryForm.constant(QQ, 1)
    assert lifted.forms[0] == one and lifted.forms[1].is_zero()


def test_lift_failure_outside_image():
    beta, e = build_E2a2b(QQ, 1, 2, "symmetric")
    const = Column(
        0,
        (
            BinaryForm.constant(QQ, 1),
            BinaryForm.zero(QQ, 0),
            BinaryForm.zero(QQ, 0),
            BinaryForm.zero(QQ, 0),
        ),
    )
    assert lift_through(e.gen, const) is None


def test_lift_in_rank2_skew_block():
    fam = build_isotropic(QQ, 4, 2, "skew")
    low, mid, _ = fam.members
    lift = lift_through(mid.gen, Column(*low.gen.column(0)))
    assert lift is not None
    assert lift.forms[0] == T0
    assert lift.forms[1] == -T1


def test_quotients():
    fam = build_isotropic(QQ, 6, 2, "symmetric")
    e1, e2, e3 = fam.members
    assert quotient_type(e2, e3) == st(-1)
    assert quotient_type(Subbundle(GradedMatrix.zero(QQ, (), e3.ambient)), e3) == e3.type
    beta, e = build_E2a2b(QQ, 1, 3, "symmetric")
    assert quotient_type(e, perp(e, beta)) == st(0, 0)


def test_quotient_rejects_non_nested():
    beta, e = build_E2a2b(QQ, 1, 2, "symmetric")
    other = Subbundle(
        GradedMatrix.from_columns(
            QQ,
            trivial_frame(4),
            [(0, [BinaryForm.constant(QQ, 1)] + [BinaryForm.zero(QQ, 0)] * 3)],
        )
    )
    with pytest.raises(ValueError, match="not contained"):
        quotient_type(other, e)


def test_perp_examples():
    beta, e = build_E2a2b(QQ, 1, 2, "symmetric")
    zero = Subbundle(GradedMatrix.zero(QQ, (), e.ambient))
    assert perp(zero, beta).type == st(0, 0, 0, 0)
    assert same_subsheaf(perp(e, beta), e)  # self-annihilating
    fam = build_isotropic(QQ, 4, 2, "skew")
    low, mid, r_top = fam.members
    assert same_subsheaf(perp(low, fam.pairing), r_top)


def test_perp_involution():
    for flavor in ("symmetric", "skew"):
        beta, e = build_E2a2b(QQ, 1, 3, flavor)
        assert same_subsheaf(perp(perp(e, beta), beta), e)


def test_same_subsheaf_needs_one_ambient_one_rank_and_mutual_members():
    def span(n, *units):
        cols = [(0, [BinaryForm.constant(QQ, int(i == j)) for i in range(n)]) for j in units]
        return Subbundle(GradedMatrix.from_columns(QQ, trivial_frame(n), cols))

    assert same_subsheaf(span(4, 0, 1), span(4, 1, 0))
    assert not same_subsheaf(span(4, 0), span(3, 0))  # different ambients
    assert not same_subsheaf(span(4, 0), span(4, 0, 1))  # different ranks
    assert not same_subsheaf(span(4, 0), span(4, 1))  # neither holds the other


def test_isotropic_examples():
    beta, e = build_E2a2b(QQ, 1, 2, "symmetric")
    assert is_isotropic(Subbundle(GradedMatrix.zero(QQ, (), e.ambient)), beta)
    assert is_isotropic(e, beta)
    fam = build_isotropic(QQ, 6, 2, "symmetric")
    assert is_isotropic(fam.members[2], fam.pairing)
    # e_1 + x_1 in the 2-dimensional symmetric hyperbolic plane pairs to 2
    plane = Pairing.hyperbolic(QQ, 1, "symmetric")
    one = BinaryForm.constant(QQ, 1)
    diag = Subbundle(
        GradedMatrix.from_columns(QQ, trivial_frame(2), [(0, [one, one])])
    )
    assert not is_isotropic(diag, plane)


def test_isotropic_rank_bound():
    for flavor in ("symmetric", "skew"):
        for (a, b) in [(1, 2), (1, 3), (2, 4), (2, 5)]:
            beta, e = build_E2a2b(QQ, a, b, flavor)
            assert is_isotropic(e, beta)
            assert 2 * e.rank <= beta.dim


def test_image_type_matches_grothendieck_reconstruction():
    # for everywhere-injective generators the nullity-based reconstruction
    # of the kernel of the dual map recovers the cokernel type, and degrees
    # add up ambient = sub + quotient
    rng = random.Random(20260809)
    done = 0
    while done < 10:
        twists = tuple(rng.randint(-3, 0) for _ in range(2))
        cols = []
        for tw in twists:
            cols.append(
                (tw, [random_form(QQ, -tw, rng, span=3) for _ in range(4)])
            )
        m = GradedMatrix.from_columns(QQ, trivial_frame(4), cols)
        if m.rank_everywhere() != (2, True):
            continue
        e = Subbundle(m)
        q = cokernel_type(m)
        assert e.type.degree + q.degree == 0
        assert q.dual() == oracle_kernel_type(m.transpose_dual())
        done += 1


def test_lift_rejects_malformed_columns():
    beta, e = build_E2a2b(QQ, 1, 2, "symmetric")
    with pytest.raises(ValueError, match="column length"):
        lift_through(e.gen, Column(0, (BinaryForm.constant(QQ, 1),)))


# ---------------------------------------------------------------------------
# Hilbert functions of random graded matrices: a kernel of type (e_i) has
# sum(max(0, n + e_i + 1)) sections in degree n, and that must be the
# nullity of the degree-n piece at every degree the kernel scan visits


def nullity(m, n):
    piece = m.degree_piece(n)
    return len(linalg.nullspace(m.field, [list(r) for r in piece.matrix], piece.ncols))


def sections(t, n):
    return sum(max(0, n + e + 1) for e in t.twists)


def assert_hilbert_function(m, t):
    # below -max(src) every piece has no columns; at and above the largest
    # generator degree the nullity grows by the rank per step
    top = max([-e for e in t.twists] + [-max(m.src)])
    for n in range(-max(m.src) - 1, top + 3):
        assert nullity(m, n) == sections(t, n), n


@settings(max_examples=100, deadline=None)
@given(graded_matrices())
def test_kernel_type_reproduces_the_hilbert_function(m):
    ker = kernel_free(m)
    assert ker.rank == m.ncols - m.rank_everywhere().generic_rank
    assert_hilbert_function(m, ker.type)


@settings(max_examples=100, deadline=None)
@given(graded_matrices())
def test_cokernel_type_reproduces_the_dual_hilbert_function(m):
    profile = m.rank_everywhere()
    if not profile.constant:
        with pytest.raises(ValueError, match="not locally free"):
            cokernel_type(m)
        return
    coker = cokernel_type(m)
    assert coker.rank == m.nrows - profile.generic_rank
    # the dual of the cokernel is the kernel of the transposed dual
    assert_hilbert_function(m.transpose_dual(), coker.dual())


# ---------------------------------------------------------------------------
# lifts and quotients of random nested subbundles: outer is the kernel of a
# random graded matrix (saturated, so everywhere injective), and inner is the
# image of some of the columns of outer.gen @ U for a unit-triangular graded
# automorphism U of outer's frame, so outer/inner splits as the omitted
# summands and equal twists in outer give several inner columns of one twist


@hst.composite
def nested_subbundles(draw):
    m = draw(graded_matrices(twists=hst.integers(-1, 1)))
    outer = kernel_free(m)
    assume(outer.rank >= 1)
    f = m.field
    src = outer.gen.src
    order = sorted(range(len(src)), key=lambda j: -src[j])
    rank_in_order = {j: pos for pos, j in enumerate(order)}
    rows = []
    for i, a_i in enumerate(src):
        row = []
        for j, a_j in enumerate(src):
            if i == j:
                row.append(BinaryForm.constant(f, 1))
            elif rank_in_order[i] < rank_in_order[j]:
                d = a_i - a_j
                coeffs = [f.of(draw(hst.integers(-3, 3))) for _ in range(d + 1)]
                row.append(BinaryForm(f, d, coeffs))
            else:
                row.append(BinaryForm.zero(f, a_i - a_j))
        rows.append(row)
    u = GradedMatrix(f, src, src, rows)
    # each column is kept with probability 3/4, and at least one is kept
    keep = [j for j in range(len(src)) if draw(hst.integers(0, 3))] or [0]
    cols = [u.column(j) for j in keep]
    inner = Subbundle(outer.gen @ GradedMatrix.from_columns(f, src, cols))
    omitted = SplittingType(tuple(src[j] for j in range(len(src)) if j not in keep))
    return outer, inner, omitted


def in_image(phi, col):
    """Membership of a column by the rank of an augmented degree piece."""
    n = -col.twist
    piece = phi.degree_piece(n)
    coords = [c for e in col.forms if e.degree >= 0 for c in e.coeffs]
    rows = [list(r) for r in piece.matrix]
    if not rows:
        return not any(coords)
    aug = [r + [c] for r, c in zip(rows, coords)]
    return linalg.rank(phi.field, aug) == linalg.rank(phi.field, rows, piece.ncols)


@settings(max_examples=150, deadline=None)
@given(nested_subbundles(), hst.data())
def test_sub_lift_and_quotient_of_nested_subbundles(case, data):
    outer, inner, omitted = case
    lift = sub_lift(inner, outer)
    assert outer.gen @ lift == inner.gen
    assert [lift_through(outer.gen, Column(*inner.gen.column(j))) for j in range(inner.rank)] == [
        Column(*lift.column(j)) for j in range(lift.ncols)
    ]
    assert quotient_type(inner, outer) == omitted
    # a column pushed off the image by one monomial is refused
    j = data.draw(hst.integers(0, inner.rank - 1))
    twist, forms = inner.gen.column(j)
    for i, e in enumerate(forms):
        if e.degree < 0:
            continue
        bumped = list(forms)
        t1_exp = data.draw(hst.integers(0, e.degree))
        bumped[i] = e + BinaryForm.monomial(e.field, e.degree, t1_exp)
        col = Column(twist, tuple(bumped))
        if not in_image(outer.gen, col):
            break
    else:
        return  # outer is the whole ambient piece in these degrees
    cols = [inner.gen.column(j) for j in range(inner.gen.ncols)]
    cols[j] = col
    bad = Subbundle(GradedMatrix.from_columns(inner.field, inner.ambient, cols), check=False)
    with pytest.raises(ValueError, match="not contained"):
        sub_lift(bad, outer)
    assert lift_through(outer.gen, col) is None


# ---------------------------------------------------------------------------
# native pairing maps and kernel-scan spans against field-method references


@hst.composite
def pairings(draw, field):
    flavor = draw(hst.sampled_from(["symmetric", "skew"]))
    n = 2 * draw(hst.integers(1, 3)) if flavor == "skew" else draw(hst.integers(1, 6))
    rows = [[field.zero] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            if i == j and flavor == "skew":
                continue
            v = field.of(draw(hst.sampled_from([0, 0, 1, -1, 2])))
            rows[i][j] = v
            rows[j][i] = v if flavor == "symmetric" else field.neg(v)
    try:
        return Pairing(flavor, rows, field)
    except ValueError:  # degenerate
        return Pairing.hyperbolic(field, n // 2, flavor) if n > 1 else Pairing.diagonal_ones(field, 1)


@hst.composite
def members_and_pairings(draw):
    field = draw(hst.sampled_from(ALL_FIELDS))
    beta = draw(pairings(field))
    gen = draw(
        graded_matrices(field=field, dst=trivial_frame(beta.dim), coeffs=FRACTION_COEFFS)
    )
    return Subbundle(gen, check=False), beta


def reference_pairing_map(e, beta):
    """beta(gen_j, x)_j with BinaryForm * and + from zero forms."""
    f = e.field
    rows = []
    for j in range(e.rank):
        tw, forms = e.gen.column(j)
        row = []
        for i in range(beta.dim):
            acc = BinaryForm.zero(f, -tw)
            for k in range(beta.dim):
                acc = acc + forms[k] * BinaryForm.constant(f, beta.matrix[k][i])
            row.append(acc)
        rows.append(row)
    return GradedMatrix(f, e.ambient, tuple(-tw for tw in e.gen.src), rows)


@settings(max_examples=150, deadline=None)
@given(members_and_pairings())
def test_native_pairing_map_matches_the_form_arithmetic_reference(case):
    e, beta = case
    pm = pairing_map(e, beta)
    assert pm == reference_pairing_map(e, beta)
    for row in pm.entries:
        for form in row:
            assert_canonical(e.field, form.coeffs)
    if e.gen.rank_everywhere() == (e.rank, True):  # a subbundle: the kept profile holds
        fresh = GradedMatrix(pm.field, pm.src, pm.dst, pm.entries)
        assert pm._profile == fresh.rank_everywhere() == (e.rank, True)


def test_pairing_map_needs_a_trivial_ambient():
    one = BinaryForm.constant(QQ, 1)
    gen = GradedMatrix.from_columns(QQ, (0, 1), [(0, [one, BinaryForm.zero(QQ, 1)])])
    with pytest.raises(ValueError, match="trivial ambient"):
        pairing_map(Subbundle(gen), Pairing.hyperbolic(QQ, 1, "symmetric"))


# ---------------------------------------------------------------------------
# the kernel scan before it picked generators by pivot columns, kept as the
# oracle: at each degree T0 and T1 times the previous kernel piece are
# reduced into an incremental span with one field-method call per
# operation, and each nullspace vector with a nonzero remainder gives that
# remainder, normalized to pivot 1, as a new generator


class ReferenceSpan:
    def __init__(self, field, ncols):
        self.field = field
        self.ncols = ncols
        self.rows = []

    def add(self, v):
        """Reduce v; absorb and return the normalized remainder if new."""
        f = self.field
        v = list(v)
        for pc, row in self.rows:
            cv = v[pc]
            if not f.is_zero(cv):
                for j in range(pc, self.ncols):
                    v[j] = f.sub(v[j], f.mul(cv, row[j]))
        for pc in range(self.ncols):
            if not f.is_zero(v[pc]):
                inv = f.inv(v[pc])
                v = [f.mul(inv, x) for x in v]
                self.rows.append((pc, v))
                self.rows.sort(key=lambda t: t[0])
                return v
        return None


def shift_up(field, src, n, vectors):
    """Images of degree-(n-1) piece vectors under multiplication by T0, T1."""
    out = []
    for v in vectors:
        for shift in (0, 1):  # T0 keeps the T1-exponent, T1 raises it
            w, pos = [], 0
            for a in src:
                d = max(0, n + a)
                pad = [field.zero] * shift + list(v[pos : pos + d]) + [field.zero] * (1 - shift)
                w.extend(pad[: max(0, n + a + 1)])
                pos += d
            out.append(w)
    return out


def span_scan_kernel(m):
    f, src = m.field, m.src
    c = len(src) - (m.rank_everywhere().generic_rank if src and m.dst else 0)
    if c == 0:
        return Subbundle(GradedMatrix.zero(f, (), src))
    n = -max(src)
    prev_null, cols = [], []
    while True:
        piece = m.degree_piece(n)
        null = linalg.nullspace(f, [list(r) for r in piece.matrix], piece.ncols)
        span = ReferenceSpan(f, piece.ncols)
        for v in shift_up(f, src, n, prev_null):
            span.add(v)
        for v in null:
            reduced = span.add(v)
            if reduced is not None:
                cols.append((-n, sheaves._coordinates_to_forms(f, src, n, reduced)))
        if len(null) - len(prev_null) == c:
            break
        assert n < 100, "oracle scan did not stop"
        prev_null = null
        n += 1
    return Subbundle(GradedMatrix.from_columns(f, src, cols))


def assert_matches_span_scan(m, ker):
    oracle = span_scan_kernel(m)
    assert ker.type == oracle.type
    assert same_subsheaf(ker, oracle)


@settings(max_examples=100, deadline=None)
@given(graded_matrices(fields=ALL_FIELDS))
def test_kernel_scan_matches_the_span_scan(m):
    assert_matches_span_scan(m, kernel_free(m))


# ---------------------------------------------------------------------------
# the kernel scan before it shared the Hilbert-function loop, kept as the
# oracle: a nullspace at every degree, a pivot pick wherever the nullity
# exceeds the span of the generators so far, and a checked Subbundle


def pivot_scan_kernel(m):
    f, src = m.field, m.src
    c = len(src) - m.rank_everywhere().generic_rank
    if c == 0:
        return Subbundle(GradedMatrix.zero(f, (), src))
    n, prev_nullity, cols = -max(src), 0, []
    while True:
        piece = m.degree_piece(n)
        null = linalg.nullspace(f, [list(row) for row in piece.matrix], piece.ncols)
        if len(null) > sum(n + 1 + t for t, _ in cols):
            span = GradedMatrix.from_columns(f, src, cols).degree_piece(n)
            k = span.ncols
            rows = [list(row) + [v[i] for v in null] for i, row in enumerate(span.matrix)]
            for j in linalg.pivot_columns(f, rows, k + len(null)):
                if j >= k:
                    cols.append((-n, sheaves._coordinates_to_forms(f, src, n, null[j - k])))
        if len(null) - prev_nullity == c:
            break
        assert n < 100, "oracle scan did not stop"
        prev_nullity = len(null)
        n += 1
    assert len(cols) == c
    return Subbundle(GradedMatrix.from_columns(f, src, cols))


@settings(max_examples=100, deadline=None)
@given(graded_matrices(fields=ALL_FIELDS))
def test_kernel_scan_equals_the_pivot_scan(m):
    assert kernel_free(m).gen == pivot_scan_kernel(m).gen
