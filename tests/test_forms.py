import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graded_strategies import (
    ALL_FIELDS,
    FRACTION_COEFFS,
    assert_canonical,
    reference_add,
    reference_mul,
    reference_neg,
    reference_sub,
)
from twistlines.fields import QQ, PrimeField
from twistlines.forms import BinaryForm, random_form

T0 = BinaryForm.monomial(QQ, 1, 0)
T1 = BinaryForm.monomial(QQ, 1, 1)


def form(*coeffs):
    return BinaryForm(QQ, len(coeffs) - 1, coeffs)


def test_monomial_product():
    assert T0 * T1 == form(0, 1, 0)  # T0*T1


def test_difference_of_squares():
    assert form(1, 1) * form(1, -1) == form(1, 0, -1)


def test_zero_absorbs_with_degree_tag():
    z = BinaryForm.zero(QQ, 3)
    prod = form(1, 0, 0) * z  # T0^2 * 0
    assert prod.is_zero()
    assert prod.degree == 5


def test_zero_forms_are_shared_per_field_and_degree():
    # and a product entry or a pullback that comes out zero is the shared form
    from twistlines.frames import GradedMatrix

    z = BinaryForm.zero(QQ, 2)
    assert BinaryForm.zero(QQ, 2) is z
    assert BinaryForm.zero(PrimeField(7), 2) is not z and BinaryForm.zero(QQ, 1) is not z
    assert BinaryForm.zero(QQ, 1).substitute_power(2) is z
    t1 = BinaryForm.monomial(QQ, 1, 1)
    row = GradedMatrix(QQ, (0, 0), (1,), [(T0, t1)])
    col = GradedMatrix.from_columns(QQ, (0, 0), [(-1, [t1, -T0])])
    assert (row @ col).entries[0][0] is z


def test_add_requires_equal_degree():
    with pytest.raises(ValueError):
        T0 + form(1, 0, 0)
    with pytest.raises(ValueError):
        T0 - form(1, 0, 0)


def test_negative_degree_zero_form():
    z = BinaryForm.zero(QQ, -2)
    assert z.is_zero()
    assert z.coeffs == ()


def test_substitute_power():
    f = form(1, 2, 3)
    g = f.substitute_power(2)
    assert g.degree == 4
    assert g.coeffs == tuple(map(Fraction, (1, 0, 2, 0, 3)))


def test_repr_readable():
    assert "T0" in repr(T0)
    assert repr(BinaryForm.zero(QQ, -1)) == "0(deg -1)"


@st.composite
def forms(draw, field, d):
    """A form of degree d over field; about one in five is zero, and so is
    every form of negative degree."""
    if d < 0 or draw(st.integers(0, 4)) == 0:
        return BinaryForm.zero(field, d)
    return BinaryForm(field, d, [field.of(draw(FRACTION_COEFFS)) for _ in range(d + 1)])


@st.composite
def form_triples(draw):
    """Two forms of one degree and a third of any degree, over one field."""
    field = draw(st.sampled_from(ALL_FIELDS))
    d, e = draw(st.integers(-3, 6)), draw(st.integers(-3, 6))
    return draw(forms(field, d)), draw(forms(field, d)), draw(forms(field, e))


@settings(max_examples=300, deadline=None)
@given(form_triples())
def test_native_form_arithmetic_matches_the_field_method_reference(case):
    f, g, h = case
    checks = [
        (f + g, reference_add(f, g)),
        (f - g, reference_sub(f, g)),
        (-f, reference_neg(f)),
        (f * h, reference_mul(f, h)),
        (h * f, reference_mul(h, f)),
    ]
    for got, want in checks:
        assert got == want
        assert_canonical(f.field, got.coeffs)


def test_backend_agreement_small_forms():
    gf = PrimeField(10007)
    rng = random.Random(7)
    for _ in range(25):
        d = rng.randint(0, 5)
        f = random_form(QQ, d, rng)
        g = random_form(QQ, d, rng)
        fp = BinaryForm(gf, d, [gf.of(c) for c in f.coeffs])
        gp = BinaryForm(gf, d, [gf.of(c) for c in g.coeffs])
        s = f + g
        sp = fp + gp
        assert tuple(gf.of(c) for c in s.coeffs) == sp.coeffs
        m = f * g
        mp = fp * gp
        assert tuple(gf.of(c) for c in m.coeffs) == mp.coeffs
