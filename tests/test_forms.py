import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twistlines.fields import QQ, PrimeField
from twistlines.forms import BinaryForm, form_gcd, random_form

T0 = BinaryForm.monomial(QQ, 1, 0)
T1 = BinaryForm.monomial(QQ, 1, 1)


def form(*coeffs):
    return BinaryForm.from_coeffs(QQ, coeffs)


def test_monomial_product():
    assert T0 * T1 == form(0, 1, 0)  # T0*T1


def test_difference_of_squares():
    assert form(1, 1) * form(1, -1) == form(1, 0, -1)


def test_zero_absorbs_with_degree_tag():
    z = BinaryForm.zero(QQ, 3)
    prod = form(1, 0, 0) * z  # T0^2 * 0
    assert prod.is_zero()
    assert prod.degree == 5


def test_add_requires_equal_degree():
    with pytest.raises(ValueError):
        T0 + form(1, 0, 0)


def test_negative_degree_zero_form():
    z = BinaryForm.zero(QQ, -2)
    assert z.is_zero()
    assert z.coeffs == ()


def test_gcd_common_factor():
    # gcd(T0^2, T0*T1) = T0
    assert form_gcd(form(1, 0, 0), form(0, 1, 0)) == T0


def test_gcd_coprime_coordinates():
    assert form_gcd(T0, T1) == BinaryForm.constant(QQ, 1)


def test_gcd_linear_factor():
    # T0^2 - T1^2 = (T0+T1)(T0-T1), hand-factored over QQ
    assert form_gcd(form(1, 0, -1), form(1, 1)) == form(1, 1)


def test_gcd_pure_t1_powers():
    # dehomogenizing alone would lose these factors
    assert form_gcd(form(0, 0, 1), form(0, 1, 0)) == T1


def test_gcd_with_zero_form():
    g = form_gcd(form(0, 2, 0), BinaryForm.zero(QQ, 5))
    assert g == form(0, 1, 0)
    with pytest.raises(ValueError):
        form_gcd(BinaryForm.zero(QQ, 1), BinaryForm.zero(QQ, 2))


def test_eval_examples():
    assert form(1, 0, 0, 0).evaluate(1, 0) == 1  # T0^3 at [1:0]
    assert T1.evaluate(1, 0) == 0
    assert form(0, 1, 0).evaluate(1, 1) == 1  # T0*T1 at [1:1]


def test_eval_rejects_origin():
    with pytest.raises(ValueError):
        T0.evaluate(0, 0)


def test_substitute_power():
    f = form(1, 2, 3)
    g = f.substitute_power(2)
    assert g.degree == 4
    assert g.coeffs == tuple(map(Fraction, (1, 0, 2, 0, 3)))


def test_repr_readable():
    assert "T0" in repr(T0)
    assert repr(BinaryForm.zero(QQ, -1)) == "0(deg -1)"


@st.composite
def forms(draw, max_degree=6, nonzero=False):
    d = draw(st.integers(min_value=0, max_value=max_degree))
    coeffs = draw(
        st.lists(st.integers(min_value=-5, max_value=5), min_size=d + 1, max_size=d + 1)
    )
    f = BinaryForm.from_coeffs(QQ, coeffs)
    if nonzero and f.is_zero():
        f = f + BinaryForm.monomial(QQ, d, 0)
    return f


def _monic(f):
    lead = next(c for c in f.coeffs if c)
    return f.scale(QQ.inv(lead))


@settings(max_examples=60, deadline=None)
@given(forms(nonzero=True), forms(nonzero=True), forms(max_degree=3, nonzero=True))
def test_gcd_product_invariance(f, g, h):
    # gcd(f*h, g*h) equals gcd(f, g)*h up to a scalar
    lhs = form_gcd(f * h, g * h)
    rhs = form_gcd(f, g) * h
    assert lhs == _monic(rhs)


@settings(max_examples=60, deadline=None)
@given(forms(), st.integers(min_value=-9, max_value=9).filter(lambda x: x != 0))
def test_eval_homogeneity(f, lam):
    p = (Fraction(2), Fraction(3))
    scaled = (lam * p[0], lam * p[1])
    assert f.evaluate(*scaled) == Fraction(lam) ** f.degree * f.evaluate(*p)


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
