"""Property tests for the integer-native rational core (fields + linalg)."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twistlines import linalg
from twistlines.fields import QQ

SMALL_INT = st.integers(-6, 6)
RATIONAL = st.builds(Fraction, st.integers(-20, 20), st.integers(1, 9))


def matrices(entries, max_rows=6, max_cols=6):
    """Random matrices; every third row may repeat a combination of two
    earlier rows so that rank drops are common."""

    @st.composite
    def build(draw):
        nrows = draw(st.integers(0, max_rows))
        ncols = draw(st.integers(1, max_cols))
        rows = [[QQ.of(draw(entries)) for _ in range(ncols)] for _ in range(nrows)]
        for i in range(2, nrows, 3):
            if draw(st.booleans()):
                a, b = draw(SMALL_INT), draw(SMALL_INT)
                rows[i] = [
                    QQ.add(QQ.mul(a, x), QQ.mul(b, y)) for x, y in zip(rows[0], rows[1])
                ]
        return rows, ncols

    return build()


INT_MATRICES = matrices(SMALL_INT)
RATIONAL_MATRICES = matrices(st.one_of(SMALL_INT, RATIONAL))


def is_canonical(v):
    """int if integral, else a Fraction with denominator > 1."""
    if type(v) is int:
        return True
    return type(v) is Fraction and v.denominator > 1


def apply(rows, x):
    return [sum(Fraction(a) * b for a, b in zip(row, x)) for row in rows]


@settings(max_examples=150, deadline=None)
@given(st.one_of(INT_MATRICES, RATIONAL_MATRICES))
def test_nullspace_is_a_primitive_integer_kernel_basis(case):
    rows, ncols = case
    basis = linalg.nullspace(QQ, rows, ncols)
    r = linalg.rank(QQ, rows, ncols) if rows else 0
    assert len(basis) == ncols - r
    for v in basis:
        assert len(v) == ncols
        assert all(type(x) is int for x in v)
        lead = next(x for x in v if x)
        assert lead > 0
        assert gcd(*v) == 1
        assert all(y == 0 for y in apply(rows, v))
    # independence: the basis vectors have full rank
    if basis:
        assert linalg.rank(QQ, basis, ncols) == len(basis)


@settings(max_examples=150, deadline=None)
@given(st.one_of(INT_MATRICES, RATIONAL_MATRICES), st.data())
def test_solve_satisfies_its_system(case, data):
    rows, ncols = case
    x0 = [QQ.of(data.draw(st.one_of(SMALL_INT, RATIONAL))) for _ in range(ncols)]
    rhs = [QQ.of(v) for v in apply(rows, x0)]
    x = linalg.solve(QQ, rows, ncols, rhs)
    assert x is not None
    assert all(is_canonical(v) for v in x)
    assert apply(rows, x) == rhs


@settings(max_examples=100, deadline=None)
@given(INT_MATRICES)
def test_solve_refuses_inconsistent_systems(case):
    rows, ncols = case
    if not rows or linalg.rank(QQ, rows, ncols) == len(rows):
        return
    # a right-hand side outside the column space exists; find one by
    # trying unit vectors
    for i in range(len(rows)):
        rhs = [1 if j == i else 0 for j in range(len(rows))]
        aug = [row + [b] for row, b in zip(rows, rhs)]
        if linalg.rank(QQ, aug, ncols + 1) > linalg.rank(QQ, rows, ncols):
            assert linalg.solve(QQ, rows, ncols, rhs) is None
            return


@settings(max_examples=300, deadline=None)
@given(st.one_of(SMALL_INT, RATIONAL), st.one_of(SMALL_INT, RATIONAL))
def test_rational_field_keeps_its_invariant(a, b):
    a, b = QQ.of(a), QQ.of(b)
    assert is_canonical(a) and is_canonical(b)
    results = [
        (QQ.add(a, b), Fraction(a) + b),
        (QQ.sub(a, b), Fraction(a) - b),
        (QQ.mul(a, b), Fraction(a) * b),
        (QQ.neg(a), -Fraction(a)),
    ]
    if b != 0:
        results.append((QQ.div(a, b), Fraction(a) / b))
        results.append((QQ.inv(b), 1 / Fraction(b)))
    for got, want in results:
        assert got == want
        assert is_canonical(got)


def test_rational_field_demotes_integral_inputs():
    assert type(QQ.of(Fraction(6, 3))) is int
    assert type(QQ.of(True)) is int
    assert QQ.of("3/6") == Fraction(1, 2)
    assert type(QQ.div(6, 3)) is int and QQ.div(6, 3) == 2
    assert type(QQ.mul(Fraction(1, 2), 2)) is int
    assert type(QQ.zero) is int and type(QQ.one) is int
    with pytest.raises(ZeroDivisionError):
        QQ.div(1, 0)
    with pytest.raises(ZeroDivisionError):
        QQ.inv(0)


@settings(max_examples=100, deadline=None)
@given(st.one_of(INT_MATRICES, RATIONAL_MATRICES))
def test_rational_rank_agrees_with_sympy(case):
    sympy = pytest.importorskip("sympy")
    rows, ncols = case
    if not rows:
        return
    exact = [[sympy.Rational(v.numerator, v.denominator) for v in r] for r in rows]
    assert linalg.rank(QQ, rows, ncols) == sympy.Matrix(exact).rank()
