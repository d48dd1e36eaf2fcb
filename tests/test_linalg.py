"""Property tests for the exact core (fields + linalg).

The kernel and solve tests run over the rationals and over GF(10007) and
GF(7); over a prime field the matrices are the integer ones reduced mod p.
"""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twistlines import linalg
from twistlines.fields import QQ, PrimeField

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


PRIME_FIELDS = (PrimeField(10007), PrimeField(7))


def reduced(field, case):
    rows, ncols = case
    return field, [[field.of(v) for v in row] for row in rows], ncols


def systems(int_only=False):
    """(field, rows, ncols): rational matrices over QQ, integer ones mod p."""
    qq = INT_MATRICES if int_only else st.one_of(INT_MATRICES, RATIONAL_MATRICES)
    return st.one_of(
        qq.map(lambda case: (QQ, *case)),
        st.sampled_from(PRIME_FIELDS).flatmap(
            lambda field: INT_MATRICES.map(lambda case: reduced(field, case))
        ),
    )


def is_canonical(field, v):
    """Over QQ: int if integral, else a Fraction with denominator > 1.
    Over GF(p): an int in [0, p)."""
    if field is not QQ:
        return type(v) is int and 0 <= v < field.p
    if type(v) is int:
        return True
    return type(v) is Fraction and v.denominator > 1


def apply(field, rows, x):
    out = []
    for row in rows:
        acc = field.zero
        for a, b in zip(row, x):
            acc = field.add(acc, field.mul(a, b))
        out.append(acc)
    return out


@settings(max_examples=250, deadline=None)
@given(systems())
def test_nullspace_is_a_primitive_integer_kernel_basis(case):
    # over GF(p) the integers are the representatives in [0, p) and the
    # basis vector of free column c is the one with a 1 there
    field, rows, ncols = case
    basis = linalg.nullspace(field, rows, ncols)
    r = linalg.rank(field, rows, ncols) if rows else 0
    assert len(basis) == ncols - r
    for v in basis:
        assert len(v) == ncols
        assert all(type(x) is int for x in v)
        if field is QQ:
            lead = next(x for x in v if x)
            assert lead > 0
            assert gcd(*v) == 1
        else:
            assert all(is_canonical(field, x) for x in v)
        assert all(field.is_zero(y) for y in apply(field, rows, v))
    # independence: the basis vectors have full rank
    if basis:
        assert linalg.rank(field, basis, ncols) == len(basis)


def pivot_columns(field, rows, ncols):
    """The columns that raise the rank of the columns before them."""
    pivots, r = [], 0
    for j in range(ncols):
        if rows and linalg.rank(field, [row[: j + 1] for row in rows], j + 1) > r:
            pivots.append(j)
            r += 1
    return pivots


@settings(max_examples=250, deadline=None)
@given(systems(), st.data())
def test_solve_satisfies_its_system(case, data):
    # solve_many with several right-hand sides returns, for each, the one
    # solution that is zero off the pivot columns (those columns are
    # independent, so it is unique), and solve gives the same alone
    field, rows, ncols = case
    pivots = pivot_columns(field, rows, ncols)
    scalars = st.one_of(SMALL_INT, RATIONAL) if field is QQ else SMALL_INT
    rhss = []
    for _ in range(data.draw(st.integers(1, 3))):
        x0 = [field.of(data.draw(scalars)) for _ in range(ncols)]
        rhss.append(apply(field, rows, x0))
    xs = linalg.solve_many(field, rows, ncols, rhss)
    assert xs is not None and len(xs) == len(rhss)
    for x, rhs in zip(xs, rhss):
        assert x == linalg.solve(field, rows, ncols, rhs)
        assert len(x) == ncols
        assert all(is_canonical(field, v) for v in x)
        assert apply(field, rows, x) == rhs
        assert all(field.is_zero(v) for c, v in enumerate(x) if c not in pivots)


@settings(max_examples=200, deadline=None)
@given(systems(int_only=True), st.data())
def test_solve_refuses_inconsistent_systems(case, data):
    field, rows, ncols = case
    if not rows or linalg.rank(field, rows, ncols) == len(rows):
        return
    # a right-hand side outside the column space exists; find one by
    # trying unit vectors
    for i in range(len(rows)):
        bad = [field.one if j == i else field.zero for j in range(len(rows))]
        aug = [row + [b] for row, b in zip(rows, bad)]
        if linalg.rank(field, aug, ncols + 1) > linalg.rank(field, rows, ncols):
            break
    assert linalg.solve(field, rows, ncols, bad) is None
    # solve_many refuses as soon as one right-hand side is inconsistent,
    # wherever it stands among consistent ones
    good = [
        apply(field, rows, [field.of(data.draw(SMALL_INT)) for _ in range(ncols)])
        for _ in range(data.draw(st.integers(0, 2)))
    ]
    pos = data.draw(st.integers(0, len(good)))
    assert linalg.solve_many(field, rows, ncols, good[:pos] + [bad] + good[pos:]) is None
    assert linalg.solve_many(field, rows, ncols, good) is not None


@settings(max_examples=300, deadline=None)
@given(st.one_of(SMALL_INT, RATIONAL), st.one_of(SMALL_INT, RATIONAL))
def test_rational_field_keeps_its_invariant(a, b):
    a, b = QQ.of(a), QQ.of(b)
    assert is_canonical(QQ, a) and is_canonical(QQ, b)
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
        assert is_canonical(QQ, got)


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
