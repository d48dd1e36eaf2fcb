"""Property tests for the exact core (fields + linalg).

The kernel and solve tests run over the rationals and over GF(10007) and
GF(7); over a prime field the matrices are the integer ones reduced mod p.
The sparse engine must also equal, exactly, the dense elimination it
replaced, kept in ``dense_linalg``, on dense and on sparse rows.
"""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dense_linalg
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


def rank_raising_columns(field, rows, ncols):
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
    pivots = rank_raising_columns(field, rows, ncols)
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


@settings(max_examples=150, deadline=None)
@given(systems())
def test_pivot_columns_are_the_leftmost_column_basis(case):
    # over every field they are the columns that raise the rank of the
    # columns before them, as many as the rank; over QQ they are sympy's
    # reduced-row-echelon pivots
    field, rows, ncols = case
    pivots = linalg.pivot_columns(field, rows, ncols)
    assert pivots == rank_raising_columns(field, rows, ncols)
    assert len(pivots) == linalg.rank(field, rows, ncols)
    if field is QQ and rows:
        sympy = pytest.importorskip("sympy")
        exact = [[sympy.Rational(v.numerator, v.denominator) for v in r] for r in rows]
        assert tuple(pivots) == sympy.Matrix(exact).rref()[1]


# ---------------------------------------------------------------------------
# the sparse engine against the dense elimination it replaced
# (``dense_linalg``), with dense and with sparse input

REFERENCE_FIELDS = (QQ, PrimeField(10007), PrimeField(7))
# mostly zeros, as in the degree pieces; raw Fractions (integral ones too)
# exercise the rational clearing of denominators
SPARSE_ENTRY = st.one_of(st.just(0), st.just(0), st.just(0), st.integers(-4, 4))
RAW_FRACTION = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))


@st.composite
def reference_systems(draw):
    """(field, dense rows, ncols): zero rows, ncols = 0 and rows that
    cancel to zero (a combination of earlier rows) are common."""
    field = draw(st.sampled_from(REFERENCE_FIELDS))
    nrows = draw(st.integers(0, 7))
    ncols = draw(st.integers(0, 7))
    entry = st.one_of(SPARSE_ENTRY, RAW_FRACTION) if field is QQ else SPARSE_ENTRY
    rows = [[draw(entry) for _ in range(ncols)] for _ in range(nrows)]
    for i in range(2, nrows):
        if draw(st.booleans()):
            a, b = draw(SMALL_INT), draw(SMALL_INT)
            rows[i] = [a * x + b * y for x, y in zip(rows[i - 2], rows[i - 1])]
    if field is not QQ:
        rows = [[field.of(v) for v in row] for row in rows]
    return field, rows, ncols


def as_sparse(rows):
    return [{c: v for c, v in enumerate(row) if v} for row in rows]


def typed(value):
    """Nested values with each scalar's type, so 2 and Fraction(2) differ."""
    if isinstance(value, list):
        return [typed(v) for v in value]
    return value if value is None else (type(value).__name__, value)


def assert_matches_reference(field, rows, ncols, rhss):
    sparse = as_sparse(rows)
    pivots = dense_linalg.pivot_columns(field, [list(r) for r in rows], ncols)
    null = dense_linalg.nullspace(field, [list(r) for r in rows], ncols)
    solved = dense_linalg.solve_many(field, [list(r) for r in rows], ncols, rhss)
    for given in (rows, sparse):
        assert linalg.pivot_columns(field, given, ncols) == pivots
        assert linalg.rank(field, given, ncols) == len(pivots)
        assert typed(linalg.nullspace(field, given, ncols)) == typed(null)
        assert typed(linalg.solve_many(field, given, ncols, rhss)) == typed(solved)
    sparse_rhss = [{i: v for i, v in enumerate(b) if v} for b in rhss]
    assert typed(linalg.solve_many(field, sparse, ncols, sparse_rhss)) == typed(solved)


@settings(max_examples=400, deadline=None)
@given(reference_systems(), st.data())
def test_sparse_engine_equals_the_dense_reference(case, data):
    # right-hand sides in the column space, and arbitrary ones, which are
    # mostly outside it when the rank is short
    field, rows, ncols = case
    scalars = st.one_of(SMALL_INT, RAW_FRACTION) if field is QQ else SMALL_INT
    rhss = []
    for _ in range(data.draw(st.integers(1, 3))):
        if data.draw(st.booleans()):
            x0 = [field.of(data.draw(scalars)) for _ in range(ncols)]
            rhss.append(apply(field, rows, x0))
        else:
            rhss.append([field.of(data.draw(SPARSE_ENTRY)) for _ in rows])
    assert_matches_reference(field, rows, ncols, rhss)


@pytest.mark.parametrize("field", REFERENCE_FIELDS, ids=str)
def test_reference_edge_cases(field):
    # no rows, zero rows, no columns, and an inconsistent system
    for rows, ncols in (([], 3), ([[0, 0, 0]], 3), ([[], []], 0), ([[1, 2], [2, 4]], 2)):
        rows = [[field.of(v) for v in row] for row in rows]
        rhss = [[field.of(i + 1) for i in range(len(rows))]]
        assert_matches_reference(field, rows, ncols, rhss)
    assert linalg.solve_many(field, [[1, 2], [2, 4]], 2, [[1, 1]]) is None
    assert linalg.solve_many(field, [[], []], 0, [[0, 1]]) is None
    assert linalg.nullspace(field, [{}, {}], 0) == []


@pytest.mark.parametrize("field", REFERENCE_FIELDS, ids=str)
def test_a_row_that_loses_an_entry_and_regains_it(field):
    # column 0: the sparsest row r0 is the pivot, and r1 - r0 loses column
    # 2; column 1: the sparser r2 is the pivot, and r1 regains column 2 (an
    # index of the rows holding each column would list r1 twice there)
    rows = [
        [1, 0, 1, 0, 0],
        [1, 1, 1, 1, 1],
        [0, 1, 1, 0, 0],
        [0, 0, 3, 1, 0],
    ]
    rows = [[field.of(v) for v in row] for row in rows]
    rhss = [apply(field, rows, [1, 2, 3, 4, 5]), [field.of(v) for v in (0, 0, 1, 1)]]
    assert_matches_reference(field, rows, 5, rhss)
    assert linalg.rank(field, rows, 5) == 4
