"""Exact sparse linear algebra over the scalar backends.

A matrix is a list of rows of field elements.  A row is either dense, a
sequence, or sparse, a dict {column: nonzero element}; sparse rows need an
explicit column count.  Every routine copies its rows into fresh sparse
dicts (a dense row at C speed, by ``itertools.compress`` and ``filter``),
so the degree pieces that ``frames`` scatters, almost all of whose entries
are zero, are eliminated in time proportional to their nonzeros.

This is the one elimination engine (``_echelon``): ranks, kernels,
solutions and the kernel scan's generator choice (``pivot_columns``) all
come from it.  It eliminates column by column.  In each column one row
holding an entry there becomes the pivot row, and every other row holding
one is reduced by it; only those rows are visited, found by indexing the
rows by their leading column.  Only the row update and the pivot
normalization depend on the field.  Over the rationals, whose integral
scalars are plain ints, a matrix with a ``Fraction`` entry is first
cleared of denominators row by row; the update is fraction-free (a * row
- b * pivot row) followed by a division by the row's content, which keeps
entry growth tame.  Over a prime field, whose elements are ints in
[0, p), the pivot row is scaled to pivot 1.  Back-substitution stays in
the integers too: kernel vectors come out as primitive int vectors with
positive leading entry, and a solution is divided by its common
denominator once per coordinate at the end.

Why the choice of pivot row cannot change an output.  The pivot row is
the sparsest candidate, then the one with the smallest entry, then the
first, to limit fill-in and entry growth; any other choice gives the same
outputs, because each output is fixed by the matrix alone:

* the pivot columns are the columns outside the span of the columns to
  their left, since row operations keep every linear relation among the
  columns;
* the nullspace vector of a free column c is the unique kernel vector
  with coordinate 1 at c and 0 at the other free columns (the pivot
  columns are independent, so the rest is determined), scaled over the
  rationals to the primitive integer vector with positive leading entry;
* a solution is the unique one with every free coordinate 0.

So ranks, kernels, solutions and every certificate built on them are
byte-stable whatever the elimination order does.
"""

from fractions import Fraction
from itertools import chain, compress, count
from math import gcd, lcm
from operator import attrgetter, mul

from .fields import PrimeField, RationalField

__all__ = ["pivot_columns", "rank", "nullspace", "solve", "solve_many"]

_DENOMINATOR = attrgetter("denominator")
_NUMERATOR = attrgetter("numerator")


def _fresh(rows) -> list:
    """Fresh {column: nonzero} copies of dense rows, or of sparse ones."""
    if rows and isinstance(rows[0], dict):
        return list(map(dict, rows))
    return [dict(zip(compress(count(), row), filter(None, row))) for row in rows]


def _primitive_row(row: dict) -> dict:
    """A rational sparse row scaled to a primitive integer row."""
    vals = list(row.values())
    den = lcm(*map(_DENOMINATOR, vals))
    if den == 1:
        vals = list(map(_NUMERATOR, vals))
    else:
        vals = [v.numerator * (den // v.denominator) for v in vals]
    g = gcd(*vals)
    if g > 1:
        vals = [v // g for v in vals]
    return dict(zip(row, vals))


def _int_update(_, row, prow, c):
    """Replace the integer row by the primitive part of a * row - b * prow,
    which is 0 at the pivot column c of prow."""
    pv = prow[c]
    g = gcd(pv, row[c])
    # the row is scaled to its primitive part below, so dividing both
    # multipliers by their gcd first leaves the result unchanged
    a, b = pv // g, row[c] // g
    if a != 1:
        for k in row:
            row[k] *= a
    for k, y in prow.items():
        x = row.get(k, 0) - b * y
        if x:
            row[k] = x
        else:
            del row[k]
    if row:
        g = gcd(*row.values())
        if g > 1:
            for k in row:
                row[k] //= g


def _mod_update(p, row, prow, c):
    """Replace the row by row - row[c] * prow mod p; prow[c] is 1."""
    v = row[c]
    for k, y in prow.items():
        x = (row.get(k, 0) - v * y) % p
        if x:
            row[k] = x
        else:
            del row[k]


def _echelon(field, rows, ncols):
    """Row echelon form of fresh sparse rows; returns (rows, pivot_cols).

    Echelon row r has its pivot at column pivot_cols[r] and no entry left
    of it; over GF(p) the pivot entry is 1.  Over the rationals a matrix
    with a non-int entry is first made integral row by row.  The rows are
    indexed by their leading column: when column c comes up, every row
    still to be reduced that holds an entry there leads with it (the
    columns left of c are cleared), so the rows led by c are exactly the
    candidates.  A reduced row is filed again under its new leading
    column, once, and a row that cancels to zero is dropped.
    """
    if isinstance(field, PrimeField):
        p, update = field.p, _mod_update
    elif isinstance(field, RationalField):
        p, update = 0, _int_update
        if not set(map(type, chain.from_iterable(map(dict.values, rows)))) <= {int}:
            rows = [_primitive_row(row) for row in rows if row]
    else:
        raise TypeError(f"unsupported field {field!r}")
    led = {}
    for row in rows:
        if row:
            led.setdefault(min(row), []).append(row)
    ech, pivots = [], []
    for c in range(ncols):
        if not led:
            break
        cand = led.pop(c, None)
        if cand is None:
            continue
        i = min([(len(r), abs(r[c]), i) for i, r in enumerate(cand)])[2] if len(cand) > 1 else 0
        prow = cand.pop(i)
        if p and prow[c] != 1:
            inv = pow(prow[c], -1, p)
            prow = {j: v * inv % p for j, v in prow.items()}
        for row in cand:
            if len(prow) == 1:
                del row[c]  # a pivot row with one entry just clears the column
            else:
                update(p, row, prow, c)
            if row:
                led.setdefault(min(row), []).append(row)
        ech.append(prow)
        pivots.append(c)
    return ech, pivots


def pivot_columns(field, rows, ncols):
    """The pivot columns of an echelon form, ascending: whatever the row
    operations, the columns outside the span of those left of them."""
    return _echelon(field, _fresh(rows), ncols)[1]


def rank(field, rows, ncols=None) -> int:
    """The rank; ``ncols`` defaults to the length of the first (dense) row."""
    if not rows:
        return 0
    ncols = len(rows[0]) if ncols is None else ncols
    return len(pivot_columns(field, rows, ncols))


def _int_back_substitute(ech, pivots, y):
    """Integer back-substitution for an integer echelon form.

    On entry y holds the free coordinates (ints) and zeros at the pivot
    columns.  y is completed in place to an integer solution of ech*y = 0
    whose free coordinates are the given ones times a common factor d > 0;
    d is returned.  y is zero at the pivots still to be filled, so each
    row's dot product reads only the columns set so far.
    """
    den = 1
    for r in range(len(pivots) - 1, -1, -1):
        row = ech[r]
        s = sum(map(mul, row.values(), map(y.__getitem__, row)))
        if not s:
            continue
        pc = pivots[r]
        p = row[pc]
        g = gcd(s, p)
        m = abs(p) // g
        if m != 1:
            y[:] = map(m.__mul__, y)
            den *= m
        y[pc] = -s // g if p > 0 else s // g
    return den


def _mod_back_substitute(p, ech, pivots, x):
    """Modular back-substitution for a pivot-1 echelon form mod p.

    On entry x holds the free coordinates and zeros at the pivot columns;
    it is completed in place to the solution of ech*x = 0 with those free
    coordinates.
    """
    for r in range(len(pivots) - 1, -1, -1):
        row = ech[r]
        s = sum(map(mul, row.values(), map(x.__getitem__, row))) % p
        if s:
            x[pivots[r]] = p - s
    return x


def _primitive(vec):
    """The integer vector divided by its content, leading entry positive."""
    g = gcd(*vec)
    if g > 1:
        vec = [v // g for v in vec]
    for v in vec:
        if v:
            if v < 0:
                vec = [-w for w in vec]
            break
    return vec


def nullspace(field, rows, ncols):
    """Canonical kernel basis, one vector per free column in ascending order.

    Each vector is a dense list.  Over the rationals the vectors are
    primitive integer vectors (lists of ints) with positive leading entry.
    """
    ech, pivots = _echelon(field, _fresh(rows), ncols)
    pivot_set = set(pivots)
    rational = isinstance(field, RationalField)
    basis = []
    for fc in range(ncols):
        if fc in pivot_set:
            continue
        x = [0] * ncols
        x[fc] = 1
        if rational:
            _int_back_substitute(ech, pivots, x)
            x = _primitive(x)
        else:
            _mod_back_substitute(field.p, ech, pivots, x)
        basis.append(x)
    return basis


def solve(field, rows, ncols, rhs):
    """One exact solution of rows * x = rhs (free coordinates 0), or None.

    Over the rationals the coordinates are ints where integral, else
    Fractions.  This is the one-column case of ``solve_many``.
    """
    xs = solve_many(field, rows, ncols, [rhs])
    return None if xs is None else xs[0]


def solve_many(field, rows, ncols, rhss):
    """rows * x = b for every b in rhss, by one elimination; or None.

    A right-hand side is dense (one element per row) or sparse ({row:
    nonzero}).  All of them are appended to the matrix as columns and
    eliminated together, then each is back-substituted on its own.  The
    result is one dense solution per right-hand side, in order, with free
    coordinates 0; it is None as soon as one right-hand side is outside
    the column space.  Pivot columns do not depend on the row operations
    that produced them, so each solution is the one ``solve`` gives for
    its right-hand side alone.
    """
    k = len(rhss)
    aug = _fresh(rows)
    for col, b in enumerate(rhss, ncols):
        entries = b.items() if isinstance(b, dict) else zip(compress(count(), b), filter(None, b))
        for i, v in entries:
            aug[i][col] = v
    ech, pivots = _echelon(field, aug, ncols + k)
    if pivots and pivots[-1] >= ncols:
        return None
    out = []
    if isinstance(field, RationalField):
        for j in range(k):
            y = [0] * (ncols + k)
            y[ncols + j] = -1
            den = _int_back_substitute(ech, pivots, y)
            out.append(
                [v // den if not v % den else Fraction(v, den) for v in y[:ncols]]
            )
        return out
    p = field.p
    for j in range(k):
        x = [0] * (ncols + k)
        x[ncols + j] = p - 1
        _mod_back_substitute(p, ech, pivots, x)
        out.append(x[:ncols])
    return out
