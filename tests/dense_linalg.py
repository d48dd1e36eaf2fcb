"""The dense elimination that ``twistlines.linalg`` replaced, kept as a
test reference.

These are the earlier dense routines, unchanged: fraction-free integer
elimination over the rationals with the smallest-entry pivot row, and
elimination mod p with the first pivot row, both sweeping every dense row
tail, and their back-substitutions.  ``pivot_columns``, ``rank``,
``nullspace`` and ``solve_many`` here take dense rows only; the sparse
engine must give exactly their outputs.
"""

from fractions import Fraction
from math import gcd

from twistlines.fields import PrimeField, RationalField


def _int_rows(rows):
    """Scale each row of a rational matrix to a primitive integer row."""
    out = []
    for row in rows:
        if set(map(type, row)) <= {int}:
            ints = list(row)
        else:
            lcm = 1
            for v in row:
                d = v.denominator
                if d != 1:
                    lcm = lcm // gcd(lcm, d) * d
            ints = [v.numerator * (lcm // v.denominator) for v in row]
        g = gcd(*ints)
        if g > 1:
            ints = [v // g for v in ints]
        out.append(ints)
    return out


def _int_echelon(rows, ncols):
    """Fraction-free row echelon form; returns (rows, pivot_cols).

    Pivot rule: in each column take the surviving row whose entry has the
    smallest absolute value (lowest index on ties).  The rows, fresh lists
    from ``_int_rows``, are reduced in place.
    """
    pivots = []
    pr = 0
    nrows = len(rows)
    for c in range(ncols):
        best = -1
        for i in range(pr, nrows):
            v = rows[i][c]
            if v and (best < 0 or abs(v) < abs(rows[best][c])):
                best = i
        if best < 0:
            continue
        rows[pr], rows[best] = rows[best], rows[pr]
        rp = rows[pr]
        pv = rp[c]
        tail = rp[c:]
        for i in range(pr + 1, nrows):
            ri = rows[i]
            v = ri[c]
            if not v:
                continue
            # the row is scaled to its primitive part below, so dividing
            # both multipliers by their gcd first leaves the result unchanged
            g = gcd(pv, v)
            a, b = pv // g, v // g
            new = [x * a - y * b for x, y in zip(ri[c:], tail)]
            g = gcd(*new)
            if g > 1:
                new = [x // g for x in new]
            ri[c:] = new
        pivots.append(c)
        pr += 1
        if pr == nrows:
            break
    return rows[:pr], pivots


def _mod_echelon(p, rows, ncols):
    rows = [[v % p for v in r] for r in rows]
    pivots = []
    pr = 0
    nrows = len(rows)
    for c in range(ncols):
        piv = -1
        for i in range(pr, nrows):
            if rows[i][c]:
                piv = i
                break
        if piv < 0:
            continue
        rows[pr], rows[piv] = rows[piv], rows[pr]
        rp = rows[pr]
        inv = pow(rp[c], p - 2, p)
        for j in range(c, ncols):
            rp[j] = rp[j] * inv % p
        for i in range(pr + 1, nrows):
            ri = rows[i]
            v = ri[c]
            if v:
                for j in range(c, ncols):
                    ri[j] = (ri[j] - v * rp[j]) % p
        pivots.append(c)
        pr += 1
        if pr == nrows:
            break
    return rows[:pr], pivots


def _echelon(field, rows, ncols):
    if isinstance(field, PrimeField):
        return _mod_echelon(field.p, rows, ncols)
    if isinstance(field, RationalField):
        return _int_echelon(_int_rows(rows), ncols)
    raise TypeError(f"unsupported field {field!r}")


def pivot_columns(field, rows, ncols):
    """The pivot columns of an echelon form, ascending: whatever the row
    operations, the columns outside the span of those left of them."""
    return _echelon(field, rows, ncols)[1]


def rank(field, rows, ncols=None) -> int:
    if not rows:
        return 0
    ncols = len(rows[0]) if ncols is None else ncols
    return len(pivot_columns(field, rows, ncols))


def _int_back_substitute(ech, pivots, y):
    """Integer back-substitution for an integer echelon form.

    On entry y holds the free coordinates (ints) and zeros at the pivot
    columns.  y is completed in place to an integer solution of ech*y = 0
    whose free coordinates are the given ones times a common factor d > 0;
    d is returned.  Only the nonzero coordinates are visited: an echelon
    row vanishes left of its pivot and y is zero at the pivots still to
    be filled.
    """
    nz = [j for j, v in enumerate(y) if v]
    den = 1
    for r in range(len(pivots) - 1, -1, -1):
        row = ech[r]
        s = 0
        for j in nz:
            s += row[j] * y[j]
        if not s:
            continue
        pc = pivots[r]
        p = row[pc]
        g = gcd(s, p)
        m = abs(p) // g
        if m != 1:
            for j in nz:
                y[j] *= m
            den *= m
        y[pc] = -s // g if p > 0 else s // g
        nz.append(pc)
    return den


def _mod_back_substitute(p, ech, pivots, x):
    """Modular back-substitution for a normalized echelon form mod p.

    The rows come from ``_mod_echelon``: pivot entry 1, entries in [0, p).
    On entry x holds the free coordinates and zeros at the pivot columns;
    it is completed in place to the solution of ech*x = 0 with those free
    coordinates.  As in ``_int_back_substitute`` only the nonzero
    coordinates are visited.
    """
    nz = [j for j, v in enumerate(x) if v]
    for r in range(len(pivots) - 1, -1, -1):
        row = ech[r]
        s = 0
        for j in nz:
            s += row[j] * x[j]
        s %= p
        if s:
            pc = pivots[r]
            x[pc] = p - s
            nz.append(pc)
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

    Over the rationals the vectors are primitive integer vectors (lists of
    ints) with positive leading entry.
    """
    if ncols == 0:
        return []
    if not rows:
        rows = [[field.zero] * ncols]
    ech, pivots = _echelon(field, rows, ncols)
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


def solve_many(field, rows, ncols, rhss):
    """rows * x = b for every b in rhss, by one elimination; or None.

    All right-hand sides are appended to the matrix and eliminated
    together, then each is back-substituted on its own.  The result is one
    solution per right-hand side, in order, with free coordinates 0; it is
    None as soon as one right-hand side is outside the column space.  The
    pivot columns of an echelon form do not depend on the row operations
    that produced it, so each solution is the one ``solve`` gives for its
    right-hand side alone.
    """
    k = len(rhss)
    if not rows:
        return [[field.zero] * ncols for _ in range(k)]
    aug = [list(r) + [b[i] for b in rhss] for i, r in enumerate(rows)]
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
