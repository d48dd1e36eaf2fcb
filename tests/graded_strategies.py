"""Hypothesis strategy for random graded matrices, shared by the property tests.

Frames have rank at most 6 and twists in [-6, 6] (or from a given
strategy); entries in a negative twist gap are zero (as the constructor
requires), and about one in four of the other entries is zero too, so zero
entries, zero columns and rank drops are common.  The field, the target
frame and the coefficient strategy can be fixed by the caller, e.g. to draw
a second factor of a product or rational entries with denominators.
``assert_canonical`` checks the stored form of computed scalars.
``witness_matrix`` expands an inclusion witness, a tuple of indices and
two-row combinations, to the matrix it stands for.

The ``reference_*`` form operations and ``evaluate`` make one field-method
call per coefficient operation, so the oracles built from them share no
code with the native arithmetic they check.
"""

from fractions import Fraction

from hypothesis import strategies as st

from twistlines.fields import QQ, PrimeField
from twistlines.forms import BinaryForm
from twistlines.frames import GradedMatrix

FIELDS = (QQ, PrimeField(10007))
ALL_FIELDS = FIELDS + (PrimeField(7),)
TWISTS = st.integers(-6, 6)
COEFFS = st.one_of(st.just(0), st.integers(-3, 3))
# denominators up to 4 stay invertible in GF(7) and GF(10007)
FRACTION_COEFFS = st.one_of(COEFFS, st.builds(Fraction, st.integers(-3, 3), st.integers(1, 4)))


@st.composite
def graded_matrices(draw, twists=TWISTS, fields=FIELDS, coeffs=COEFFS, field=None, dst=None):
    if field is None:
        field = draw(st.sampled_from(fields))
    frames = st.lists(twists, min_size=1, max_size=6)
    src = draw(frames)
    if dst is None:
        dst = draw(frames)
    rows = []
    for b in dst:
        row = []
        for a in src:
            d = b - a
            if d < 0 or draw(st.integers(0, 3)) == 3:
                row.append(BinaryForm.zero(field, d))
            else:
                values = [field.of(draw(coeffs)) for _ in range(d + 1)]
                row.append(BinaryForm(field, d, values))
        rows.append(row)
    return GradedMatrix(field, src, dst, rows)


def assert_canonical(field, values):
    """Over QQ an integral value is an int; over GF(p) a value is in [0, p)."""
    for v in values:
        if field.characteristic:
            assert type(v) is int and 0 <= v < field.characteristic
        else:
            assert type(v) is int or v.denominator > 1


def reference_add(e, g):
    f = e.field
    return BinaryForm(f, e.degree, [f.add(a, b) for a, b in zip(e.coeffs, g.coeffs)])


def reference_sub(e, g):
    f = e.field
    return BinaryForm(f, e.degree, [f.sub(a, b) for a, b in zip(e.coeffs, g.coeffs)])


def reference_neg(e):
    f = e.field
    return BinaryForm(f, e.degree, [f.neg(c) for c in e.coeffs])


def reference_mul(e, g):
    f = e.field
    d = e.degree + g.degree
    out = [f.zero] * max(0, d + 1)
    for i, x in enumerate(e.coeffs):
        for j, y in enumerate(g.coeffs):
            out[i + j] = f.add(out[i + j], f.mul(x, y))
    return BinaryForm(f, d, out)


def evaluate(m, t0, t1):
    """The scalar matrix of m's values at the point (t0, t1)."""
    f = m.field
    t0, t1 = f.of(t0), f.of(t1)

    def value(e):
        acc = f.zero
        for i, c in enumerate(e.coeffs):
            for _ in range(e.degree - i):
                c = f.mul(c, t0)
            for _ in range(i):
                c = f.mul(c, t1)
            acc = f.add(acc, c)
        return acc

    return [[value(e) for e in row] for row in m.entries]


def witness_matrix(field, frame, witness):
    """The matrix into ``frame`` whose column j is witness[j] written out:
    for an index r the unit column at r, with entry 1, and for a
    combination ((r1, s1), (r2, s2)) the column with entries
    BinaryForm.monomial(field, *s) at r1 and r2; every other entry zero."""
    columns = []
    for entry in witness:
        parts = [(entry, (0, 0))] if isinstance(entry, int) else entry
        (r, (d, *_)) = parts[0]
        a = frame[r] - d
        forms = [BinaryForm.zero(field, b - a) for b in frame]
        for r, spec in parts:
            forms[r] = BinaryForm.monomial(field, *spec)
        columns.append((a, forms))
    return GradedMatrix.from_columns(field, frame, columns)
