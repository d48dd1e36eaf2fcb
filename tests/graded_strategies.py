"""Hypothesis strategy for random graded matrices, shared by the property tests.

Frames have rank at most 6 and twists in [-6, 6] (or from a given
strategy); entries in a negative twist gap are zero (as the constructor
requires), and about one in four of the other entries is zero too, so zero
entries, zero columns and rank drops are common.
"""

from hypothesis import strategies as st

from twistlines.fields import QQ, PrimeField
from twistlines.forms import BinaryForm
from twistlines.frames import GradedMatrix

FIELDS = (QQ, PrimeField(10007))
TWISTS = st.integers(-6, 6)
COEFFS = st.one_of(st.just(0), st.integers(-3, 3))


@st.composite
def graded_matrices(draw, twists=TWISTS):
    field = draw(st.sampled_from(FIELDS))
    frames = st.lists(twists, min_size=1, max_size=6)
    src = draw(frames)
    dst = draw(frames)
    rows = []
    for b in dst:
        row = []
        for a in src:
            d = b - a
            if d < 0 or draw(st.integers(0, 3)) == 3:
                row.append(BinaryForm.zero(field, d))
            else:
                coeffs = [field.of(draw(COEFFS)) for _ in range(d + 1)]
                row.append(BinaryForm(field, d, coeffs))
        rows.append(row)
    return GradedMatrix(field, src, dst, rows)
