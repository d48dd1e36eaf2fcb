#!/usr/bin/env python3
"""Tour of the scalar layer: binary forms, split frames, graded matrices.

Everything downstream is built from homogeneous forms in T0, T1 over an
exact field and from matrices whose (i, j) entry is homogeneous of degree
target_twist[i] - source_twist[j].
"""

from twistlines import (
    QQ,
    BinaryForm,
    GradedMatrix,
    trivial_frame,
)

T0 = BinaryForm.monomial(QQ, 1, 0)
T1 = BinaryForm.monomial(QQ, 1, 1)

print("== binary forms ==")
f = (T0 + T1) * (T0 - T1)
print(f"(T0 + T1)(T0 - T1) = {f}")
print(f"minus T0^2:         {f - T0 * T0}")

print()
print("== graded matrices ==")
# the coordinate column O(-1) -> O^2, the universal example of a subbundle
col = GradedMatrix.from_columns(QQ, trivial_frame(2), [(-1, [T0, T1])])
print(f"column {col}: entries {col.entries}")
print(f"rank profile: {col.rank_everywhere()}")
print("(generic rank 1, and the rank is 1 at every point: T0, T1 have no common zero)")

# a column that degenerates at [0:1]
bad = GradedMatrix.from_columns(
    QQ, trivial_frame(2), [(-2, [T0 * T0, T0 * T1])]
)
print(f"column with common factor T0: rank profile {bad.rank_everywhere()}")
print("(constant=False: both entries vanish at [0:1])")

print()
print("== degree pieces ==")
# the degree-n piece of O(a) has dimension max(0, n+a+1); a graded matrix
# induces a scalar matrix between pieces in each degree
for n in (0, 1, 2):
    piece = col.degree_piece(n)
    print(f"degree {n}: {piece.nrows} x {piece.ncols} scalar matrix")
piece = col.degree_piece(1)
print(f"the degree-1 matrix, flattened: {[row[0] for row in piece.matrix]}")

print()
print("== duals ==")
dual = col.transpose_dual()
print(f"transpose-dual maps {dual.src} -> {dual.dst}: entries {dual.entries}")
print("double dual returns the original:", dual.transpose_dual() == col)
