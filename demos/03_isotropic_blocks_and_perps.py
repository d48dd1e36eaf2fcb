#!/usr/bin/env python3
"""Bilinear pairings, isotropic subbundles and annihilator calculus.

The workhorse block lives in a hyperbolic pairing of dimension 2b: a
rank-2a isotropic subbundle with trivial perp quotient and ample dual.
"""

from twistlines import (
    QQ,
    GradedMatrix,
    Pairing,
    SplittingType,
    build_E2a2b,
    build_isotropic,
    build_phi_psi,
    cokernel_type,
    is_isotropic,
    perp,
    quotient_type,
    same_subsheaf,
)
from twistlines.sheaves import pairing_map

print("== hyperbolic pairings ==")
for flavor in ("symmetric", "skew"):
    beta = Pairing.hyperbolic(QQ, 2, flavor)
    print(f"{flavor}: Gram matrix {[list(map(int, r)) for r in beta.matrix]}")

print()
print("== the rank-2a block ==")
for (a, b, flavor) in [(1, 2, "symmetric"), (1, 3, "symmetric"), (2, 5, "skew")]:
    beta, e = build_E2a2b(QQ, a, b, flavor)
    pq = quotient_type(e, perp(e, beta))
    print(f"(a,b)=({a},{b}) {flavor}:")
    print(f"  type {e.type}, isotropic: {is_isotropic(e, beta)}")
    print(f"  perp/E type: {pq} (rank 2b-4a = {2 * b - 4 * a})")
    print(f"  dual type {e.type.dual()} ample: {e.type.dual().is_ample}")

print()
print("== self-annihilating block ==")
beta, e = build_E2a2b(QQ, 1, 2, "symmetric")
print("b = 2a: the block equals its own annihilator:", same_subsheaf(e, perp(e, beta)))

print()
print("== perp is an involution ==")
beta, e = build_E2a2b(QQ, 1, 3, "skew")
print("perp(perp(E)) == E:", same_subsheaf(perp(perp(e, beta), beta), e))

print()
print("== perp/E two ways: a kernel scan, or the two binomial sequences ==")
# E's generator is phi_plus on the e-half and phi_minus on the x-half; with
# c = b - a, psi' = psi_(a,b)(-c), inner = phi_(a,c)(-c) and psi'' =
# psi_(a,c)(-c) are the witness that certify reads from Part.witness
# (proof in verify._witnessed_quotient).  (inner, psi'') is an exact pair,
# so coker(inner) is read from the frame of psi'' (verify._exact_pair)
a, b, c = 2, 7, 5
beta, e = build_E2a2b(QQ, a, b, "skew")
psi = build_phi_psi(QQ, a, b)[1].twist(-c)  # O^b -> O(a)^c
inner, psi2 = (m.twist(-c) for m in build_phi_psi(QQ, a, c))  # O(-c)^a -> O(-a)^c -> O^(c-a)
rows = e.gen.entries
phi_plus = GradedMatrix(QQ, e.gen.src[:a], (0,) * b, [row[:a] for row in rows[:b]])
phi_minus = GradedMatrix(QQ, e.gen.src[a:], (0,) * b, [row[a:] for row in rows[b:]])
print(f"(a,b)=({a},{b}) skew:")
print(f"  psi' onto at every point: {psi.rank_everywhere() == (c, True)}")
print(f"  psi' phi_plus = 0: {(psi @ phi_plus).is_zero()}")
print(f"  psi'^T inner = phi_minus: {psi.transpose_dual() @ inner == phi_minus}")
print(f"  psi'' onto at every point: {psi2.rank_everywhere() == (c - a, True)}")
print(f"  psi'' inner = 0: {(psi2 @ inner).is_zero()}")
q = SplittingType(psi2.dst)
print(f"  coker(inner) from the frame of psi'': {q}, by a cokernel scan: {cokernel_type(inner)}")
print(f"  coker(inner) with its dual: {SplittingType(q.twists + q.dual().twists)}")
print(f"  kernel scan and lift:       {quotient_type(e, perp(e, beta))}")

print()
print("== the skew cubic block's perp/top two ways: a kernel scan, or its lift witness ==")
# skew (6, 2) is the cubic block alone; the skew rule asks for perp(g)/E,
# g the low member.  The builder hands certify P, a basis of perp(g), and
# L with P @ L = E (its Part.witness); proof in verify._lifted_quotient
fam = build_isotropic(QQ, 6, 2, "skew")
low, top = fam.members[0], fam.members[-1]
p, lift = fam.blocks[0].witness
print(f"{fam.case} (n, k) = (6, 2):")
print(f"  pairing_map(g) @ P = 0: {(pairing_map(low, fam.pairing) @ p).is_zero()}")
print(f"  P everywhere injective: {p.rank_everywhere() == (p.ncols, True)}")
print(f"  P has 6 - rank g = {p.ncols} columns, P @ L = E: {p @ lift == top.gen}")
print(f"  coker(L):             {cokernel_type(lift)}")
print(f"  kernel scan and lift: {quotient_type(top, perp(low, fam.pairing))}")
