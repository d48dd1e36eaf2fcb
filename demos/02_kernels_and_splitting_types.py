#!/usr/bin/env python3
"""Kernels, cokernels and splitting types of maps of split bundles.

Every vector bundle on the projective line splits as a sum of line
bundles, so subsheaves and quotients are described by sorted twist
multisets.  Kernels of graded matrices are free modules; the engine scans
section degrees and certifies completeness through the Hilbert function.
"""

from twistlines import (
    QQ,
    cokernel_type,
    build_phi_psi,
    kernel_free,
    verify_claim_ses,
)

print("== the binomial pair ==")
# phi: O^a -> O(b-a)^b is everywhere injective, psi: O(b-a)^b -> O(b)^(b-a)
# everywhere surjective, and together they are exact
for (a, b) in [(1, 2), (2, 3), (2, 5)]:
    phi, psi = build_phi_psi(QQ, a, b)
    print(f"(a,b)=({a},{b}):")
    print(f"  phi entries: {[[str(e) for e in row] for row in phi.entries]}")
    print(f"  psi o phi = 0: {(psi @ phi).is_zero()}")
    print(f"  coker(phi) type: {cokernel_type(phi)}")
    print(f"  ker(psi) type:   {kernel_free(psi).type}")
    print(f"  exact: {verify_claim_ses(QQ, a, b).exact}")

print()
print("== splitting-type calculus ==")
phi, psi = build_phi_psi(QQ, 2, 5)
ker = kernel_free(psi)
print(f"rank profile of phi_(2,5): {phi.rank_everywhere()}")
t = cokernel_type(phi)
print(
    f"cokernel type {t}: ample {t.is_ample}, globally generated "
    f"{t.is_globally_generated}, degree {t.degree}, rank {t.rank}"
)
print(f"dual type: {t.dual()}, tensor with itself: rank {t.tensor(t).rank}")
