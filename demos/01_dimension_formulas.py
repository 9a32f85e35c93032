#!/usr/bin/env python3
"""Virtual and expected dimensions of fat-point systems.

A curve system of degree d on a K3 surface whose Picard generator has
self-intersection gamma moves in a projective family of dimension
gamma*d^2/2 + 1.  A point of multiplicity m imposes m(m+1)/2 linear
conditions, so the virtual dimension is the ambient dimension minus the
conditions, and the expected dimension clamps at -1 (empty system).
"""
from k3fat import K3System, edim, point_conditions, vdim_k3, vdim_planar

print("Unconditioned quartic-surface systems (gamma = 4):")
for d in range(1, 5):
    sys = K3System(4, d)
    print(f"  |{d}H|: dim = {vdim_k3(sys)}")

print("\nImposing fat points on L^4(3, .):")
for m, n in [(1, 9), (2, 4), (2, 9), (6, 1)]:
    sys = K3System.homogeneous(4, 3, m, n)
    v = vdim_k3(sys)
    print(f"  {n} points of multiplicity {m}: vdim = {v:4d}, edim = {edim(v)}")

print("\nMixed multiplicities are allowed in the formulas:")
v = vdim_k3(K3System(4, 3)) - 3 * point_conditions(2) - 5 * point_conditions(1)
print(f"  three double and five simple points: vdim = {v}")

print("\nPlane systems L(delta, mu^nu):")
for delta, mu, nu in [(2, 1, 4), (4, 2, 4), (3, 2, 4), (-1, 2, 4)]:
    print(f"  L({delta}, {mu}^{nu}): vdim = {vdim_planar(delta, mu, nu)}")
print("  (negative degree means the empty system by convention)")

print("\nThe interesting question is when the true dimension EXCEEDS edim:")
print("such systems are called special, and the rest of the package decides")
print("(non-)speciality for homogeneous systems with n = 4^u * 9^w points.")
