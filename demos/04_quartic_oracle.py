#!/usr/bin/env python3
"""The quartic-surface oracle: measuring dimensions on a random quartic.

A random quartic F in P^3 over F_p plays the role of a very general K3
surface with gamma = 4.  Points are sampled on the surface by solving the
degree-4 restriction of F along a coordinate line (roots found by
equal-degree splitting), and a point of multiplicity m contributes the
coefficients of total degree < m of each monomial restricted to the
surface through its implicit local series z = phi(x, y).
"""
from random import Random

from k3fat import K3System, PrimeFieldConfig, vdim_k3
from k3fat.oracle import (
    k3_condition_rows,
    measure_k3,
    rank_mod_p,
    sample_quartic_instance,
    solve_implicit,
)
from k3fat.oracle.series import chart_jets, triangle

cfg = PrimeFieldConfig(seed=11, trials=3, prime2=None)
p = cfg.prime

print("Sampling a quartic with one point of multiplicity 4:")
instance = sample_quartic_instance((4, 1), p, Random(3))
pt = instance.points[0]
print(f"  point (chart x0=1): {pt}")
print("  solved coordinate slot: 3, parameters: (1, 2)")  # every point's one chart
jets = chart_jets([pt], 4, 3, p)  # the point's jet table: the quartic's columns, rows 0..3
phi = solve_implicit(instance.affine_poly(), jets, 3, p)[0]
phi[0, 0] = pt[2]  # phi = z + psi
terms = [(ij, int(phi[ij])) for ij in triangle(3) if phi[ij]][:6]
print(f"  local series phi (first terms): {terms}")

print("\nThe doubled tangent-plane section: 10 conditions on 10 quadric")
print("monomials, but the condition matrix drops rank by exactly one:")
rows = k3_condition_rows(2, instance)
print(f"  rank of the 10x10 matrix: {rank_mod_p(rows, p)}")
m = measure_k3(2, (4, 1), cfg)
print(f"  measured dim of L^4(2, 4) = {m.dim}  (vdim = "
      f"{vdim_k3(K3System.homogeneous(4, 2, 4, 1))}, so the system is special)")

print("\nThe classification wall for single points, d = 3:")
for mu in (5, 6, 7):
    got = measure_k3(3, (mu, 1), cfg).dim
    print(f"  L^4(3, {mu}): dim = {got}")
print("  (below the wall: non-special; at mu = 2d: the single divisor;")
print("   above: empty)")

print("\nMulti-point systems match the engine's certified dimensions:")
for d, mu, n in [(3, 1, 9), (4, 2, 9), (2, 2, 4)]:
    sys = K3System.homogeneous(4, d, mu, n)
    got = measure_k3(d, (mu, n), cfg).dim
    print(f"  L^4({d}, {mu}^{n}): oracle dim = {got}, vdim = {vdim_k3(sys)}")

print("\nDegree-d multiples of F cut no divisor, so for d >= 4 the ambient")
print("dimension is C(d+3,3) - C(d-1,3) - 1:")
m = measure_k3(5, (0, 0), cfg)
print(f"  unconditioned d = 5: dim = {m.dim} = 2*25 + 1")
