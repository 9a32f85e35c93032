#!/usr/bin/env python3
"""The planar interpolation oracle: exact ranks over a large prime field.

Fat-point conditions in the plane are rows of Taylor coefficients: at a
point (px, py) of multiplicity m, the row of s^i t^j (i + j < m) holds the
s^i t^j coefficient of every monomial x^a y^b shifted to (px + s, py + t).
The measured dimension is (#monomials) - rank - 1.  Random points over F_p
model general position: a wrong answer needs an unlucky rank drop, which
one trial suffers with probability at most rows * delta / p
(Schwartz-Zippel), and the minimum over independently seeded trials is
wrong only when every trial drops.
"""
from k3fat import PrimeFieldConfig, vdim_planar
from k3fat.oracle import measure_planar, planar_condition_rows, derived_rng, rank_mod_p

cfg = PrimeFieldConfig(seed=7, trials=3, prime2=None)
p = cfg.prime

print("The unique line through two points:")
m = measure_planar(1, (1, 2), cfg)
print(f"  L(1, 1^2): dim = {m.dim} (matrix {m.rows}x{m.cols}, trials {m.trial_dims})")

print("\nConics through four general points form a pencil:")
m = measure_planar(2, (1, 4), cfg)
print(f"  L(2, 1^4): dim = {m.dim}")

print("\nThe canonical SPECIAL detection: two double points on a conic.")
print("vdim says empty, but the doubled line through the points exists:")
m = measure_planar(2, (2, 2), cfg)
rows = planar_condition_rows(2, (2, 2), p, derived_rng(cfg.seed, "demo", p))
print(f"  L(2, 2^2): vdim = {vdim_planar(2, 2, 2)}, measured dim = {m.dim}")
print(f"  the 6x6 condition matrix has rank {rank_mod_p(rows, p)} (one dependency)")

print("\nHomogeneous systems with 4 or 9 points are never special;")
print("the oracle reproduces max(-1, vdim) across a degree/multiplicity grid:")
for c in (4, 9):
    line = []
    for delta in range(0, 11):
        mu = 2
        got = measure_planar(delta, (mu, c), cfg).dim
        expected = max(-1, vdim_planar(delta, mu, c))
        assert got == expected, (delta, mu, c)
        line.append(f"{got:3d}")
    print(f"  c={c}, mu=2, delta=0..10: {' '.join(line)}")
print("  (every entry equals the expected dimension)")
