"""Brute-force dimensions of plane systems by fat-point interpolation.

The conditions "multiplicity >= m at a point" are the vanishing of every
Taylor coefficient of total degree < m at the point.  The columns are the
monomials x^a y^b, a + b <= delta, in triangle(delta) order (the
dehomogenized basis of degree-delta forms).  At a point (px, py) the row of
s^i t^j, for (i, j) in triangle(m - 1) order, holds the s^i t^j coefficient
of (px + s)^a (py + t)^b, the product of the jet tables of px and py: one
`chart_jets` call for all the points, the jet table of the quartic rows.
That row is the (i, j) partial derivative divided by i! j!, a unit mod p,
so the rank is the same.  Points are sampled uniformly over F_p, and the
dimension is (number of monomials) - rank - 1, min-aggregated over
independently seeded trials.
"""
from __future__ import annotations

from typing import Tuple

import numpy as np

from ..core import as_int, check_points
from .config import OracleMeasurement, PrimeFieldConfig, measure_trials
from .field import field_dtype, rank_mod_p
from .series import chart_jets, triangle


def planar_condition_rows(delta: int, points: Tuple[int, int], p: int, rng) -> np.ndarray:
    """Taylor-coefficient rows over the degree-delta monomial columns, one
    2-D array of dtype `field_dtype(p)`.

    For points = (m, n), n distinct points are drawn from `rng`, none for
    (0, 0); a group that core's check_points refuses, or a negative delta,
    raises ValueError before any draw.  The row of (i, j) in triangle(m - 1)
    at (px, py) has the entry C(a, i) px^(a-i) C(b, j) py^(b-j) mod p in the
    column of x^a y^b.
    """
    m, n = check_points(*points)
    if delta < 0:
        raise ValueError(f"delta must be non-negative, got {delta}")
    a, b = np.array(triangle(delta), dtype=np.intp).T
    if not n:
        return np.zeros((0, len(a)), dtype=field_dtype(p))
    drawn = {}  # the distinct points in draw order
    while len(drawn) < n:
        drawn[rng.randrange(p), rng.randrange(p)] = None
    jets = chart_jets(list(drawn), delta, m - 1, p)  # [n, role, k, e]
    i, j = np.array(triangle(m - 1), dtype=np.intp).T
    block = jets[:, 0, i][..., a] * jets[:, 1, j][..., b] % p  # [n, (i, j), (a, b)]
    return block.reshape(-1, len(a))


def measure_planar(
    delta: int, points: Tuple[int, int], cfg: PrimeFieldConfig, prime: int = 0
) -> OracleMeasurement:
    """Monte-Carlo dimension of L(delta, m^n), points = (m, n) and (0, 0) for
    no points, min-aggregated over trials (config.measure_trials); delta < 0
    is the empty system, measured as dim -1 with no trials.  delta and the
    pair are read as core's as_int and check_points read them, and a
    `prime` other than cfg.prime and cfg.prime2 is checked as cfg checks
    them, before any draw."""
    delta, points = as_int("delta", delta), check_points(*points)
    p = cfg.field_prime(prime)
    if delta < 0:
        return OracleMeasurement(-1, (), False, p, 0, 0)
    ncols = (delta + 2) * (delta + 1) // 2
    return measure_trials(
        lambda rng: ncols - rank_mod_p(planar_condition_rows(delta, points, p, rng), p) - 1,
        cfg, p, "planar", "planar", delta, points, ncols)
