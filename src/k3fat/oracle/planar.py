"""Brute-force dimensions of plane systems by fat-point interpolation.

The conditions "multiplicity >= m at a point" are the vanishing of all
partial derivatives of order < m.  Rows are those derivative functionals
evaluated on the monomial basis of degree-delta forms at uniformly sampled
affine points; the dimension is (number of monomials) - rank - 1, minimized
over independently seeded trials.
"""
from __future__ import annotations

from typing import List, Sequence, Tuple

from ..core import PlanarSystem, point_conditions
from .config import BudgetExceededError, OracleMeasurement, PrimeFieldConfig, derived_rng
from .field import rank_mod_p


def _falling(a: int, i: int) -> int:
    out = 1
    for j in range(i):
        out *= a - j
    return out


def planar_condition_rows(
    delta: int, groups: Sequence[Tuple[int, int]], p: int, rng
) -> List[List[int]]:
    """Derivative-condition rows over the degree-delta monomial columns.

    Columns are the monomials x^a y^b with a + b <= delta (the dehomogenized
    basis); for each sampled point and each derivative order (i, j) with
    i + j < m the row holds d^(i+j)/dx^i dy^j of every monomial at the point.
    """
    monomials = [(a, b) for a in range(delta + 1) for b in range(delta + 1 - a)]
    rows: List[List[int]] = []
    seen = set()
    for m, count in groups:
        for _ in range(count):
            while True:
                px, py = rng.randrange(p), rng.randrange(p)
                if (px, py) not in seen:
                    seen.add((px, py))
                    break
            xp = [pow(px, e, p) for e in range(delta + 1)]
            yp = [pow(py, e, p) for e in range(delta + 1)]
            for i in range(m):
                for j in range(m - i):
                    row = []
                    for a, b in monomials:
                        if a < i or b < j:
                            row.append(0)
                        else:
                            coef = _falling(a, i) * _falling(b, j)
                            row.append(coef * xp[a - i] % p * yp[b - j] % p)
                    rows.append(row)
    return rows


def measure_planar(sys: PlanarSystem, cfg: PrimeFieldConfig, prime: int = 0) -> OracleMeasurement:
    """Monte-Carlo dimension of a plane system, min-aggregated over trials."""
    p = prime or cfg.prime
    delta = sys.degree
    groups = ((sys.multiplicity, sys.count),) if sys.count else ()
    if delta < 0:
        return OracleMeasurement(-1, (), False, p, 0, 0)
    ncols = (delta + 2) * (delta + 1) // 2
    nrows = sum(n * point_conditions(m) for m, n in groups)
    if nrows > cfg.budget_rows or ncols > cfg.budget_rows:
        raise BudgetExceededError(
            f"planar condition matrix {nrows}x{ncols} exceeds budget {cfg.budget_rows}"
        )
    trial_dims = []
    for trial in range(cfg.trials):
        rng = derived_rng(cfg.seed, "planar", p, delta, groups, trial)
        rows = planar_condition_rows(delta, groups, p, rng)
        rank = rank_mod_p(rows, p) if rows else 0
        trial_dims.append(ncols - rank - 1)
    dim = min(trial_dims)
    low_confidence = len(set(trial_dims)) > 1
    return OracleMeasurement(dim, tuple(trial_dims), low_confidence, p, nrows, ncols)
