"""The seed's condition rows and rank: the tests' reference for the oracle.

`ref_k3_condition_rows` builds the condition rows over every degree-d
monomial, C(d+3, 3) columns, as the product Sub(P) . Jet3(P), one (i, j, k)
term at a time: Jet3 holds the s^i t^j w^k coefficient of each monomial
shifted to P, at (P_s + s, P_t + t, P_z + w), and Sub the coefficients of
s^i t^j psi^k, psi the local series less its constant term, which
series_reference's `ref_series_at` solves.  The oracle itself keeps only
the 2d^2 + 2 standard monomials of `QuarticSurfaceInstance.column_exponents`
(its sampler redraws a quartic with no pure fourth power, so every trial
has them) and forms each block from the monomials restricted along the
chart, on coefficient grids.
`ref_planar_condition_rows` builds the plane rows as partial derivatives,
one falling-factorial product and one power per entry; the oracle's row
(i, j) is the Taylor coefficient, the derivative row divided by i! j!.
`ref_rank_mod_p` is the unblocked elimination, one pivot at a time over the
trailing columns.  `ref_measure_k3` is the trial loop that samples and
ranks every point of the system, with its one budget check made before
it samples; the oracle stops a trial once its rows reach full column rank.
All of them are kept verbatim in behaviour, and the tests compare the
oracle with them.
"""
from typing import List, Sequence, Tuple

import numpy as np
from series_reference import binomial_shift, dense_mul, ref_series_at, unit_pairs

from k3fat.core import point_conditions
from k3fat.oracle.config import BudgetExceededError, OracleMeasurement, derived_rng
from k3fat.oracle.field import field_dtype, inverse_mod, rank_mod_p
from k3fat.oracle.quartic import (
    k3_condition_rows,
    monomial_exponents,
    num_surface_forms,
    sample_quartic_instance,
)
from k3fat.oracle.series import triangle


def ref_rank_mod_p(matrix, p: int) -> int:
    """Exact rank over F_p by row elimination, one pivot at a time."""
    arr = np.asarray(matrix)
    if arr.size == 0:
        return 0
    if arr.ndim != 2:
        raise ValueError("matrix must be two-dimensional")
    if arr.shape[0] > arr.shape[1]:
        arr = arr.T
    a = np.array(arr, dtype=field_dtype(p)) % p
    n_rows, n_cols = a.shape
    rank = 0
    for col in range(n_cols):
        pivot = None
        for i in range(rank, n_rows):
            if a[i, col] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        if pivot != rank:
            a[[rank, pivot], col:] = a[[pivot, rank], col:]
        inv = inverse_mod(int(a[rank, col]), p)
        a[rank, col:] = (a[rank, col:] * inv) % p
        below = a[rank + 1:, col]
        nz = np.nonzero(below)[0]
        if nz.size:
            rows = nz + rank + 1
            factors = a[rows, col]
            a[rows, col:] = (a[rows, col:] - factors[:, None] * a[rank, col:][None, :]) % p
        rank += 1
        if rank == n_rows:
            break
    return rank


def _jet_factors(coord: int, exps, d: int, order: int, p: int, dtype) -> list:
    return [np.array(row, dtype=dtype)[exps] for row in binomial_shift(coord, d, order, p)]


def _substitution(psi: Sequence[int], order: int, p: int) -> list:
    """For each (i, j, k) with i + j + k <= order, the nonzero coefficients
    (row, c) of s^i t^j psi^k, where row indexes triangle(order)."""
    pos = triangle(order)
    index = {ij: n for n, ij in enumerate(pos)}
    pairs = unit_pairs(order)
    powers = [[1] + [0] * (len(pos) - 1)]
    for _ in range(order):
        powers.append(dense_mul(powers[-1], psi, pairs, p))
    out = []
    for i, j in pos:
        for k in range(order + 1 - i - j):
            entries = []
            for n, (a, b) in enumerate(pos):
                if a >= i and b >= j:
                    c = powers[k][index[(a - i, b - j)]]
                    if c:
                        entries.append((n, c))
            out.append((i, j, k, entries))
    return out


def ref_k3_condition_rows(d: int, instance) -> List[List[int]]:
    """Condition rows over all C(d+3, 3) degree-d monomial columns."""
    p = instance.prime
    dtype = field_dtype(p)
    exps = np.array(monomial_exponents(d), dtype=np.int64)[:, 1:].T
    rows: List[List[int]] = []
    for pt in instance.points:
        order = pt.multiplicity - 1
        sa, sb = pt.param_slots
        jet_a, jet_b, jet_c = (
            _jet_factors(pt.affine[slot - 1], exps[slot - 1], d, order, p, dtype)
            for slot in (sa, sb, pt.solved_slot)
        )
        psi = (0, *ref_series_at(instance, pt)[1:]) if order else (0,)
        block = [0] * len(psi)
        for i, j, k, entries in _substitution(psi, order, p):
            jet = jet_a[i] * jet_b[j] % p * jet_c[k] % p
            for n, c in entries:
                block[n] = (block[n] + c * jet) % p
        rows.extend(row.tolist() for row in block)
    return rows


def _falling(a: int, i: int) -> int:
    out = 1
    for j in range(i):
        out *= a - j
    return out


def ref_planar_condition_rows(
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


def ref_measure_k3(d: int, points, cfg, prime: int = 0) -> OracleMeasurement:
    """measure_k3 with every point of every trial sampled and ranked."""
    if d < 1:
        raise ValueError("d must be positive")
    p = prime or cfg.prime
    groups = tuple(sorted(((int(m), int(n)) for m, n in points), reverse=True))
    ncols = num_surface_forms(d)
    nrows = sum(n * point_conditions(m) for m, n in groups)
    if nrows > cfg.budget_rows or ncols > cfg.budget_rows:
        raise BudgetExceededError(
            f"quartic condition matrix {nrows}x{ncols} exceeds budget {cfg.budget_rows}"
        )
    trial_dims = []
    for trial in range(cfg.trials):
        rng = derived_rng(cfg.seed, "k3", p, d, groups, trial)
        instance = sample_quartic_instance(groups, p, rng)
        rows = k3_condition_rows(d, instance)
        rank = rank_mod_p(rows, p) if rows else 0
        trial_dims.append(ncols - rank - 1)
    dim = min(trial_dims)
    low_confidence = len(set(trial_dims)) > 1
    return OracleMeasurement(dim, tuple(trial_dims), low_confidence, p, nrows, ncols)
