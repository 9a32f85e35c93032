"""The seed's sampling, condition rows and rank: the tests' reference for
the oracle.

`ref_k3_condition_rows` builds the condition rows over every degree-d
monomial, C(d+3, 3) columns, as the product Sub(P) . Jet3(P), one (i, j, k)
term at a time: Jet3 holds the s^i t^j w^k coefficient of each monomial
shifted to P, at (P_s + s, P_t + t, P_z + w), and Sub the coefficients of
s^i t^j psi^k, psi the local series less its constant term, which
series_reference's `ref_series_at` solves.  The oracle itself keeps only
the 2d^2 + 2 standard monomials of `column_exponents`, those with e0 <= 3
(its sampler redraws a quartic with no x0^4 term, so every trial has them),
and forms each block from the monomials restricted along the chart, on
coefficient grids.
`ref_planar_condition_rows` builds the plane rows as partial derivatives,
one falling-factorial product and one power per entry; the oracle's row
(i, j) is the Taylor coefficient, the derivative row divided by i! j!.
`ref_rank_mod_p` is the unblocked elimination, one pivot at a time over the
trailing columns.  `ref_poly_roots` finds roots with generic list
arithmetic and right-to-left powering, on any nonzero polynomial of
degree <= 4 (the oracle's takes monic quartics only; `non_residue` helps
build them with a root-free factor), and `ref_sample_quartic_instance`
draws a quartic and its points with it; it redraws only the zero quartic,
where the oracle redraws every quartic with no x0^4 or no x3^4 term
(probability about 2/p), so the two streams differ only when one of those
two coefficients is 0.  It keeps
the seed's chart rule: a point is accepted when any partial of F is
nonzero there, and solves for the largest coordinate whose partial is,
where the oracle redraws every point with F_z = 0 and solves for x3.  So it returns its own point records, `RefPoint`, with the slot it
chose, and `RefInstance.oracle_instance` is the oracle's record of the
same draw when every slot is 3.  `ref_measure_k3` is the trial loop that
samples, with that sampler, and ranks every point of the system, with its
one budget check made before it samples; the oracle stops a trial once its
rows reach full column rank.  `ref_prefix_measure_k3` is the oracle's
trial loop with that stop, on the oracle's own sampler, and
`ref_prefix_trial` its trial: when the first k points of a trial fall
short of full rank, it draws all n points again from a fresh generator
with the same tags, where the oracle sets the trial's one generator back
to its state before the prefix.
The sampler, the plane rows and the trial loop take a tuple of (m, n)
groups, as the seed did: ((m, n),) is the oracle's system (m, n), and ()
has no points.  All of them are kept verbatim in behaviour, and the tests
compare the oracle with them.
"""
from dataclasses import dataclass
from functools import partial
from typing import List, Sequence, Tuple

import numpy as np
from series_reference import binomial_shift, dense_mul, ref_eval_scalar, ref_series_at, unit_pairs

from k3fat.core import K3System, point_conditions
from k3fat.oracle.config import (
    BudgetExceededError,
    OracleMeasurement,
    SamplingError,
    check_budget,
    derived_rng,
)
from k3fat.oracle.field import field_dtype, inverse_mod, rank_mod_p
from k3fat.oracle.quartic import (
    QuarticSurfaceInstance,
    _dehomogenize,
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
    order = instance.multiplicity - 1
    for pt in instance.points:
        jet_a, jet_b, jet_c = (_jet_factors(x, e, d, order, p, dtype) for x, e in zip(pt, exps))
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


# ---------------------------------------------------------------------------
# Reference root finding: generic list arithmetic, right-to-left powering.


def _ref_strip(f):
    while f and f[-1] == 0:
        f.pop()
    return f


def _ref_mul(f, g, p):
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, fi in enumerate(f):
        for j, gj in enumerate(g):
            out[i + j] = (out[i + j] + fi * gj) % p
    return _ref_strip(out)


def _ref_divmod(f, g, p):
    f = list(f)
    dg = len(g) - 1
    q = [0] * max(0, len(f) - dg)
    while len(f) - 1 >= dg and f:
        lead = f[-1] % p
        shift = len(f) - 1 - dg
        if lead:
            q[shift] = lead
            for i in range(dg):
                f[shift + i] = (f[shift + i] - lead * g[i]) % p
        f.pop()
    return _ref_strip(q), _ref_strip(f)


def _ref_monic(f, p):
    f = _ref_strip([c % p for c in f])
    if not f:
        return []
    inv = inverse_mod(f[-1], p)
    return [(c * inv) % p for c in f]


def _ref_gcd(f, g, p):
    f, g = _ref_monic(f, p), _ref_monic(g, p)
    while g:
        f, g = g, _ref_monic(_ref_divmod(f, g, p)[1], p)
    return f


def _ref_powmod(base, e, mod, p):
    result = [1]
    base = _ref_divmod(base, mod, p)[1]
    while e:
        if e & 1:
            result = _ref_divmod(_ref_mul(result, base, p), mod, p)[1]
        base = _ref_divmod(_ref_mul(base, base, p), mod, p)[1]
        e >>= 1
    return result


def _ref_split(g, p, rng):
    deg = len(g) - 1
    if deg <= 0:
        return []
    if deg == 1:
        return [(-g[0]) % p]
    while True:
        shift = rng.randrange(p)
        h = _ref_powmod([shift, 1], (p - 1) // 2, g, p) or [0]
        h[0] = (h[0] - 1) % p
        d = _ref_gcd(_ref_strip(h), g, p)
        if 0 < len(d) - 1 < deg:
            q, r = _ref_divmod(g, d, p)
            assert not r
            return _ref_split(d, p, rng) + _ref_split(_ref_monic(q, p), p, rng)


def non_residue(p, start=2):
    """The least quadratic non-residue mod p from `start` on (Euler's criterion)."""
    c = start
    while pow(c, (p - 1) // 2, p) != p - 1:
        c += 1
    return c


def ref_poly_roots(coeffs, p, rng):
    f = _ref_monic(coeffs, p)
    if len(f) == 1:
        return []
    xp = _ref_powmod([0, 1], p, f, p)
    xp_minus_x = list(xp) + [0] * max(0, 2 - len(xp))
    xp_minus_x[1] = (xp_minus_x[1] - 1) % p
    return sorted(_ref_split(_ref_gcd(_ref_strip(xp_minus_x), f, p), p, rng))


# ---------------------------------------------------------------------------
# Reference sampling: the seed's sampler, which redraws only the zero quartic.


def _ref_partial(f_affine, slot, p):
    """The partial of f along the affine slot `slot` (1-based), term by term."""
    out = {}
    for exps, c in f_affine.items():
        if exps[slot - 1]:
            out[tuple(e - (i == slot - 1) for i, e in enumerate(exps))] = exps[slot - 1] * c % p
    return out


@dataclass(frozen=True)
class RefPoint:
    """A point the reference sampler drew, and the 1-based slot of the
    coordinate its chart solves for."""

    affine: Tuple[int, int, int]
    multiplicity: int
    solved_slot: int


@dataclass(frozen=True)
class RefInstance:
    """A quartic and the points the reference sampler drew on it."""

    prime: int
    coefficients: tuple
    points: Tuple[RefPoint, ...]

    def oracle_instance(self) -> QuarticSurfaceInstance:
        """The same draw as the oracle records it, x3 solved at every point;
        a point solved along another slot, or two multiplicities, raise
        ValueError: the oracle would have drawn differently."""
        slots = {pt.solved_slot for pt in self.points}
        if slots - {3}:
            raise ValueError(f"the reference solved along slots {sorted(slots)}")
        multiplicities = {pt.multiplicity for pt in self.points} or {0}
        if len(multiplicities) > 1:
            raise ValueError(f"the points hold multiplicities {sorted(multiplicities)}")
        return QuarticSurfaceInstance(self.prime, self.coefficients, multiplicities.pop(),
                                      tuple(pt.affine for pt in self.points))


def _ref_sample_point(f_affine, p, rng, seen):
    partials = {slot: _ref_partial(f_affine, slot, p) for slot in (1, 2, 3)}
    for _ in range(256):
        a = rng.randrange(p)
        b = rng.randrange(p)
        restricted = [0, 0, 0, 0, 0]
        for (e1, e2, e3), c in f_affine.items():
            restricted[e3] = (restricted[e3] + c * pow(a, e1, p) * pow(b, e2, p)) % p
        if not any(restricted):
            continue
        roots = ref_poly_roots(restricted, p, rng)
        if not roots:
            continue
        z = roots[rng.randrange(len(roots))]
        if (a, b, z) in seen:
            continue
        for slot in (3, 2, 1):
            if ref_eval_scalar(partials[slot], a, b, z, p) != 0:
                return (a, b, z), slot
    raise SamplingError("could not sample a smooth surface point within budget")


def ref_sample_quartic_instance(groups, p, rng):
    for _ in range(32):
        coeffs = {e: rng.randrange(p) for e in monomial_exponents(4)}
        if not any(coeffs.values()):
            continue
        f_affine = {k: v for k, v in _dehomogenize(coeffs).items() if v % p}
        try:
            points = []
            seen = set()
            for m, count in groups:
                for _ in range(count):
                    affine, solved = _ref_sample_point(f_affine, p, rng, seen)
                    seen.add(affine)
                    points.append(RefPoint(affine, m, solved))
            return RefInstance(p, tuple(sorted(coeffs.items())), tuple(points))
        except SamplingError:
            continue
    raise SamplingError("could not sample a usable quartic within budget")


def ref_measure_k3(d: int, groups, cfg, prime: int = 0) -> OracleMeasurement:
    """measure_k3 with every point of every trial sampled, by the reference
    sampler, and ranked; groups is a tuple of (m, n) groups, ((m, n),) for
    the oracle's (m, n) and () for no points."""
    if d < 1:
        raise ValueError("d must be positive")
    p = prime or cfg.prime
    groups = tuple(sorted(((int(m), int(n)) for m, n in groups), reverse=True))
    ncols = num_surface_forms(d)
    nrows = sum(n * point_conditions(m) for m, n in groups)
    if nrows > cfg.budget_rows or ncols > cfg.budget_rows:
        raise BudgetExceededError(
            f"quartic condition matrix {nrows}x{ncols} exceeds budget {cfg.budget_rows}"
        )
    trial_dims = []
    for trial in range(cfg.trials):
        rng = derived_rng(cfg.seed, "k3", p, d, groups, trial)
        instance = ref_sample_quartic_instance(groups, p, rng).oracle_instance()
        rows = k3_condition_rows(d, instance)
        rank = rank_mod_p(rows, p) if rows else 0
        trial_dims.append(ncols - rank - 1)
    dim = min(trial_dims)
    low_confidence = len(set(trial_dims)) > 1
    return OracleMeasurement(dim, tuple(trial_dims), low_confidence, p, nrows, ncols)


def ref_prefix_trial(d: int, points, p: int, new_rng) -> int:
    """One trial of ref_prefix_measure_k3, on the generators that new_rng()
    makes, each fresh with the same state: the rows of the first k points,
    k = ceil((2d^2 + 2) / (m(m+1)/2)), are ranked when k < n, and at full
    rank the trial's dim is -1; otherwise all n points are drawn from a
    fresh generator and ranked.  points = (m, n), (0, 0) for no points."""
    m, n = points
    ncols = num_surface_forms(d)
    k = -(-ncols // point_conditions(m)) if n else 0
    if k < n:
        instance = sample_quartic_instance((m, k), p, new_rng())
        if rank_mod_p(k3_condition_rows(d, instance), p) == ncols:
            return -1
    instance = sample_quartic_instance((m, n), p, new_rng())
    return ncols - rank_mod_p(k3_condition_rows(d, instance), p) - 1


def ref_prefix_measure_k3(d: int, points, cfg, prime: int = 0) -> OracleMeasurement:
    """measure_k3 with two generators per trial that does not stop
    (ref_prefix_trial), each derived with the trial's tags.  points =
    (m, n), (0, 0) for no points."""
    sys = K3System(4, d, *points)
    d, m, n = sys.degree, sys.multiplicity, sys.count
    p = prime or cfg.prime
    ncols = num_surface_forms(d)
    nrows = n * point_conditions(m)
    check_budget(cfg, "quartic", nrows, ncols)
    group = ((m, n),) if n else ()
    trial_dims = []
    for trial in range(cfg.trials):
        new_rng = partial(derived_rng, cfg.seed, "k3", p, d, group, trial)
        trial_dims.append(ref_prefix_trial(d, (m, n), p, new_rng))
    return OracleMeasurement.from_trials(trial_dims, p, nrows, ncols)
