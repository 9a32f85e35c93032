"""Ground-truth dimensions on a random quartic surface in P^3 over F_p.

Divisors cut on a smooth quartic S = {F = 0} by degree-d forms realize the
degree-d systems on a K3 surface with gamma = 4.  A fat point of
multiplicity m at a smooth point P of S imposes the vanishing of every
coefficient of total degree < m of G restricted to S in local coordinates
at P, where the restriction is computed through the implicit local series
z = phi(x, y) of the surface.

F leads with x0^4 and x3^4: the sampler redraws a quartic without either
(probability about 2/p).  The columns are a basis of H^0(O_S(d)), not of
all degree-d forms: in lex order the leading term of F is a multiple of
x0^4, and the division algorithm writes every degree-d form as F * G plus a
combination of the standard monomials, those with e_0 <= 3; F * G is zero
on S (Cox, Little and O'Shea, Ideals, Varieties, and Algorithms, ch. 2).  In
the chart x0 = 1 they are the monomials of degree at least d - 3,
C(d+3,3) - C(d-1,3) = 2d^2 + 2 of them, the same for every instance
(column_exponents).  So the ambient projective dimension is ncols - 1 and
the measured dimension of the system is that minus the rank of the
condition matrix.  Every condition row vanishes on the multiples of F, so
the rank on the standard columns equals the rank on all monomials.

Points are drawn in the chart x0 = 1: a uniform (x1, x2) = (a, b), then a
uniform root z of r(T) = F(1, a, b, T).  F's affine terms are scaled once
per quartic by the inverse of its x3^4 coefficient, r's T^4 coefficient, so
every r is a monic quartic, the one shape poly_roots takes.  A point where
z is a multiple root of r, r'(z) = F_z(P) = 0, is redrawn, as is a line
with no root or a point drawn before; so every point is smooth and has the
one chart, x3 solved over (x1, x2).  As x3^4 is in F, (0 : 0 : 0 : 1) is
off S, and the vertical lines tangent to S lie over the branch curve of the
projection from it, of degree 12, so a uniform (a, b) is redrawn for this
with probability at most about 12/p.

The block of conditions at a point P of multiplicity m holds the truncated
Taylor series of each column monomial restricted along the chart at P: the
row of s^a t^b, for (a, b) in triangle(m - 1) order, holds its s^a t^b
coefficient.  With s = x1 - P_1, t = x2 - P_2 and z = x3 = P_z + psi, the
column x^e restricts to (P_1 + s)^(e_1) (P_2 + t)^(e_2) (P_z + psi)^(e_3).
Series and restrictions are one representation, m x m coefficient grids
over (a, b) (see the series module), with one kernel, `restrict`.  F
along the chart is sum_e c_e restrict(x^e) over F's own terms, so
`solve_implicit` fixes psi for all the points of an instance, which
share one multiplicity, from that sum, and the block of the degree-d
columns is `restrict` of those columns with that psi.  That solve checks
every point, simple points at order 0 included, so a hand-built instance
is held to the same check as a sampled one.  `k3_condition_rows` builds
one jet table per trial, columns up to max(d, 4), for the solve and every
chunk: the table and psi are small for all the points; the grids are not.
It allocates the condition matrix once, after the first chunk's
`restrict` has returned, and fills it one chunk of points at a time: each
chunk takes as many points as fit _CHUNK_ENTRIES grid entries (points x
columns x m^2), and at least one, restricts its slice of the table, and
its entries at triangle(m - 1) are gathered into its rows.  A point's rows
depend on that point alone, so the chunks give the rows of one call, and
the grids in memory at once are one chunk's, not every point's.  Every
int64 step reduces each product of two reduced entries before it adds,
also in the sum over F's 35 terms, so it stays exact in `field_dtype`.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Tuple

import numpy as np

from ..core import K3System, check_points, point_conditions
from .config import (
    OracleMeasurement,
    PrimeFieldConfig,
    SamplingError,
    measure_trials,
    num_surface_forms,
)
from .field import inverse_mod, poly_roots, rank_mod_p
from .series import chart_jets, powers, restrict, solve_implicit, triangle

_MAX_POINT_ATTEMPTS = 256
_MAX_SURFACE_ATTEMPTS = 32
# Grid entries (points x columns x m^2) that one chunk of points restricts
# at once, and at least one point: of 2^12 to 2^15, 2^14 was measured as
# fast as one chunk on the oracle_large instances and lowest in peak RSS,
# and it holds every trial of the acceptance grid in one chunk.
_CHUNK_ENTRIES = 1 << 14

Exponents = Tuple[int, int, int, int]


def monomial_exponents(degree: int, nvars: int = 4) -> List[Tuple[int, ...]]:
    """Exponent tuples of total degree `degree`, in a fixed lexicographic order."""
    if nvars == 1:
        return [(degree,)]
    out = []
    for e in range(degree, -1, -1):
        for rest in monomial_exponents(degree - e, nvars - 1):
            out.append((e,) + rest)
    return out


_QUARTIC_EXPONENTS = tuple(monomial_exponents(4))  # the terms of a random quartic, drawn in order
_X0_FOURTH, _X3_FOURTH = _QUARTIC_EXPONENTS[0], _QUARTIC_EXPONENTS[-1]


@lru_cache(maxsize=64)
def column_exponents(d: int) -> np.ndarray:
    """The degree-d standard monomials, those with e_0 <= 3, that index the
    condition columns: a read-only (2d^2 + 2, 4) array of rows
    (e0, e1, e2, e3) in monomial_exponents order."""
    exps = np.array([e for e in monomial_exponents(d) if e[0] <= 3], dtype=np.int64)
    exps.flags.writeable = False
    return exps


def _dehomogenize(coeffs: Dict[Exponents, int]) -> Dict[Tuple[int, int, int], int]:
    """Set x0 = 1: the nonzero terms of a form, keyed by their last three
    exponents (the first one follows from the degree)."""
    return {(e1, e2, e3): c for (e0, e1, e2, e3), c in coeffs.items() if c}


@dataclass(frozen=True)
class QuarticSurfaceInstance:
    """A random quartic over F_p and sampled surface points, all of one
    multiplicity, as affine triples (x1, x2, x3) in the chart x0 = 1."""

    prime: int
    coefficients: Tuple[Tuple[Exponents, int], ...]
    multiplicity: int
    points: Tuple[Tuple[int, int, int], ...]

    def affine_poly(self) -> Dict[Tuple[int, int, int], int]:
        return _dehomogenize(dict(self.coefficients))


def _sample_point(f_affine, p: int, rng, seen) -> Tuple[int, int, int]:
    """One surface point (a, b, z) in the chart x0 = 1, not in `seen`, with
    F_z != 0 there: z is a simple root of f_affine = z^4 + ... on its line."""
    for _ in range(_MAX_POINT_ATTEMPTS):
        a = rng.randrange(p)
        b = rng.randrange(p)
        a_pow = powers(a, 4, p)
        b_pow = powers(b, 4, p)
        restricted = [0, 0, 0, 0, 0]
        for (e1, e2, e3), c in f_affine.items():
            restricted[e3] += c * a_pow[e1] * b_pow[e2]
        restricted = [c % p for c in restricted]
        roots = poly_roots(restricted, p, rng)
        if not roots:
            continue
        z = roots[rng.randrange(len(roots))]
        point = (a, b, z)
        if point in seen:
            continue
        _, r1, r2, r3, r4 = restricted
        if (r1 + z * (2 * r2 + z * (3 * r3 + z * 4 * r4))) % p:  # r'(z) = F_z(a, b, z)
            return point
    raise SamplingError("could not sample a smooth surface point within budget")


def sample_quartic_instance(points: Tuple[int, int], p: int, rng) -> QuarticSurfaceInstance:
    """Random quartic plus n smooth points of multiplicity m, for points
    = (m, n); (0, 0) draws the quartic alone.  A group that core's
    check_points refuses raises ValueError before any draw.

    The points are drawn one after another from rng, so (m, k) draws the
    first k points of the draw of (m, n) on the same quartic.  A quartic
    with no x0^4 or no x3^4 term is redrawn, after its 35 draws, as is one
    where a point's draw fails.  Each z is a simple root of F on its line
    (see _sample_point).
    """
    m, n = check_points(*points)
    for _ in range(_MAX_SURFACE_ATTEMPTS):
        coeffs = {e: rng.randrange(p) for e in _QUARTIC_EXPONENTS}
        if not (coeffs[_X0_FOURTH] and coeffs[_X3_FOURTH]):
            continue
        drawn = {}  # the distinct points in draw order
        inv = inverse_mod(coeffs[_X3_FOURTH], p)  # every vertical line is then monic in z
        f_affine = {e: c * inv % p for e, c in _dehomogenize(coeffs).items()}
        try:
            while len(drawn) < n:
                drawn[_sample_point(f_affine, p, rng, drawn)] = None
        except SamplingError:
            continue
        return QuarticSurfaceInstance(p, tuple(sorted(coeffs.items())), m, tuple(drawn))
    raise SamplingError("could not sample a usable quartic within budget")


def k3_condition_rows(d: int, instance: QuarticSurfaceInstance) -> List[np.ndarray]:
    """Condition rows over the columns `column_exponents(d)` for every
    point: the rows of one 2-D array, as a list, so that truth tests and
    len() keep working for callers.  An instance with no points has no
    rows; a quartic with no x0^4 term, which the sampler never returns,
    raises ValueError.

    A point's block holds the truncated Taylor series of each column
    monomial restricted along the chart (see the module docstring), one row
    per coefficient s^a t^b in triangle order.  Entries are reduced mod p
    and computed in the dtype `field_dtype(p)` chooses.  The points go
    through solve_implicit first, which raises at a point that is no chart;
    then the rows are filled one chunk of points at a time, from slices of
    the one jet table, so the list holds views of the one matrix, not copies.
    """
    p = instance.prime
    f = instance.affine_poly()
    if not f.get((0, 0, 0), 0) % p:  # F(1, 0, 0, 0), the x0^4 coefficient
        raise ValueError("a quartic with no x0^4 term has no standard monomials in x0")
    if not instance.points:
        return []
    points, order = instance.points, instance.multiplicity - 1
    exps = column_exponents(d)[:, 1:].T  # exps[coordinate, column]
    jets = chart_jets(points, max(d, 4), max(order, 1), p)  # the solve's and every chunk's
    psi = solve_implicit(f, jets, order, p)
    ncols = exps.shape[1]
    a, b = np.array(triangle(order), dtype=np.intp).T  # a point's rows, in triangle order
    chunk = max(1, _CHUNK_ENTRIES // (ncols * (order + 1) ** 2))
    matrix = None
    for lo in range(0, len(points), chunk):
        grid = restrict(psi[lo:lo + chunk], jets[lo:lo + chunk], exps, p)
        if matrix is None:  # after the first restrict, whose temporaries peak a one-chunk call
            matrix = np.empty((len(points) * len(a), ncols), dtype=grid.dtype)
            blocks = matrix.reshape(len(points), len(a), ncols)  # a view: [point, row, column]
        blocks[lo:lo + chunk] = grid[:, :, a, b].transpose(0, 2, 1)
    return list(matrix)


def run_trial(d: int, points: Tuple[int, int], p: int, rng) -> int:
    """One trial of L^4(d, m^n), points = (m, n) and (0, 0) for no points:
    the dim of the degree-d system through the points drawn from rng.

    A trial stops drawing points once its conditions reach full column
    rank.  Let k = ceil(ncols / (m (m + 1) / 2)), ncols = 2d^2 + 2, the
    first point count whose conditions reach ncols.  When k < n the trial
    draws and ranks the first k points: at full rank its dim is -1.  Short
    of it, it sets rng back to its state before that draw and draws and
    ranks all n points.  Rank only grows as rows are added and never
    exceeds ncols (the multiples of F meet no condition), and (m, k) draws
    the first k points of the draw of (m, n) (see sample_quartic_instance),
    so a trial that stops has the dim of all n points.  A stopped trial
    ranks fewer rows than the system's n m (m + 1) / 2, so its
    rows * deg / p error bound (see config) only shrinks;
    OracleMeasurement.rows stays that count.
    """
    m, n = points
    ncols = num_surface_forms(d)
    k = -(-ncols // point_conditions(m)) if n else 0
    if k < n:
        state = rng.getstate()
        prefix = sample_quartic_instance((m, k), p, rng)
        if rank_mod_p(k3_condition_rows(d, prefix), p) == ncols:
            return -1
        rng.setstate(state)
    instance = sample_quartic_instance((m, n), p, rng)
    return ncols - rank_mod_p(k3_condition_rows(d, instance), p) - 1


def measure_k3(
    d: int, points: Tuple[int, int], cfg: PrimeFieldConfig, prime: int = 0
) -> OracleMeasurement:
    """Monte-Carlo dimension of L^4(d, m^n) on a random quartic, points =
    (m, n) and (0, 0) for no points: the min of independently seeded
    run_trial dims (config.measure_trials).  A `prime` other than cfg.prime
    and cfg.prime2 is checked as cfg checks them, before any draw."""
    sys = K3System(4, d, *points)
    d, points = sys.degree, (sys.multiplicity, sys.count)
    p = cfg.field_prime(prime)
    return measure_trials(lambda rng: run_trial(d, points, p, rng),
                          cfg, p, "quartic", "k3", d, points, num_surface_forms(d))


def measure_k3_cross_checked(
    d: int, points: Tuple[int, int], cfg: PrimeFieldConfig
) -> OracleMeasurement:
    """Measure L^4(d, m^n), points = (m, n), over cfg.prime and, when set,
    cfg.prime2, aggregating the trials of both primes as one: the dim is the
    minimum of all of them, low-confidence when any two disagree, within a
    prime or across."""
    first = measure_k3(d, points, cfg)
    if cfg.prime2 is None:
        return first
    second = measure_k3(d, points, cfg, prime=cfg.prime2)
    return OracleMeasurement.from_trials(
        first.trial_dims + second.trial_dims, cfg.prime, first.rows, first.cols
    )
