"""The oracle kernels against reference copies of the seed algorithms.

Root finding, the implicit series solve, point sampling and condition-row
construction were rewritten for speed with the promise that, for a fixed
seed, every result and every draw from the random generator stays the same.
The reference implementations below are the original list/dict versions,
kept here verbatim in behaviour, and each property compares the two.  The
rank reference is the elimination that rewrote whole rows at every pivot.
The series references compute with the sparse Series2 of series_reference and
hand their results over in the oracle's dense layout.  The condition-row
reference spans every degree-d monomial; the oracle keeps the standard
monomials only, so the rows are compared on the kept columns, and the
dimensions against the full-column pipeline of oracle_reference.  The
oracle's trials stop drawing points once their rows reach full column rank;
the measurements are compared with oracle_reference's trial loop, which
samples and ranks every point.  The plane rows are Taylor coefficients, and
are compared with oracle_reference's derivative rows divided by i! j!.
The sampler redraws a quartic with no pure fourth power, which the seed
kept; a uniform draw gives one with probability p^-4, and a generator that
forces one is tested against the stream it then continues.
"""
from dataclasses import replace
from math import comb, factorial
from random import Random
from typing import List

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracle_reference import ref_k3_condition_rows, ref_measure_k3, ref_planar_condition_rows
from oracle_reference import ref_rank_mod_p as ref_one_pivot_rank
from series_reference import (
    Series2,
    from_dense,
    power_table,
    ref_eval_scalar,
    ref_series_at,
    ref_solve_implicit,
    to_dense,
    triangle_solve_implicit,
)

from k3fat.core import PlanarSystem, vdim_planar
from k3fat.oracle import quartic
from k3fat.oracle.config import (
    DEFAULT_PRIME,
    DEFAULT_PRIME2,
    BudgetExceededError,
    PrimeFieldConfig,
    SamplingError,
)
from k3fat.oracle.field import field_dtype, inverse_mod, poly_roots, rank_mod_p
from k3fat.oracle.quartic import (
    _dehomogenize,
    QuarticSurfaceInstance,
    SurfacePoint,
    k3_condition_rows,
    measure_k3,
    monomial_exponents,
    num_surface_forms,
    sample_quartic_instance,
)
from k3fat.oracle.planar import measure_planar, planar_condition_rows
from k3fat.oracle.series import ChartSingularError, solve_implicit, triangle

PRIMES = (10007, 2**31 - 1, 2**61 - 1)
# Root finding also at primes = 1 mod 4, where the square root of the
# closed-form quadratic takes Tonelli-Shanks steps: p - 1 = q 2^s with s = 2
# at DEFAULT_PRIME2 and s = 30 at 3 * 2^30 + 1.
ROOT_PRIMES = PRIMES + (3037000493, 3 * 2**30 + 1)
ORACLE_PRIMES = (2**31 - 1, 3037000493, 2**61 - 1)

# ---------------------------------------------------------------------------
# Reference rank: whole-row elimination.


def ref_rank_mod_p(matrix, p):
    arr = np.asarray(matrix)
    if arr.size == 0:
        return 0
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
            a[[rank, pivot], :] = a[[pivot, rank], :]
        inv = inverse_mod(int(a[rank, col]), p)
        a[rank, :] = (a[rank, :] * inv) % p
        below = a[rank + 1:, col]
        nz = np.nonzero(below)[0]
        if nz.size:
            rows = nz + rank + 1
            factors = a[rows, col]
            a[rows, :] = (a[rows, :] - factors[:, None] * a[rank, :][None, :]) % p
        rank += 1
        if rank == n_rows:
            break
    return rank


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


def ref_poly_roots(coeffs, p, rng):
    f = _ref_monic(coeffs, p)
    if len(f) == 1:
        return []
    xp = _ref_powmod([0, 1], p, f, p)
    xp_minus_x = list(xp) + [0] * max(0, 2 - len(xp))
    xp_minus_x[1] = (xp_minus_x[1] - 1) % p
    return sorted(_ref_split(_ref_gcd(_ref_strip(xp_minus_x), f, p), p, rng))


# ---------------------------------------------------------------------------
# Reference sampling and condition rows.


def _ref_partial(f_affine, slot, p):
    """The partial of f along the affine slot `slot` (1-based), term by term."""
    out = {}
    for exps, c in f_affine.items():
        if exps[slot - 1]:
            out[tuple(e - (i == slot - 1) for i, e in enumerate(exps))] = exps[slot - 1] * c % p
    return out


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
                    points.append(SurfacePoint(affine, m, solved))
            return QuarticSurfaceInstance(p, tuple(sorted(coeffs.items())), tuple(points))
        except SamplingError:
            continue
    raise SamplingError("could not sample a usable quartic within budget")


def ref_condition_rows(d, instance) -> List[List[int]]:
    p = instance.prime
    columns = monomial_exponents(d)
    rows = []
    for pt in instance.points:
        if pt.multiplicity == 1:
            x1, x2, x3 = ([pow(a, e, p) for e in range(d + 1)] for a in pt.affine)
            rows.append([x1[e1] * x2[e2] % p * x3[e3] % p for (_, e1, e2, e3) in columns])
            continue
        order = pt.multiplicity - 1
        sa, sb = pt.param_slots
        phi = ref_series_at(instance, pt)
        var_series = {
            sa: Series2.linear(p, order, pt.affine[sa - 1], 1, 0),
            sb: Series2.linear(p, order, pt.affine[sb - 1], 0, 1),
            pt.solved_slot: from_dense(p, order, phi),
        }
        tables = {slot: power_table(var_series[slot], d) for slot in (1, 2, 3)}
        block = [[0] * len(columns) for _ in phi]
        for col, (_, e1, e2, e3) in enumerate(columns):
            values = to_dense(tables[1][e1] * tables[2][e2] * tables[3][e3])
            for r, c in enumerate(values):
                block[r][col] = c
        rows.extend(block)
    return rows


# ---------------------------------------------------------------------------
# Properties


@st.composite
def root_problems(draw):
    """A prime, a polynomial of degree <= 4 with a planted set of roots
    (repeats allowed), and a generator seed."""
    p = draw(st.sampled_from(ROOT_PRIMES))
    element = st.integers(min_value=0, max_value=p - 1)
    roots = draw(st.lists(element, max_size=4))
    f = [draw(st.integers(min_value=1, max_value=p - 1))]
    for r in roots:
        f = _ref_mul(f, [(-r) % p, 1], p)
    extra = draw(st.lists(element, max_size=4 - len(roots)))
    f = _ref_mul(f, extra + [1], p) if extra else f
    return p, f, draw(st.integers(min_value=0, max_value=2**32))


@given(root_problems())
@settings(max_examples=250, deadline=None)
def test_poly_roots_matches_reference_and_rng_stream(problem):
    p, f, seed = problem
    new_rng, ref_rng = Random(seed), Random(seed)
    assert poly_roots(f, p, new_rng) == ref_poly_roots(f, p, ref_rng)
    assert new_rng.getstate() == ref_rng.getstate()


class ScriptedShifts(Random):
    """A generator whose first draws are the given values, then its own;
    it counts the draws."""

    def __init__(self, seed, values):
        super().__init__(seed)
        self.values = list(values)
        self.draws = 0

    def randrange(self, *args):
        self.draws += 1
        return self.values.pop(0) if self.values else super().randrange(*args)


@pytest.mark.parametrize("p", ROOT_PRIMES)
def test_quadratic_split_replays_a_shift_that_zeroes_a_factor(p):
    # shift = -r makes r + shift = 0: splitting by it succeeds exactly when
    # the other factor's (r' - r)^((p-1)/2) is 1, a case random shifts reach
    # with probability 2/p
    rng = Random(p)
    for _ in range(20):
        r1, r2 = rng.sample(range(p), 2)
        f = _ref_mul([(-r1) % p, 1], [(-r2) % p, 1], p)
        for first in ((-r1) % p, (-r2) % p):
            seed = rng.randrange(2**32)
            new_rng = ScriptedShifts(seed, [first])
            ref_rng = ScriptedShifts(seed, [first])
            assert poly_roots(f, p, new_rng) == ref_poly_roots(f, p, ref_rng) == sorted((r1, r2))
            assert new_rng.draws == ref_rng.draws
            assert new_rng.getstate() == ref_rng.getstate()


@st.composite
def implicit_problems(draw):
    """A trivariate polynomial of degree <= 4 through a random point, the
    point, an order 1..8 and a prime; sometimes with a singular chart, and
    sometimes off the point.  The residues come from a generator that
    hypothesis seeds: hypothesis favours small integers, whose products
    would never come near 2^63."""
    p = draw(st.sampled_from(ORACLE_PRIMES))
    rng = Random(draw(st.integers(min_value=0, max_value=2**32)))
    exps = [(i, j, k) for i in range(5) for j in range(5 - i) for k in range(5 - i - j)]
    f = {e: rng.randrange(p) for e in draw(st.lists(st.sampled_from(exps), min_size=1,
                                                     max_size=len(exps), unique=True))}
    point = (rng.randrange(p), rng.randrange(p), rng.randrange(p))
    if draw(st.integers(min_value=0, max_value=7)) == 0:  # f_z(P) = 0
        fz = {(i, j, k - 1): k * c for (i, j, k), c in f.items() if k}
        f[(0, 0, 1)] = (f.get((0, 0, 1), 0) - ref_eval_scalar(fz, *point, p)) % p
    f[(0, 0, 0)] = 0
    f[(0, 0, 0)] = (-ref_eval_scalar(f, *point, p) + draw(st.sampled_from((0, 0, 0, 1)))) % p
    return f, point, draw(st.integers(min_value=1, max_value=8)), p


def _outcome(solver, *args):
    try:
        return solver(*args)
    except (ChartSingularError, ValueError) as exc:
        return type(exc)


def grid_solve(f, points, slots, order, p):
    """solve_implicit on a run, each point's phi = P_z + psi handed over as
    a dense tuple in triangle order."""
    psi = solve_implicit(f, points, slots, order, p)
    return [tuple(int(psi[n, i, j]) + (pt[roles[2]] if i + j == 0 else 0)
                  for i, j in triangle(order))
            for n, (pt, roles) in enumerate(zip(points, slots))]


def grid_solve_at(f, p1, p2, p3, order, p):
    return grid_solve(f, [(p1, p2, p3)], [(0, 1, 2)], order, p)[0]


@given(implicit_problems())
@settings(max_examples=150, deadline=None)
def test_solve_implicit_matches_reference(problem):
    f, (p1, p2, p3), order, p = problem
    expected = _outcome(ref_solve_implicit, f, p1, p2, p3, order, p)
    assert _outcome(triangle_solve_implicit, f, p1, p2, p3, order, p) == expected
    assert _outcome(grid_solve_at, f, p1, p2, p3, order, p) == expected


def oriented(f, slots):
    """f with its exponents read in the chart's role order (s, t, z)."""
    return {tuple(e[slot] for slot in slots): c for e, c in f.items()}


@given(st.sampled_from(ORACLE_PRIMES), st.integers(min_value=0, max_value=2**32),
       st.lists(st.permutations((0, 1, 2)), min_size=2, max_size=5),
       st.integers(min_value=1, max_value=8))
@settings(max_examples=25, deadline=None)
def test_solve_implicit_on_a_run_with_mixed_charts(p, seed, charts, order):
    # points of one quartic, each solved along a slot of its own (a random
    # point's three partials are all nonzero), s and t in either order
    instance = sample_quartic_instance(((1, len(charts)),), p, Random(seed))
    f = instance.affine_poly()
    points = [pt.affine for pt in instance.points]
    solved = grid_solve(f, points, charts, order, p)
    for phi, pt, roles in zip(solved, points, charts):
        args = (oriented(f, roles), *(pt[slot] for slot in roles), order, p)
        assert phi == ref_solve_implicit(*args) == triangle_solve_implicit(*args)


@pytest.mark.parametrize("p", ORACLE_PRIMES[:2])
def test_solve_implicit_at_order_30(p):
    # far above the orders drawn above, on the int64 path
    instance = sample_quartic_instance(((31, 1),), p, Random(p))
    pt = instance.points[0]
    roles = [slot - 1 for slot in (*pt.param_slots, pt.solved_slot)]
    f = instance.affine_poly()
    args = (oriented(f, roles), *(pt.affine[slot] for slot in roles), 30, p)
    phi = grid_solve(f, [pt.affine], [roles], 30, p)[0]
    assert phi == triangle_solve_implicit(*args) == ref_solve_implicit(*args)


groups_strategy = st.lists(
    st.tuples(st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=2)),
    min_size=1, max_size=3, unique_by=lambda g: g[0],
).map(lambda gs: tuple(sorted(gs, reverse=True)))


@given(st.sampled_from(ORACLE_PRIMES), groups_strategy, st.integers(min_value=0, max_value=2**32))
@settings(max_examples=25, deadline=None)
def test_sample_quartic_instance_matches_reference_and_rng_stream(p, groups, seed):
    new_rng, ref_rng = Random(seed), Random(seed)
    assert sample_quartic_instance(groups, p, new_rng) == \
        ref_sample_quartic_instance(groups, p, ref_rng)
    assert new_rng.getstate() == ref_rng.getstate()


def kept_columns(d, instance):
    """Positions of the oracle's columns among all degree-d monomials."""
    index = {e: n for n, e in enumerate(monomial_exponents(d))}
    return [index[tuple(e)] for e in instance.column_exponents(d).tolist()]


@given(st.sampled_from(ORACLE_PRIMES), groups_strategy,
       st.integers(min_value=1, max_value=9), st.integers(min_value=0, max_value=2**32))
@settings(max_examples=25, deadline=None)
def test_condition_rows_match_reference(p, groups, d, seed):
    instance = sample_quartic_instance(groups, p, Random(seed))
    rows = np.array(k3_condition_rows(d, instance))
    full = ref_condition_rows(d, instance)
    assert ref_k3_condition_rows(d, instance) == full
    keep = kept_columns(d, instance)
    assert len(keep) == 2 * d * d + 2
    assert rows.tolist() == [[row[n] for n in keep] for row in full]


@pytest.mark.parametrize("p", ORACLE_PRIMES)
@pytest.mark.parametrize("d, groups", [(6, ((12, 1),)), (7, ((8, 1), (5, 2), (1, 3)))])
def test_condition_rows_match_reference_at_high_multiplicity(p, d, groups):
    # order 11 alone, and orders 7, 4 and 0 in one instance: above the
    # orders the hypothesis test draws, on the int64 and object paths alike
    instance = sample_quartic_instance(groups, p, Random(d))
    rows = np.array(k3_condition_rows(d, instance))
    keep = kept_columns(d, instance)
    assert rows.tolist() == [[row[n] for n in keep] for row in ref_k3_condition_rows(d, instance)]


class NoPurePowers(Random):
    """A generator whose first draws, the coefficients of the first sampled
    quartic, are 0 at the four pure fourth powers x_v^4."""

    PURE = frozenset(n for n, e in enumerate(monomial_exponents(4)) if 4 in e)

    def __init__(self, seed):
        super().__init__(seed)
        self.draws = 0

    def randrange(self, *args):
        value = super().randrange(*args)
        self.draws += 1
        return 0 if self.draws - 1 in self.PURE else value


def full_column_dim(d, instance):
    """The dimension the seed measured: all C(d+3, 3) monomial columns, less
    the C(d-1, 3) multiples of F, less the one-pivot rank."""
    p = instance.prime
    rank = ref_one_pivot_rank(ref_k3_condition_rows(d, instance), p)
    return comb(d + 3, 3) - comb(d - 1, 3) - rank - 1


def std_column_dim(d, instance):
    rows = k3_condition_rows(d, instance)
    return num_surface_forms(d) - (rank_mod_p(rows, instance.prime) if rows else 0) - 1


point_groups = st.lists(
    st.tuples(st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=6)),
    min_size=1, max_size=3, unique_by=lambda g: g[0],
).map(lambda gs: tuple(sorted(gs, reverse=True)))


@given(st.sampled_from((DEFAULT_PRIME, DEFAULT_PRIME2)), point_groups,
       st.integers(min_value=1, max_value=9), st.integers(min_value=0, max_value=2**32))
@settings(max_examples=60, deadline=None)
def test_standard_columns_keep_the_dimension(p, groups, d, seed):
    instance = sample_quartic_instance(groups, p, Random(seed))
    assert len(instance.column_exponents(d)) == num_surface_forms(d)
    assert std_column_dim(d, instance) == full_column_dim(d, instance)


@pytest.mark.parametrize("p", (DEFAULT_PRIME, DEFAULT_PRIME2, 2**61 - 1))
def test_a_quartic_without_pure_powers_is_redrawn(p):
    # the first 35 draws are a quartic with no pure fourth power: the
    # sampler draws a second one from the stream, as a plain generator
    # that has made 35 draws does
    forced, plain = NoPurePowers(5), Random(5)
    for _ in monomial_exponents(4):
        plain.randrange(p)
    groups = ((3, 2), (2, 3), (1, 4))
    instance = sample_quartic_instance(groups, p, forced)
    assert instance == sample_quartic_instance(groups, p, plain)
    assert forced.getstate() == plain.getstate()
    assert any(dict(instance.coefficients)[e] for e in monomial_exponents(4) if 4 in e)
    for d in range(1, 10):
        assert len(instance.column_exponents(d)) == num_surface_forms(d)
        assert std_column_dim(d, instance) == full_column_dim(d, instance)


def test_a_redrawn_quartic_is_measured_within_the_standard_column_budget(monkeypatch):
    # 2d^2 + 2 = 52 columns at d = 5: a budget of 52 holds every trial, the
    # redrawn quartics included, and a budget of 51 refuses before any draw
    monkeypatch.setattr(quartic, "derived_rng", lambda seed, *tags: NoPurePowers(seed))
    cfg = PrimeFieldConfig(prime2=None, trials=2, budget_rows=52)
    m = measure_k3(5, [(2, 3)], cfg)
    assert (m.dim, m.rows, m.cols) == (42, 9, 52)
    monkeypatch.setattr(quartic, "sample_quartic_instance", None)
    with pytest.raises(BudgetExceededError, match="9x52"):
        measure_k3(5, [(2, 3)], replace(cfg, budget_rows=51))


def test_columns_refuse_a_quartic_without_pure_powers():
    # a hand-built instance the sampler would have redrawn: the multiples of
    # F span no standard monomials, so there is no column set to rank on
    instance = sample_quartic_instance(((2, 1),), DEFAULT_PRIME, Random(3))
    coeffs = {e: (0 if 4 in e else c) for e, c in instance.coefficients}
    bad = replace(instance, coefficients=tuple(sorted(coeffs.items())))
    assert len(instance.column_exponents(3)) == num_surface_forms(3)
    with pytest.raises(ValueError, match="no pure fourth power"):
        bad.column_exponents(3)
    with pytest.raises(ValueError, match="no pure fourth power"):
        k3_condition_rows(3, bad)


def _rank_problem(p, n_rows, n_cols, n_basis, seed, zero_band=(0, 0)):
    """A matrix mod p whose rows are combinations of a few random rows, so
    that rank deficiency, zero columns and late pivots are common; the
    columns in zero_band = (start, width) are zero in every row."""
    rng = Random(seed)
    start, width = zero_band
    basis = np.array(
        [[0 if start <= j < start + width else rng.choice((0, 0, 1, p - 1, rng.randrange(p)))
          for j in range(n_cols)] for _ in range(n_basis)], dtype=object)
    weights = np.array([[rng.choice((0, 1, 2, p - 1)) for _ in range(n_basis)]
                        for _ in range(n_rows)], dtype=object)
    return ((weights @ basis) % p).tolist()


@st.composite
def rank_problems(draw):
    """Shapes up to 100 x 100, so that the elimination crosses several
    panels, with a band of zero columns as wide as a whole panel or more."""
    p = draw(st.sampled_from(ORACLE_PRIMES))
    n_rows = draw(st.integers(min_value=1, max_value=100))
    n_cols = draw(st.integers(min_value=1, max_value=100))
    n_basis = draw(st.integers(min_value=1, max_value=40))
    start = draw(st.integers(min_value=0, max_value=n_cols))
    width = draw(st.integers(min_value=0, max_value=60))
    return _rank_problem(p, n_rows, n_cols, n_basis, draw(st.integers(0, 2**32)),
                         (start, width)), p


@given(rank_problems())
@settings(max_examples=120, deadline=None)
def test_rank_mod_p_matches_whole_row_reference(problem):
    rows, p = problem
    assert rank_mod_p(rows, p) == ref_rank_mod_p(rows, p)


# ---------------------------------------------------------------------------
# Trials that stop once their rows reach full column rank.

# L^4(d, groups), with the number of points after which the condition count
# first reaches 2d^2 + 2: 1 of L^4(1, 3^36) at 4 columns, 4 of L^4(2, 2^9) at
# 10, 6 of L^4(4, 3^16) at 34, 13 of L^4(6, 3^36) at 74, 18 of L^4(5, 2^36)
# at 52, and 5 of L^4(4, 4^2 3^3 2^4) at 34, inside its second group.
STOPPING_SYSTEMS = (
    (1, ((3, 36),), 1),
    (2, ((2, 9),), 4),
    (4, ((3, 16),), 6),
    (6, ((3, 36),), 13),
    (5, ((2, 36),), 18),
    (4, ((4, 2), (3, 3), (2, 4)), 5),
)


class Draws:
    """Counts quartic._sample_point calls and records the points that
    quartic.solve_implicit, the one chart check, receives."""

    def __init__(self, monkeypatch):
        self.sampled, self.checked = [], set()
        sample, solve = quartic._sample_point, quartic.solve_implicit

        def counting_sample(*args):
            point = sample(*args)
            self.sampled.append(point[0])
            return point

        def recording_solve(f, points, slots, order, p):
            psi = solve(f, points, slots, order, p)
            self.checked.update(map(tuple, points))
            return psi

        monkeypatch.setattr(quartic, "_sample_point", counting_sample)
        monkeypatch.setattr(quartic, "solve_implicit", recording_solve)


@pytest.mark.parametrize("p", ORACLE_PRIMES)
@pytest.mark.parametrize("d, groups, k", STOPPING_SYSTEMS)
def test_stopped_trials_match_the_full_trial_loop(monkeypatch, p, d, groups, k):
    cfg = PrimeFieldConfig(prime2=None)
    draws = Draws(monkeypatch)
    measured = measure_k3(d, groups, cfg, prime=p)
    assert len(draws.sampled) == cfg.trials * k < cfg.trials * sum(n for _, n in groups)
    assert draws.checked == set(draws.sampled)
    assert measured == ref_measure_k3(d, groups, cfg, prime=p)
    assert measured.trial_dims == (-1,) * cfg.trials
    assert measured.rows == sum(n * m * (m + 1) // 2 for m, n in groups)


@pytest.mark.parametrize("d, groups, ranks_per_trial", [
    (3, ((6, 4),), 2),  # the prefix L^4(3, 6^1) is the wall: rank 19 of 20
    (11, ((2, 64),), 1),  # 192 conditions on 244 columns never reach the stop
    (2, ((5, 1),), 1),  # 15 conditions on 10 columns, but no point left to draw
])
def test_trials_that_do_not_stop_draw_every_point(monkeypatch, d, groups, ranks_per_trial):
    cfg = PrimeFieldConfig(prime2=None)
    draws = Draws(monkeypatch)
    ranks = []
    rank = quartic.rank_mod_p

    def counting_rank(rows, p):
        ranks.append(len(rows))
        return rank(rows, p)

    monkeypatch.setattr(quartic, "rank_mod_p", counting_rank)
    measured = measure_k3(d, groups, cfg)
    # a trial that ranks twice drew the 1-point prefix of L^4(3, 6^4) first,
    # then all four points again from a fresh generator, the same point first
    prefix = 1 if ranks_per_trial == 2 else 0
    per_trial = prefix + sum(n for _, n in groups)
    assert len(draws.sampled) == cfg.trials * per_trial
    for start in range(0, len(draws.sampled), per_trial):
        drawn = draws.sampled[start:start + per_trial]
        assert drawn[:prefix] == drawn[prefix:2 * prefix]
    assert draws.checked == set(draws.sampled)
    assert len(ranks) == cfg.trials * ranks_per_trial
    assert measured == ref_measure_k3(d, groups, cfg)


def cut_after(groups, k):
    """groups cut after their first k points."""
    out = []
    for m, n in groups:
        if k > 0:
            out.append((m, min(n, k)))
        k -= n
    return tuple(out)


@pytest.mark.parametrize("p", ORACLE_PRIMES)
def test_cut_groups_draw_the_prefix_of_the_full_draw(p):
    # k = 1, 3, 4 and 6 cut inside a group, 2 and 5 between two groups
    groups = ((3, 2), (2, 3), (1, 2))
    full = sample_quartic_instance(groups, p, Random(p))
    for k in range(1, len(full.points) + 1):
        prefix = sample_quartic_instance(cut_after(groups, k), p, Random(p))
        assert prefix.coefficients == full.coefficients
        assert prefix.points == full.points[:k]


# ---------------------------------------------------------------------------
# Plane rows: Taylor coefficients against the seed's derivative rows.


@pytest.mark.parametrize("p", ORACLE_PRIMES)
@pytest.mark.parametrize("delta", [0, 2, 5, 24])
@pytest.mark.parametrize("groups", [((3, 1), (2, 2), (1, 3)), ((8, 2),), ((1, 1),), ()])
def test_planar_rows_are_derivative_rows_over_factorials(p, delta, groups):
    rng, ref_rng = Random(delta), Random(delta)
    rows = planar_condition_rows(delta, groups, p, rng)
    ref = ref_planar_condition_rows(delta, groups, p, ref_rng)
    assert rng.getstate() == ref_rng.getstate()
    ncols = (delta + 1) * (delta + 2) // 2
    assert rows.dtype == field_dtype(p) and rows.shape == (len(ref), ncols)
    orders = [ij for m, count in groups for _ in range(count) for ij in triangle(m - 1)]
    for row, ref_row, (i, j) in zip(rows.tolist(), ref, orders):
        unit = inverse_mod(factorial(i) * factorial(j), p)
        assert row == [c * unit % p for c in ref_row]


@pytest.mark.parametrize("p", [DEFAULT_PRIME, DEFAULT_PRIME2])
def test_planar_oracle_at_the_degree_of_the_planar_leaves(p):
    sys = PlanarSystem(24, 8, 9)
    m = measure_planar(sys, PrimeFieldConfig(prime2=None), prime=p)
    assert (m.rows, m.cols) == (324, 325)
    assert m.dim == vdim_planar(sys) == 0
    assert m.trial_dims == (0, 0, 0) and not m.low_confidence
