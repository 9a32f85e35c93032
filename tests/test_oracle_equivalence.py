"""The oracle kernels against reference copies of the seed algorithms.

Root finding, the implicit series solve, point sampling and condition-row
construction were rewritten for speed with the promise that, for a fixed
seed, every result and every draw from the random generator stays the same.
The reference implementations, below and in oracle_reference (root finding
and sampling), are the original list/dict versions, kept verbatim in
behaviour, and each property compares the two.  The
rank reference is oracle_reference's elimination, one pivot at a time.
The series references compute with the sparse Series2 of series_reference and
hand their results over in the oracle's dense layout.  The condition-row
reference spans every degree-d monomial; the oracle keeps the standard
monomials only, so the rows are compared on the kept columns, and the
dimensions against the full-column pipeline of oracle_reference.  The
oracle's trials stop drawing points once their rows reach full column rank;
the measurements are compared with oracle_reference's trial loop, which
samples and ranks every point, and with `ref_prefix_measure_k3`, the
two-generator loop that draws all points again from a fresh generator when
the first k points fall short of full rank, where the oracle sets the
trial's one generator back to its state before the prefix.  The plane rows
are Taylor coefficients, and are compared with oracle_reference's
derivative rows divided by i! j!.
The oracle measures one homogeneous system (m, n); the references take the
seed's tuple of groups, and the tests hand them ((m, n),), or () for no
points, the tuple that also tags each trial's random stream.
The sampler redraws a quartic with no x0^4 or no x3^4 term, which the seed
kept; a uniform draw gives one with probability about 2/p, and a generator
that forces one is tested against the stream it then continues.  The x3^4
coefficient makes every vertical line a monic quartic once F is scaled by
its inverse, the one shape the oracle's root finder takes, so root finding
is compared on monic quartics with 0 to 4 planted roots.  It also redraws
a point where F_z = 0, which the seed kept when another partial was
nonzero, and solved along that coordinate; on every stream below the seed's
sampler solves for x3 at every point, so both draw the same points.
"""
from dataclasses import replace
from functools import partial
from math import comb, factorial
from random import Random
from typing import List

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracle_reference import (
    _ref_mul,
    _ref_sample_point,
    non_residue,
    ref_k3_condition_rows,
    ref_measure_k3,
    ref_planar_condition_rows,
    ref_poly_roots,
    ref_prefix_measure_k3,
    ref_prefix_trial,
    ref_rank_mod_p,
    ref_sample_quartic_instance,
)
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

from k3fat.core import vdim_planar
from k3fat.oracle import config, quartic, series
from k3fat.oracle.config import (
    DEFAULT_PRIME,
    DEFAULT_PRIME2,
    BudgetExceededError,
    OracleMeasurement,
    PrimeFieldConfig,
    SamplingError,
    derived_rng,
)
from k3fat.oracle.field import field_dtype, inverse_mod, poly_roots, rank_mod_p
from k3fat.oracle.quartic import (
    column_exponents,
    k3_condition_rows,
    measure_k3,
    monomial_exponents,
    num_surface_forms,
    run_trial,
    sample_quartic_instance,
)
from k3fat.oracle.planar import measure_planar, planar_condition_rows
from k3fat.oracle.series import ChartSingularError, chart_jets, solve_implicit, triangle

PRIMES = (10007, 2**31 - 1, 2**61 - 1)
# Root finding also at primes = 1 mod 4, where the square root of the
# closed-form quadratic takes Tonelli-Shanks steps: p - 1 = q 2^s with s = 2
# at DEFAULT_PRIME2 and s = 30 at 3 * 2^30 + 1.
ROOT_PRIMES = PRIMES + (3037000493, 3 * 2**30 + 1)
ORACLE_PRIMES = (2**31 - 1, 3037000493, 2**61 - 1)

# ---------------------------------------------------------------------------
# Reference condition rows.


def ref_condition_rows(d, instance) -> List[List[int]]:
    p = instance.prime
    columns = monomial_exponents(d)
    order = instance.multiplicity - 1
    rows = []
    for pt in instance.points:
        if order == 0:
            x1, x2, x3 = ([pow(a, e, p) for e in range(d + 1)] for a in pt)
            rows.append([x1[e1] * x2[e2] % p * x3[e3] % p for (_, e1, e2, e3) in columns])
            continue
        phi = ref_series_at(instance, pt)
        var_series = (Series2.linear(p, order, pt[0], 1, 0),
                      Series2.linear(p, order, pt[1], 0, 1),
                      from_dense(p, order, phi))
        t1, t2, t3 = (power_table(series, d) for series in var_series)
        block = [[0] * len(columns) for _ in phi]
        for col, (_, e1, e2, e3) in enumerate(columns):
            values = to_dense(t1[e1] * t2[e2] * t3[e3])
            for r, c in enumerate(values):
                block[r][col] = c
        rows.extend(block)
    return rows


# ---------------------------------------------------------------------------
# Properties


@st.composite
def root_problems(draw):
    """A prime, a monic quartic with 0 to 4 planted roots (repeats allowed)
    times a monic factor of the remaining degree, and a generator seed."""
    p = draw(st.sampled_from(ROOT_PRIMES))
    element = st.integers(min_value=0, max_value=p - 1)
    roots = draw(st.lists(element, max_size=4))
    f = draw(st.lists(element, min_size=4 - len(roots), max_size=4 - len(roots))) + [1]
    for r in roots:
        f = _ref_mul(f, [(-r) % p, 1], p)
    assert len(f) == 5 and f[4] == 1
    return p, f, draw(st.integers(min_value=0, max_value=2**32))


def _split_examples(test):
    """At every root prime, two quartics whose root parts take the cubic
    path: four distinct roots r = q - s, s the example generator's first
    shift, with q = 1, 4, 9 and a non-residue, so that the first split by
    (T + s)^((p-1)/2) is 3 + 1; and a double root beside two simple roots,
    a root part of degree 3 split modulo the quartic it divides."""
    for p in ROOT_PRIMES:
        s = Random(p).randrange(p)
        for qs in ((1, 4, 9, non_residue(p)), (1, 1, 4, 9)):
            f = [1]
            for q in qs:
                f = _ref_mul(f, [(s - q) % p, 1], p)  # T - r
            test = example((p, f, p))(test)
    return test


@given(root_problems())
@_split_examples
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
    # with probability 2/p.  The quartic (T - r1)(T - r2)(T^2 - c), c a
    # non-residue, has the root part (T - r1)(T - r2)
    rng = Random(p)
    irreducible = [p - non_residue(p), 0, 1]
    for _ in range(20):
        r1, r2 = rng.sample(range(p), 2)
        f = _ref_mul(_ref_mul([(-r1) % p, 1], [(-r2) % p, 1], p), irreducible, p)
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


def grid_solve(f, points, order, p):
    """solve_implicit on a run, from the run's jet table (a quartic's
    columns, the rows the solve reads), each point's phi = P_z + psi handed
    over as a dense tuple in triangle order."""
    psi = solve_implicit(f, chart_jets(points, 4, max(order, 1), p), order, p)
    return [tuple(int(psi[n, i, j]) + (pt[2] if i + j == 0 else 0) for i, j in triangle(order))
            for n, pt in enumerate(points)]


def grid_solve_at(f, p1, p2, p3, order, p):
    return grid_solve(f, [(p1, p2, p3)], order, p)[0]


@given(implicit_problems())
@settings(max_examples=150, deadline=None)
def test_solve_implicit_matches_reference(problem):
    f, (p1, p2, p3), order, p = problem
    expected = _outcome(ref_solve_implicit, f, p1, p2, p3, order, p)
    assert _outcome(triangle_solve_implicit, f, p1, p2, p3, order, p) == expected
    assert _outcome(grid_solve_at, f, p1, p2, p3, order, p) == expected


def oriented(f, roles):
    """f with its coordinates permuted: coordinate k of the result is
    coordinate roles[k] of f."""
    return {tuple(e[slot] for slot in roles): c for e, c in f.items()}


@given(st.sampled_from(ORACLE_PRIMES), st.integers(min_value=0, max_value=2**32),
       st.lists(st.permutations((0, 1, 2)), min_size=2, max_size=5),
       st.integers(min_value=1, max_value=8))
@settings(max_examples=25, deadline=None)
def test_solve_implicit_on_runs_with_permuted_coordinates(p, seed, charts, order):
    # the points of one quartic as a run, f and every point permuted alike
    # by each chart, so that each coordinate is solved over the other two
    # in either order (a random point's three partials are all nonzero);
    # point n is checked in chart n
    instance = sample_quartic_instance((1, len(charts)), p, Random(seed))
    f = instance.affine_poly()
    for n, roles in enumerate(charts):
        g = oriented(f, roles)
        points = [tuple(pt[slot] for slot in roles) for pt in instance.points]
        args = (g, *points[n], order, p)
        assert grid_solve(g, points, order, p)[n] == ref_solve_implicit(*args) == \
            triangle_solve_implicit(*args)


@pytest.mark.parametrize("p", ORACLE_PRIMES[:2])
def test_solve_implicit_at_order_30(p):
    # far above the orders drawn above, on the int64 path
    instance = sample_quartic_instance((31, 1), p, Random(p))
    (pt,) = instance.points
    f = instance.affine_poly()
    phi = grid_solve(f, [pt], 30, p)[0]
    assert phi == triangle_solve_implicit(f, *pt, 30, p) == ref_solve_implicit(f, *pt, 30, p)


@pytest.mark.parametrize("p", ORACLE_PRIMES)
@pytest.mark.parametrize("order", (0, 1, 4))
def test_solve_implicit_reads_a_wider_and_deeper_table_as_the_exact_one(p, order):
    # the table of the condition rows at d = 11, five rows deeper than the
    # solve reads: the same psi as on the quartic's own table, and as the
    # reference at every point, also with the entries it does not read
    # overwritten
    instance = sample_quartic_instance((order + 1, 3), p, Random(order))
    f = instance.affine_poly()
    exact = solve_implicit(f, chart_jets(instance.points, 4, max(order, 1), p), order, p)
    jets = chart_jets(instance.points, 11, order + 5, p)
    wide = solve_implicit(f, jets, order, p)
    jets[..., 5:] = jets[:, :, max(order, 1) + 1:] = 1
    assert wide.dtype == exact.dtype and np.array_equal(wide, exact)
    assert np.array_equal(solve_implicit(f, jets, order, p), exact)
    for pt, psi in zip(instance.points, wide.tolist()):
        phi = tuple(psi[i][j] + (pt[2] if i + j == 0 else 0) for i, j in triangle(order))
        assert phi == ref_solve_implicit(f, *pt, order, p)


def pair(groups):
    """The oracle's (m, n) for the references' groups ((m, n),), and (0, 0)
    for ()."""
    (points,) = groups or ((0, 0),)
    return points


def point_pairs(max_count):
    """(m, n) with 1 <= m <= 4 and 1 <= n <= max_count."""
    return st.tuples(st.integers(min_value=1, max_value=4),
                     st.integers(min_value=1, max_value=max_count))


@given(st.sampled_from(ORACLE_PRIMES), point_pairs(4), st.integers(min_value=0, max_value=2**32))
@settings(max_examples=25, deadline=None)
def test_sample_quartic_instance_matches_reference_and_rng_stream(p, points, seed):
    new_rng, ref_rng = Random(seed), Random(seed)
    instance = sample_quartic_instance(points, p, new_rng)
    assert instance == ref_sample_quartic_instance((points,), p, ref_rng).oracle_instance()
    assert new_rng.getstate() == ref_rng.getstate()
    coeffs = dict(instance.coefficients)
    assert coeffs[X0_FOURTH] and coeffs[X3_FOURTH]


@pytest.mark.parametrize("p", ORACLE_PRIMES)
def test_a_multiple_root_is_redrawn_though_another_partial_is_nonzero(p):
    # f = z^4 + c z^2 - x with -c a non-residue, on the line x = 0:
    # z^2 (z^2 + c) has the one root z = 0, a double root, where f_z = 0 but
    # f_x = -1.  The seed's sampler took that point, solving for x; the
    # oracle draws another line, and the point it returns has f_z != 0
    c = p - non_residue(p)
    f = {(0, 0, 4): 1, (0, 0, 2): c, (1, 0, 0): p - 1}
    assert _ref_sample_point(f, p, ScriptedShifts(11, [0, 5]), set()) == ((0, 5, 0), 1)
    a, b, z = quartic._sample_point(f, p, ScriptedShifts(11, [0, 5]), {})
    assert (a, b) != (0, 5) and (z**4 + c * z * z - a) % p == 0
    assert (4 * z**3 + 2 * c * z) % p


def kept_columns(d):
    """Positions of the oracle's columns among all degree-d monomials."""
    index = {e: n for n, e in enumerate(monomial_exponents(d))}
    return [index[tuple(e)] for e in column_exponents(d).tolist()]


@given(st.sampled_from(ORACLE_PRIMES), point_pairs(4),
       st.integers(min_value=1, max_value=9), st.integers(min_value=0, max_value=2**32))
@settings(max_examples=25, deadline=None)
def test_condition_rows_match_reference(p, points, d, seed):
    instance = sample_quartic_instance(points, p, Random(seed))
    rows = np.array(k3_condition_rows(d, instance))
    full = ref_condition_rows(d, instance)
    assert ref_k3_condition_rows(d, instance) == full
    keep = kept_columns(d)
    assert keep == [n for n, e in enumerate(monomial_exponents(d)) if e[0] <= 3]
    assert len(keep) == 2 * d * d + 2 and not column_exponents(d).flags.writeable
    assert rows.tolist() == [[row[n] for n in keep] for row in full]


HIGH_MULTIPLICITY = ((6, ((12, 1),)), (7, ((8, 2),)), (7, ((5, 3),)))


@pytest.mark.parametrize("p", ORACLE_PRIMES)
@pytest.mark.parametrize("d, groups", HIGH_MULTIPLICITY)
def test_condition_rows_match_reference_at_high_multiplicity(p, d, groups):
    # orders 11, 7 and 4: above the orders the hypothesis test draws, on
    # the int64 and object paths alike
    instance = sample_quartic_instance(pair(groups), p, Random(d))
    rows = np.array(k3_condition_rows(d, instance))
    keep = kept_columns(d)
    assert rows.tolist() == [[row[n] for n in keep] for row in ref_k3_condition_rows(d, instance)]


@pytest.mark.parametrize("p", ORACLE_PRIMES)
@pytest.mark.parametrize("per_chunk, chunks", ((5, 1), (3, 2), (2, 3)))
def test_condition_rows_match_reference_across_chunks(monkeypatch, p, per_chunk, chunks):
    # five triple points at d = 4 (34 columns, 9 grid entries per column),
    # with the chunk budget set to hold `per_chunk` points: one restrict per
    # chunk, the last one short, and the same rows as the reference
    d, instance = 4, sample_quartic_instance((3, 5), p, Random(p))
    monkeypatch.setattr(quartic, "_CHUNK_ENTRIES", per_chunk * num_surface_forms(d) * 9 + 8)
    calls = []
    restrict = quartic.restrict
    monkeypatch.setattr(quartic, "restrict", lambda psi, *args: calls.append(len(psi))
                        or restrict(psi, *args))
    rows = k3_condition_rows(d, instance)
    assert calls == [min(per_chunk, 5 - lo) for lo in range(0, 5, per_chunk)]
    assert len(calls) == chunks
    keep = kept_columns(d)
    assert np.array(rows).tolist() == [[row[n] for n in keep]
                                       for row in ref_k3_condition_rows(d, instance)]
    assert all(row.base is rows[0].base for row in rows)  # views of one matrix


@pytest.mark.parametrize("p", ORACLE_PRIMES)
def test_one_jet_table_per_call_across_chunks(monkeypatch, p):
    # L^4(10, 6^9): 202 columns of 36 grid entries each, so the default
    # chunk budget takes two points at a time, five chunks; one jet table
    # serves the solve and every chunk, and the solve builds none
    d, instance = 10, sample_quartic_instance((6, 9), p, Random(p))
    tables, restricted = [], []
    jets_of, restrict = quartic.chart_jets, quartic.restrict
    monkeypatch.setattr(quartic, "chart_jets", lambda *args: tables.append(args[0])
                        or jets_of(*args))
    monkeypatch.setattr(quartic, "restrict", lambda psi, *args: restricted.append(len(psi))
                        or restrict(psi, *args))
    monkeypatch.setattr(series, "chart_jets", None)  # a call inside the solve would fail
    rows = k3_condition_rows(d, instance)
    assert tables == [instance.points] and restricted == [2, 2, 2, 2, 1]
    keep = kept_columns(d)
    assert np.array(rows).tolist() == [[row[n] for n in keep]
                                       for row in ref_k3_condition_rows(d, instance)]


X0_FOURTH, X3_FOURTH = (4, 0, 0, 0), (0, 0, 0, 4)


class ZeroDraw(Random):
    """A generator whose draw number `zeroed` (from 1) is 0; every other
    draw is its own.  Draws 1 and 35 are the x0^4 and x3^4 coefficients of
    the first sampled quartic."""

    def __init__(self, seed, zeroed=1):
        super().__init__(seed)
        self.zeroed = zeroed
        self.draws = 0

    def randrange(self, *args):
        value = super().randrange(*args)
        self.draws += 1
        return 0 if self.draws == self.zeroed else value


def after_a_quartic(seed, p):
    """Random(seed) once it has drawn the 35 coefficients of a quartic."""
    rng = Random(seed)
    for _ in monomial_exponents(4):
        rng.randrange(p)
    return rng


def full_column_dim(d, instance):
    """The dimension the seed measured: all C(d+3, 3) monomial columns, less
    the C(d-1, 3) multiples of F, less the one-pivot rank."""
    p = instance.prime
    rank = ref_rank_mod_p(ref_k3_condition_rows(d, instance), p)
    return comb(d + 3, 3) - comb(d - 1, 3) - rank - 1


def std_column_dim(d, instance):
    rows = k3_condition_rows(d, instance)
    return num_surface_forms(d) - (rank_mod_p(rows, instance.prime) if rows else 0) - 1


@given(st.sampled_from((DEFAULT_PRIME, DEFAULT_PRIME2)), point_pairs(12),
       st.integers(min_value=1, max_value=9), st.integers(min_value=0, max_value=2**32))
@settings(max_examples=60, deadline=None)
def test_standard_columns_keep_the_dimension(p, points, d, seed):
    instance = sample_quartic_instance(points, p, Random(seed))
    assert len(column_exponents(d)) == num_surface_forms(d)
    assert std_column_dim(d, instance) == full_column_dim(d, instance)


@pytest.mark.parametrize("p", (DEFAULT_PRIME, DEFAULT_PRIME2, 2**61 - 1))
def test_a_quartic_without_x0_fourth_power_is_redrawn(p):
    # the first 35 draws are a quartic with every pure fourth power.  With
    # its x0^4 (the first draw) or its x3^4 (the 35th) zeroed, the sampler
    # draws a second one from the stream, as a plain generator that has made
    # 35 draws does, and the instance has both terms
    rng = Random(5)
    first = {e: rng.randrange(p) for e in monomial_exponents(4)}
    assert all(first[e] for e in (X0_FOURTH, (0, 4, 0, 0), (0, 0, 4, 0), X3_FOURTH))
    assert [monomial_exponents(4)[k - 1] for k in (1, 35)] == [X0_FOURTH, X3_FOURTH]
    for zeroed in (1, 35):
        forced, plain = ZeroDraw(5, zeroed), after_a_quartic(5, p)
        instance = sample_quartic_instance((2, 9), p, forced)
        assert instance == sample_quartic_instance((2, 9), p, plain)
        assert forced.getstate() == plain.getstate()
        coeffs = dict(instance.coefficients)
        assert coeffs[X0_FOURTH] and coeffs[X3_FOURTH] and coeffs != first
    for d in range(1, 10):
        assert len(column_exponents(d)) == num_surface_forms(d)
        assert std_column_dim(d, instance) == full_column_dim(d, instance)


def test_a_redrawn_quartic_is_measured_within_the_standard_column_budget(monkeypatch):
    # 2d^2 + 2 = 52 columns at d = 5: a budget of 52 holds every trial, the
    # redrawn quartics included, and a budget of 51 refuses before any draw
    monkeypatch.setattr(config, "derived_rng", lambda seed, *tags: ZeroDraw(seed))
    cfg = PrimeFieldConfig(prime2=None, trials=2, budget_rows=52)
    m = measure_k3(5, (2, 3), cfg)
    assert (m.dim, m.rows, m.cols) == (42, 9, 52)
    monkeypatch.setattr(quartic, "sample_quartic_instance", None)
    with pytest.raises(BudgetExceededError, match="9x52"):
        measure_k3(5, (2, 3), replace(cfg, budget_rows=51))


def test_rows_refuse_a_quartic_without_x0_fourth_power():
    # a hand-built instance the sampler would have redrawn: with no x0^4
    # term, F itself lies in the span of the monomials with e0 <= 3 at
    # d = 4, so they are no basis on S; refused with points and without,
    # also when the coefficient is p, which is 0 mod p
    p = DEFAULT_PRIME
    instance = sample_quartic_instance((2, 1), p, Random(3))
    assert len(k3_condition_rows(4, instance)) == 3
    assert len(column_exponents(4)) == num_surface_forms(4)
    coeffs = dict(instance.coefficients)
    assert all(coeffs[e] for e in ((0, 4, 0, 0), (0, 0, 4, 0), (0, 0, 0, 4)))
    for x0_fourth in (0, p):
        coeffs[(4, 0, 0, 0)] = x0_fourth
        bad = replace(instance, coefficients=tuple(sorted(coeffs.items())))
        for points in (instance.points, ()):
            with pytest.raises(ValueError, match=r"no x0\^4 term"):
                k3_condition_rows(4, replace(bad, points=points))


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

# L^4(d, m^n) as (d, ((m, n),), k), k = ceil((2d^2 + 2) / (m(m+1)/2)) the
# number of points after which the condition count first reaches 2d^2 + 2:
# 1 of L^4(1, 3^36) at 4 columns, 4 of L^4(2, 2^9) at 10, 6 of L^4(4, 3^16)
# at 34, 13 of L^4(6, 3^36) at 74, 18 of L^4(5, 2^36) at 52, and 4 of
# L^4(4, 4^9) at 34.
STOPPING_SYSTEMS = (
    (1, ((3, 36),), 1),
    (2, ((2, 9),), 4),
    (4, ((3, 16),), 6),
    (6, ((3, 36),), 13),
    (5, ((2, 36),), 18),
    (4, ((4, 9),), 4),
)


class Draws:
    """Counts quartic._sample_point calls and records the points that
    quartic.chart_jets receives, once quartic.solve_implicit, the one chart
    check, has returned on their table."""

    def __init__(self, monkeypatch):
        self.sampled, self.checked = [], set()
        sample, jets_of, solve = quartic._sample_point, quartic.chart_jets, quartic.solve_implicit
        tables = {}  # id(table) -> (table, its points); the table held, so no id is reused

        def counting_sample(*args):
            point = sample(*args)
            self.sampled.append(point)
            return point

        def recording_jets(points, *args):
            jets = jets_of(points, *args)
            tables[id(jets)] = (jets, points)
            return jets

        def recording_solve(f, jets, order, p):
            psi = solve(f, jets, order, p)
            self.checked.update(map(tuple, tables[id(jets)][1]))
            return psi

        monkeypatch.setattr(quartic, "_sample_point", counting_sample)
        monkeypatch.setattr(quartic, "chart_jets", recording_jets)
        monkeypatch.setattr(quartic, "solve_implicit", recording_solve)


@pytest.mark.parametrize("p", ORACLE_PRIMES)
@pytest.mark.parametrize("d, groups, k", STOPPING_SYSTEMS)
def test_stopped_trials_match_the_full_trial_loop(monkeypatch, p, d, groups, k):
    cfg = PrimeFieldConfig(prime2=None)
    draws = Draws(monkeypatch)
    measured = measure_k3(d, pair(groups), cfg, prime=p)
    assert len(draws.sampled) == cfg.trials * k < cfg.trials * sum(n for _, n in groups)
    assert draws.checked == set(draws.sampled)
    assert measured == ref_measure_k3(d, groups, cfg, prime=p)
    assert measured == ref_prefix_measure_k3(d, pair(groups), cfg, prime=p)
    assert measured.trial_dims == (-1,) * cfg.trials
    assert measured.rows == sum(n * m * (m + 1) // 2 for m, n in groups)


FULL_DRAW_SYSTEMS = (
    (3, ((6, 4),), 2),  # the prefix L^4(3, 6^1) is the wall: rank 19 of 20
    (11, ((2, 64),), 1),  # 192 conditions on 244 columns never reach the stop
    (2, ((5, 1),), 1),  # 15 conditions on 10 columns, but no point left to draw
)


@pytest.mark.parametrize("d, groups, ranks_per_trial", FULL_DRAW_SYSTEMS)
def test_trials_that_do_not_stop_draw_every_point(monkeypatch, d, groups, ranks_per_trial):
    cfg = PrimeFieldConfig(prime2=None)
    p, (m, n) = DEFAULT_PRIME, pair(groups)
    full = [sample_quartic_instance((m, n), p, derived_rng(1, "k3", p, d, groups, trial))
            for trial in range(cfg.trials)]
    k = -(-num_surface_forms(d) // (m * (m + 1) // 2))
    prefixes = [instance.points[:k] if k < n else () for instance in full]
    draws, tags = Draws(monkeypatch), recorded_tags(monkeypatch, "k3")
    ranks = []
    rank = quartic.rank_mod_p

    def counting_rank(rows, p):
        ranks.append(len(rows))
        return rank(rows, p)

    monkeypatch.setattr(quartic, "rank_mod_p", counting_rank)
    measured = measure_k3(d, (m, n), cfg)
    # each trial takes one generator: a trial that ranks twice drew the
    # 1-point prefix of L^4(3, 6^4), then set the generator back and drew
    # all four, the points of one draw of all four from a fresh generator
    # with the trial's tags; any other trial draws each of its n points once
    assert tags == [(1, "k3", p, d, groups, trial) for trial in range(cfg.trials)]
    assert draws.sampled == [pt for prefix, instance in zip(prefixes, full)
                             for pt in prefix + instance.points]
    assert draws.checked == set(draws.sampled)
    assert len(ranks) == cfg.trials * ranks_per_trial
    assert ranks[ranks_per_trial - 1::ranks_per_trial] == [n * m * (m + 1) // 2] * cfg.trials
    assert measured == ref_measure_k3(d, groups, cfg) == ref_prefix_measure_k3(d, (m, n), cfg)


class Instances:
    """Records the instances that quartic.k3_condition_rows receives."""

    def __init__(self, monkeypatch):
        self.ranked = []
        rows = quartic.k3_condition_rows
        monkeypatch.setattr(quartic, "k3_condition_rows",
                            lambda d, instance: self.ranked.append(instance) or rows(d, instance))


@pytest.mark.parametrize("p", ORACLE_PRIMES)
def test_forced_point_failures_measure_as_the_two_generator_loop(monkeypatch, p):
    # every trial of L^4(3, 6^4) falls short at its 1-point prefix, the
    # wall L^4(3, 6^1), and draws all four points again from its generator
    # set back; with one attempt per point, the draw of all four often
    # leaves the prefix's quartic, and each trial is measured as the fresh
    # generator's draw of all four points
    monkeypatch.setattr(quartic, "_MAX_POINT_ATTEMPTS", 1)
    moved = 0
    for seed in range(1, 9):
        cfg = PrimeFieldConfig(prime2=None, seed=seed)
        try:
            expected = ref_prefix_measure_k3(3, (6, 4), cfg, prime=p)
        except SamplingError:
            continue
        instances = Instances(monkeypatch)
        assert measure_k3(3, (6, 4), cfg, prime=p) == expected
        assert len(instances.ranked) == 2 * cfg.trials  # a prefix, then all points
        prefixes, fulls = instances.ranked[::2], instances.ranked[1::2]
        for prefix, full in zip(prefixes, fulls):
            assert (len(prefix.points), len(full.points)) == (1, 4)
            if full.coefficients == prefix.coefficients:
                assert full.points[:1] == prefix.points
        moved += sum(a.coefficients != b.coefficients for a, b in zip(prefixes, fulls))
    assert moved


def test_a_trial_at_the_attempt_budget_is_the_fresh_generator_trial(monkeypatch):
    # with one attempt per point and two quartics per draw, the draw of all
    # four points of L^4(3, 6^4) often runs out of quartics where its
    # 1-point prefix did not: the trial then raises SamplingError exactly
    # when the trial that draws all four from a fresh generator does, and
    # has its dim wherever that one returns.  A draw that went on from the
    # prefix's quartic took it as one more attempt, and returned a dim at 9
    # of these seeds where the fresh draw raises
    monkeypatch.setattr(quartic, "_MAX_POINT_ATTEMPTS", 1)
    monkeypatch.setattr(quartic, "_MAX_SURFACE_ATTEMPTS", 2)
    p, raised = DEFAULT_PRIME, 0
    for seed in range(200):
        try:
            expected = ref_prefix_trial(3, (6, 4), p, partial(Random, seed))
        except SamplingError:
            with pytest.raises(SamplingError):
                run_trial(3, (6, 4), p, Random(seed))
            raised += 1
            continue
        assert run_trial(3, (6, 4), p, Random(seed)) == expected
    assert raised


@pytest.mark.parametrize("p", ORACLE_PRIMES)
def test_a_trial_that_falls_short_ranks_its_prefix_then_all_points(monkeypatch, p):
    # each trial of L^4(3, 6^4) builds and ranks the 21 rows of its 1-point
    # prefix, the wall L^4(3, 6^1) at rank 19 of 20, then the 84 rows of
    # all four points
    cfg = PrimeFieldConfig(prime2=None)
    built, ranked = [], []
    rows, rank = quartic.k3_condition_rows, quartic.rank_mod_p

    def counting_rows(d, instance):
        out = rows(d, instance)
        built.append(len(out))
        return out

    monkeypatch.setattr(quartic, "k3_condition_rows", counting_rows)
    monkeypatch.setattr(quartic, "rank_mod_p", lambda m, p: ranked.append(len(m)) or rank(m, p))
    measured = measure_k3(3, (6, 4), cfg, prime=p)
    assert built == ranked == [21, 84] * cfg.trials
    assert measured == ref_prefix_measure_k3(3, (6, 4), cfg, prime=p)
    assert measured.trial_dims == ref_measure_k3(3, ((6, 4),), cfg, prime=p).trial_dims


@pytest.mark.parametrize("p", ORACLE_PRIMES)
def test_cut_groups_draw_the_prefix_of_the_full_draw(p):
    # (m, k) draws the first k points of the draw of (m, n), on its quartic
    full = sample_quartic_instance((3, 7), p, Random(p))
    for k in range(1, 8):
        prefix = sample_quartic_instance((3, k), p, Random(p))
        assert prefix.coefficients == full.coefficients
        assert prefix.points == full.points[:k]


def pinned_streams():
    """(points, p, a maker of the generator) for every fixed stream that the
    oracle in the tests of this file draws a quartic instance from: the
    seeded generators, and each trial's derived one, as far as the trial
    draws it (k points when it stops, else all n).  A draw of n points
    stands for its prefixes, the draws of its first k points."""
    streams = [((31, 1), p, partial(Random, p)) for p in ORACLE_PRIMES[:2]]
    for p in ORACLE_PRIMES:
        streams += [(pair(groups), p, partial(Random, d)) for d, groups in HIGH_MULTIPLICITY]
        streams.append(((3, 7), p, partial(Random, p)))  # and its prefixes (3, k)
    streams += [((2, 9), p, partial(after_a_quartic, 5, p))
                for p in (DEFAULT_PRIME, DEFAULT_PRIME2, 2**61 - 1)]
    streams.append(((2, 3), DEFAULT_PRIME, partial(after_a_quartic, 1, DEFAULT_PRIME)))
    measured = [(p, d, groups, (groups[0][0], k), 3)
                for p in ORACLE_PRIMES for d, groups, k in STOPPING_SYSTEMS]
    measured += [(DEFAULT_PRIME, d, groups, pair(groups), 3) for d, groups, _ in FULL_DRAW_SYSTEMS]
    measured += [(DEFAULT_PRIME, d, groups, pair(groups), 2)
                 for d, groups in ((2, ((2, 4),)), (3, ((6, 4),)), (2, ()))]
    for p, d, groups, points, trials in measured:
        streams += [(points, p, partial(derived_rng, 1, "k3", p, d, groups, trial))
                    for trial in range(trials)]
    return streams


def test_the_seed_sampler_solves_for_x3_on_every_pinned_stream():
    # the seed's sampler kept a point with F_z = 0 and another partial
    # nonzero, solved along that coordinate; the oracle redraws it.  On
    # every pinned stream no such point comes up: the seed solves for x3 at
    # every point, and both samplers draw the same instance and leave the
    # generator in the same state
    for points, p, stream in pinned_streams():
        new_rng, ref_rng = stream(), stream()
        ref = ref_sample_quartic_instance((points,) if points[1] else (), p, ref_rng)
        assert {pt.solved_slot for pt in ref.points} <= {3}, (points, p)
        instance = sample_quartic_instance(points, p, new_rng)
        assert instance == ref.oracle_instance()
        assert new_rng.getstate() == ref_rng.getstate()
        coeffs = dict(instance.coefficients)  # F leads with both pure powers
        assert coeffs[X0_FOURTH] and coeffs[X3_FOURTH]


# ---------------------------------------------------------------------------
# Random streams: each trial's generator is tagged with its system, as the
# group tuple ((m, n),), or () for no points.


def recorded_tags(monkeypatch, tag):
    """The tags of every derived_rng call for the oracle that `tag` names,
    "k3" or "planar"; config.measure_trials makes every such call."""
    tags = []
    derive = config.derived_rng
    monkeypatch.setattr(config, "derived_rng",
                        lambda *t: (t[1] == tag and tags.append(t)) or derive(*t))
    return tags


def test_each_trial_draws_from_the_tags_of_its_system(monkeypatch):
    cfg = PrimeFieldConfig(prime2=None, trials=2)
    k3, plane = recorded_tags(monkeypatch, "k3"), recorded_tags(monkeypatch, "planar")
    p = DEFAULT_PRIME
    assert measure_k3(2, (2, 4), cfg).trial_dims == (-1, -1)
    assert measure_k3(3, (6, 4), cfg).trial_dims == (-1, -1)  # one prefix, then all four
    assert measure_k3(2, (0, 0), cfg).trial_dims == (9, 9)
    assert k3 == [(1, "k3", p, 2, ((2, 4),), 0), (1, "k3", p, 2, ((2, 4),), 1),
                  (1, "k3", p, 3, ((6, 4),), 0), (1, "k3", p, 3, ((6, 4),), 1),
                  (1, "k3", p, 2, (), 0), (1, "k3", p, 2, (), 1)]
    for d, points in ((2, (2, 4)), (3, (6, 4)), (2, (0, 0))):
        assert measure_k3(d, points, cfg) == ref_prefix_measure_k3(d, points, cfg)
    assert measure_planar(3, (2, 4), cfg).trial_dims == (-1, -1)
    assert measure_planar(3, (0, 0), cfg).trial_dims == (9, 9)
    assert plane == [(1, "planar", p, 3, ((2, 4),), 0), (1, "planar", p, 3, ((2, 4),), 1),
                     (1, "planar", p, 3, (), 0), (1, "planar", p, 3, (), 1)]


@pytest.mark.parametrize("p", [DEFAULT_PRIME, DEFAULT_PRIME2])
@pytest.mark.parametrize("d, points", [(2, (2, 9)), (3, (6, 4)), (3, (0, 0))])
def test_a_k3_measurement_aggregates_run_trial_on_the_tagged_streams(p, d, points):
    # L^4(2, 2^9) stops after its 4-point prefix, L^4(3, 6^4) draws all four
    # points after its short 1-point prefix, and L^4(3) draws the quartic alone
    cfg = PrimeFieldConfig()
    group = (points,) if points[1] else ()
    dims = tuple(run_trial(d, points, p, derived_rng(cfg.seed, "k3", p, d, group, t))
                 for t in range(cfg.trials))
    rows = points[1] * points[0] * (points[0] + 1) // 2
    assert measure_k3(d, points, cfg, p) == OracleMeasurement.from_trials(
        dims, p, rows, num_surface_forms(d))


@pytest.mark.parametrize("p", [DEFAULT_PRIME, DEFAULT_PRIME2])
@pytest.mark.parametrize("delta, points", [(3, (2, 4)), (5, (2, 9)), (3, (0, 0))])
def test_a_planar_measurement_aggregates_its_trials_on_the_tagged_streams(p, delta, points):
    cfg = PrimeFieldConfig()
    group = (points,) if points[1] else ()
    ncols = (delta + 1) * (delta + 2) // 2
    rngs = (derived_rng(cfg.seed, "planar", p, delta, group, t) for t in range(cfg.trials))
    dims = [ncols - rank_mod_p(planar_condition_rows(delta, points, p, rng), p) - 1 for rng in rngs]
    rows = points[1] * points[0] * (points[0] + 1) // 2
    assert measure_planar(delta, points, cfg, p) == OracleMeasurement.from_trials(dims, p, rows, ncols)


# ---------------------------------------------------------------------------
# Plane rows: Taylor coefficients against the seed's derivative rows.


@pytest.mark.parametrize("p", ORACLE_PRIMES)
@pytest.mark.parametrize("delta", [0, 2, 5, 24])
@pytest.mark.parametrize("groups", [((3, 4),), ((8, 2),), ((1, 1),), ()])
def test_planar_rows_are_derivative_rows_over_factorials(p, delta, groups):
    rng, ref_rng = Random(delta), Random(delta)
    rows = planar_condition_rows(delta, pair(groups), p, rng)
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
    m = measure_planar(24, (8, 9), PrimeFieldConfig(prime2=None), prime=p)
    assert (m.rows, m.cols) == (324, 325)
    assert m.dim == vdim_planar(24, 8, 9) == 0
    assert m.trial_dims == (0, 0, 0) and not m.low_confidence
