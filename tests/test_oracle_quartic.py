import tracemalloc
from dataclasses import replace
from itertools import permutations
from math import comb, prod
from random import Random

import numpy as np
import pytest

from k3fat.core import K3System, vdim_k3
from k3fat.oracle import (
    BudgetExceededError,
    OracleMeasurement,
    PrimeFieldConfig,
    config,
    k3_condition_rows,
    measure_k3,
    measure_k3_cross_checked,
    monomial_exponents,
    quartic,
    sample_quartic_instance,
    solve_implicit,
)
from k3fat.oracle.field import field_dtype, rank_mod_p
from k3fat.oracle.series import ChartSingularError, chart_jets

P = 2**31 - 1
PRIMES = (P, 3037000493, 2**61 - 1)  # int64 at the default primes, object arrays at 2^61 - 1


def test_monomial_counts():
    assert len(monomial_exponents(4)) == comb(4 + 3, 3) == 35
    assert len(monomial_exponents(1)) == comb(1 + 3, 3) == 4
    assert len(monomial_exponents(6)) == comb(6 + 3, 3) == 84


def test_planes_through_one_point(small_cfg):
    assert measure_k3(1, (1, 1), small_cfg).dim == 2


def test_tangent_plane_unique(small_cfg):
    assert measure_k3(1, (2, 1), small_cfg).dim == 0


def test_doubled_tangent_section_is_special(small_cfg):
    # 10 conditions on 10 quadric monomials, but rank only 9
    m = measure_k3(2, (4, 1), small_cfg)
    assert m.dim == 0
    assert m.rows == 10 and m.cols == 10


def test_wall_cases_d3(small_cfg):
    # the wall mu = 2d at d = 3 and at order 19, where dim 0 is special
    for d in (3, 10):
        assert measure_k3(d, (2 * d, 1), small_cfg).dim == 0
        assert measure_k3(d, (2 * d + 1, 1), small_cfg).dim == -1


def test_empty_point_set_floor(small_cfg):
    for d in (1, 2, 3, 4, 5):
        m = measure_k3(d, (0, 0), small_cfg)
        assert m.dim == 2 * d * d + 1


def test_degree_four_quotient_dimension(small_cfg):
    # degree-d multiples of the quartic impose no divisor: the empty-system
    # dimension matches the ambient projective dimension 2d^2 + 1 for d >= 4
    m = measure_k3(5, (0, 0), small_cfg)
    assert m.dim == 51
    assert m.cols == 52  # the standard monomials, 2d^2 + 2


def test_oracle_at_least_vdim(small_cfg):
    for d in (1, 2, 3):
        for mu, count in [(1, 4), (2, 4), (1, 9), (3, 1)]:
            sys = K3System.homogeneous(4, d, mu, count)
            dim = measure_k3(d, (mu, count), small_cfg).dim
            assert dim >= vdim_k3(sys)
            assert dim >= -1


def test_monotone_in_conditions(small_cfg):
    # one more point, or a higher multiplicity, never raises the dim
    base = measure_k3(3, (2, 4), small_cfg).dim
    more = measure_k3(3, (2, 5), small_cfg).dim
    higher = measure_k3(3, (3, 4), small_cfg).dim
    assert more <= base
    assert higher <= base


def test_semicontinuity_in_trials():
    dims = [
        measure_k3(2, (2, 4), PrimeFieldConfig(seed=5, trials=t, prime2=None)).dim
        for t in (2, 4)
    ]
    assert dims[0] >= dims[1]


def test_instance_invariants():
    rng = Random(12)
    instance = sample_quartic_instance((3, 5), P, rng)
    assert instance.multiplicity == 3 and len(instance.points) == 5
    assert len(set(instance.points)) == 5
    f = instance.affine_poly()
    for x, y, z in instance.points:  # on the surface, with a nonzero partial along x3
        assert sum(c * pow(x, i, P) * pow(y, j, P) * pow(z, k, P)
                   for (i, j, k), c in f.items()) % P == 0
        assert sum(k * c * pow(x, i, P) * pow(y, j, P) * pow(z, k - 1, P)
                   for (i, j, k), c in f.items() if k) % P
    # a run of two triple points: psi on 3 x 3 grids, zero at (0, 0) and
    # above the triangle a + b <= 2
    psi = solve_implicit(f, chart_jets(instance.points[:2], 4, 2, P), 2, P)
    assert psi.shape == (2, 3, 3)
    assert not psi[:, 0, 0].any() and not (psi[:, 1:, 1:] * [[0, 1], [1, 1]]).any()

    rows = k3_condition_rows(2, instance)
    assert len(rows) == 5 * 6
    assert len(instance.coefficients) == 35
    assert k3_condition_rows(2, replace(instance, points=())) == []


def test_one_trial_peaks_within_two_and_a_half_condition_matrices():
    # L^4(20, 13^9): 819 x 802 int64 entries, 5.25 MB.  The rows are filled
    # one chunk of points at a time, and the rank stacks them straight into
    # its one working copy and writes each slab's product into it, so one
    # trial's rows and rank peak at about 2.2 matrices (the rows, the block
    # and one slab's temporaries; 3.07 with an input array beside the block)
    instance = sample_quartic_instance((13, 9), P, Random(1))
    tracemalloc.start()
    try:
        rows = k3_condition_rows(20, instance)
        rank = rank_mod_p(rows, P)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (len(rows), len(rows[0]), rank) == (819, 802, 802)
    assert peak <= 2.5 * 819 * 802 * 8


@pytest.mark.parametrize("p", PRIMES)
def test_rows_refuse_a_simple_point_off_the_surface(p):
    # the third simple point one step off F along z: runs of simple points
    # go through the same chart check as runs of fat points
    instance = sample_quartic_instance((1, 3), p, Random(5))
    a, b, z = instance.points[2]
    bad = replace(instance, points=instance.points[:2] + ((a, b, (z + 1) % p),))
    assert len(k3_condition_rows(3, instance)) == 3
    with pytest.raises(ValueError, match="does not vanish"):
        k3_condition_rows(3, bad)


@pytest.mark.parametrize("p", PRIMES)
def test_rows_refuse_a_simple_point_with_a_zero_solved_partial(p):
    # F - F_z(P) (x3 - P_z) still vanishes at P, and its partial along x3
    # vanishes there: P is no chart of the changed quartic
    instance = sample_quartic_instance((1, 1), p, Random(7))
    (pt,) = instance.points
    partial = sum(c * e[2] * prod(pow(x, k - (i == 2), p) for i, (x, k) in enumerate(zip(pt, e)))
                  for e, c in instance.affine_poly().items() if e[2]) % p
    coeffs = dict(instance.coefficients)
    coeffs[(3, 0, 0, 1)] = (coeffs[(3, 0, 0, 1)] - partial) % p  # x0^3 x3
    coeffs[(4, 0, 0, 0)] = (coeffs[(4, 0, 0, 0)] + partial * pt[2]) % p
    bad = replace(instance, coefficients=tuple(sorted(coeffs.items())))
    assert partial and len(k3_condition_rows(3, instance)) == 1
    with pytest.raises(ChartSingularError):
        k3_condition_rows(3, bad)


@pytest.mark.parametrize("p", PRIMES)
def test_solve_at_order_zero_checks_and_returns_zero_psi(p):
    # six simple points, with f and the points permuted by each of the six
    # orders of the coordinates: psi is all zero
    instance = sample_quartic_instance((1, 6), p, Random(3))
    f = instance.affine_poly()
    for roles in permutations(range(3)):
        g = {tuple(e[i] for i in roles): c for e, c in f.items()}
        points = [tuple(pt[i] for i in roles) for pt in instance.points]
        psi = solve_implicit(g, chart_jets(points, 4, 1, p), 0, p)
        assert psi.shape == (6, 1, 1) and psi.dtype == field_dtype(p) and not psi.any()


@pytest.mark.parametrize("points", [
    (1.5, 2), (2, -1), (2, 0), (0, 3), (-1, 2), (2, 4.0), (2,),
])
def test_malformed_point_groups_raise_before_any_draw(monkeypatch, small_cfg, points):
    # K3System(4, d, m, n) refuses them
    def sample(*args):
        raise AssertionError("a point was drawn")

    monkeypatch.setattr(quartic, "sample_quartic_instance", sample)
    with pytest.raises(ValueError, match="multiplicity|count"):
        measure_k3(2, points, small_cfg)


class NoDraws(Random):
    def randrange(self, *args):
        raise AssertionError("a draw was made")


@pytest.mark.parametrize("points", [(2, -1), (0, 3), (2, 0), (-1, 2), (1.5, 2), (2, 4.0)])
def test_sampling_refuses_a_malformed_group_before_any_draw(points):
    # core's rule: integers, both 0 (no points) or both positive
    with pytest.raises(ValueError, match="multiplicity|count"):
        sample_quartic_instance(points, P, NoDraws())


@pytest.mark.parametrize("prime", [4, 101, 2**31 + 1])
def test_a_measurement_prime_outside_the_config_range_raises_before_any_draw(
        monkeypatch, small_cfg, prime):
    # 4 and 101 lie below 2^30; 2^31 + 1 = 3 * 715827883
    monkeypatch.setattr(config, "derived_rng", lambda *tags: NoDraws())
    with pytest.raises(ValueError, match="prime must"):
        measure_k3(2, (2, 4), small_cfg, prime=prime)


def test_a_measurement_prime_in_the_config_range_is_measured_at(small_cfg):
    m = measure_k3(2, (2, 4), small_cfg, prime=2**61 - 1)
    assert (m.prime, m.dim) == (2**61 - 1, -1)


def test_numpy_integer_groups_measure_as_python_ints(monkeypatch, small_cfg):
    # the same measurement from the same random streams: (m, n) tags them
    tags = []
    derive = config.derived_rng
    monkeypatch.setattr(config, "derived_rng", lambda *t: tags.append(repr(t)) or derive(*t))
    numpy_ints = measure_k3(2, (np.int64(2), np.int64(4)), small_cfg)
    half = len(tags)
    assert numpy_ints == measure_k3(2, (2, 4), small_cfg)
    assert half and tags[:half] == tags[half:]


@pytest.mark.parametrize("d", [2.5, "3", None])
def test_a_degree_that_is_not_an_integer_raises_before_any_draw(monkeypatch, small_cfg, d):
    def sample(*args):
        raise AssertionError("a point was drawn")

    monkeypatch.setattr(quartic, "sample_quartic_instance", sample)
    with pytest.raises(ValueError, match="degree must be an integer"):
        measure_k3(d, (1, 1), small_cfg)
    with pytest.raises(ValueError, match="degree must be >= 1"):
        measure_k3(0, (1, 1), small_cfg)


def test_a_numpy_integer_degree_measures_as_a_python_int(monkeypatch, small_cfg):
    # the same measurement from the same random streams: d tags them
    tags = []
    derive = config.derived_rng
    monkeypatch.setattr(config, "derived_rng", lambda *t: tags.append(repr(t)) or derive(*t))
    numpy_int = measure_k3(np.int64(3), (2, 4), small_cfg)
    half = len(tags)
    assert numpy_int == measure_k3(3, (2, 4), small_cfg)
    assert half and tags[:half] == tags[half:]


def test_determinism_same_seed(small_cfg):
    a = measure_k3(3, (2, 9), small_cfg)
    b = measure_k3(3, (2, 9), small_cfg)
    assert a == b


def test_different_seeds_change_instances():
    cfg_a = PrimeFieldConfig(seed=1, trials=2, prime2=None)
    cfg_b = PrimeFieldConfig(seed=2, trials=2, prime2=None)
    inst_a = sample_quartic_instance((1, 1), P, Random(1))
    inst_b = sample_quartic_instance((1, 1), P, Random(2))
    assert inst_a.coefficients != inst_b.coefficients
    # but measured generic dimensions agree
    assert measure_k3(2, (2, 4), cfg_a).dim == measure_k3(2, (2, 4), cfg_b).dim


def test_prime_independence_on_acceptance_instances():
    cfg = PrimeFieldConfig(seed=1, trials=2, prime2=None)
    for d, mu, count in [(1, 1, 4), (2, 2, 4), (3, 1, 9), (2, 2, 9), (4, 2, 9)]:
        a = measure_k3(d, (mu, count), cfg)
        b = measure_k3(d, (mu, count), cfg, prime=2**61 - 1)
        assert a.dim == b.dim, (d, mu, count)


def test_cross_checked_measurement(cross_cfg):
    m = measure_k3_cross_checked(2, (2, 4), cross_cfg)
    assert m.dim == -1
    assert len(m.trial_dims) == 2 * cross_cfg.trials
    assert not m.low_confidence


@pytest.mark.parametrize("first, second, dim, low", [
    ((3, 3, 3), (2, 2, 2), 2, True),  # each prime agrees, the primes do not
    ((3, 2, 3), (3, 3, 3), 2, True),
    ((1, 1, 1), (1, 1, 1), 1, False),
])
def test_cross_check_aggregates_the_trials_of_both_primes(
        monkeypatch, cross_cfg, first, second, dim, low):
    def fake_measure(d, points, cfg, prime=0):
        dims = first if (prime or cfg.prime) == cfg.prime else second
        return OracleMeasurement.from_trials(dims, prime or cfg.prime, 6, 10)

    monkeypatch.setattr(quartic, "measure_k3", fake_measure)
    m = measure_k3_cross_checked(2, (2, 1), cross_cfg)
    assert m == OracleMeasurement(dim, first + second, low, cross_cfg.prime, 6, 10)


def test_budget_refusal():
    # the messages are what verify reports as its reason
    cfg = PrimeFieldConfig(budget_rows=20, prime2=None)
    with pytest.raises(BudgetExceededError) as rows:
        measure_k3(2, (2, 9), cfg)
    assert str(rows.value) == "quartic condition matrix 27x10 exceeds budget 20"
    with pytest.raises(BudgetExceededError) as cols:
        measure_k3(30, (1, 1), cfg)  # column count over budget
    assert str(cols.value) == "quartic condition matrix 1x1802 exceeds budget 20"


def test_config_validation():
    with pytest.raises(ValueError):
        PrimeFieldConfig(prime=17)
    with pytest.raises(ValueError):
        PrimeFieldConfig(trials=1)
    with pytest.raises(ValueError):
        PrimeFieldConfig(prime2=2**31 - 1)  # equal to default prime
    with pytest.raises(ValueError, match="budget_rows must be positive"):
        PrimeFieldConfig(budget_rows=0)


@pytest.mark.parametrize("name, good, bad", [
    ("prime", np.int64(2**31 - 1), 2.0**31 - 1),
    ("prime2", np.int64(3037000493), 3037000493.0),
    ("seed", np.int64(1), "1"),
    ("trials", np.int64(3), 3.0),
    ("budget_rows", np.int64(10), 10.5),
])
def test_config_reads_each_integer_field_as_an_int(name, good, bad):
    # a numpy integer is stored as the int it equals, so it draws the same
    # random streams; anything else fails at construction
    cfg = PrimeFieldConfig(**{name: good})
    assert type(getattr(cfg, name)) is int and cfg == PrimeFieldConfig(**{name: int(good)})
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        PrimeFieldConfig(**{name: bad})
    assert PrimeFieldConfig(prime2=None).prime2 is None


def test_config_rejects_composite_and_out_of_range_moduli():
    # each of these used to pass validation and fail deep inside the oracle
    for bad in (2**31 + 1, 2**32, 3037000499, 2**61 + 1):
        with pytest.raises(ValueError, match="must be prime"):
            PrimeFieldConfig(prime=bad)
        with pytest.raises(ValueError, match="must be prime"):
            PrimeFieldConfig(prime2=bad)
    # strong pseudoprimes to many small bases are still composite
    for bad in (3215031751, 3825123056546413051):
        with pytest.raises(ValueError, match="must be prime"):
            PrimeFieldConfig(prime2=bad)
    with pytest.raises(ValueError, match="must lie in"):
        PrimeFieldConfig(prime2=2**89 - 1)  # prime, but beyond the exact primality test
    for good in (2**31 - 1, 3037000493, 2**61 - 1):
        assert PrimeFieldConfig(prime=good, prime2=None).prime == good
        assert PrimeFieldConfig(prime=2**31 - 19, prime2=good).prime2 == good


def test_config_tests_each_prime_once():
    # the primality test is memoised: a second config of the same primes
    # tests neither again, and a composite is refused again from the cache
    config._is_prime.cache_clear()
    PrimeFieldConfig(prime=2**31 - 19, prime2=2**61 - 1)
    PrimeFieldConfig(prime=2**31 - 19, prime2=2**61 - 1)
    info = config._is_prime.cache_info()
    assert (info.misses, info.hits) == (2, 2)
    for _ in range(2):
        with pytest.raises(ValueError, match="must be prime"):
            PrimeFieldConfig(prime2=2**31 + 1)
    with pytest.raises(ValueError, match="prime2 must differ"):
        PrimeFieldConfig(prime=2**31 - 19, prime2=2**31 - 19)
    info = config._is_prime.cache_info()
    assert (info.misses, info.hits) == (4, 6)  # the default prime once, 2^31 - 19 twice more
