from dataclasses import replace
from random import Random

import pytest

from k3fat.core import vdim_planar
from k3fat.oracle import (
    DEFAULT_PRIME,
    BudgetExceededError,
    PrimeFieldConfig,
    config,
    measure_planar,
    planar,
    planar_condition_rows,
)


class NoDraws(Random):
    def randrange(self, *args):
        raise AssertionError("a draw was made")


def test_line_through_two_points(small_cfg):
    assert measure_planar(1, (1, 2), small_cfg).dim == 0


def test_conics_through_four_points(small_cfg):
    m = measure_planar(2, (1, 4), small_cfg)
    assert m.dim == 1
    assert m.cols - m.dim - 1 == 4  # the 4x6 matrix has full rank 4


def test_double_conic_is_special(small_cfg):
    # vdim = -1 but the doubled line through the two points exists;
    # the 6x6 matrix must have rank 5
    m = measure_planar(2, (2, 2), small_cfg)
    assert m.dim == 0
    assert vdim_planar(2, 2, 2) == -1


def test_negative_degree_is_empty(small_cfg):
    assert measure_planar(-1, (2, 3), small_cfg).dim == -1
    assert measure_planar(-4, (1, 1), small_cfg).dim == -1


def test_empty_point_set_floor(small_cfg):
    for delta in (0, 1, 3, 6):
        m = measure_planar(delta, (0, 0), small_cfg)
        assert m.dim == (delta + 2) * (delta + 1) // 2 - 1


def test_dimension_never_below_minus_one_and_at_least_vdim(small_cfg):
    for delta in range(0, 8):
        for mu in (1, 2, 3):
            for nu in (1, 4, 9):
                dim = measure_planar(delta, (mu, nu), small_cfg).dim
                assert dim >= -1
                assert dim >= vdim_planar(delta, mu, nu)


def test_monotone_in_conditions(small_cfg):
    # appending a point or raising a multiplicity never increases the dim
    base = measure_planar(5, (2, 4), small_cfg).dim
    more_points = measure_planar(5, (2, 5), small_cfg).dim
    higher_mult = measure_planar(5, (3, 4), small_cfg).dim
    assert more_points <= base
    assert higher_mult <= base


def test_semicontinuity_in_trials():
    # trial seeds are indexed, so more trials minimize over a superset
    dims = [
        measure_planar(6, (2, 9), PrimeFieldConfig(seed=3, trials=t, prime2=None)).dim
        for t in (2, 3, 5)
    ]
    assert dims[0] >= dims[1] >= dims[2]


def test_trial_dims_recorded_and_confident(small_cfg):
    m = measure_planar(4, (2, 4), small_cfg)
    assert len(m.trial_dims) == small_cfg.trials
    assert m.dim == min(m.trial_dims)
    assert not m.low_confidence


def test_budget_refusal(monkeypatch):
    # the message is what verify reports as its reason; nothing is drawn
    monkeypatch.setattr(planar, "planar_condition_rows", None)
    cfg = PrimeFieldConfig(budget_rows=10, prime2=None)
    with pytest.raises(BudgetExceededError) as refused:
        measure_planar(8, (4, 9), cfg)
    assert str(refused.value) == "planar condition matrix 90x45 exceeds budget 10"


def test_prime_independence_sample(small_cfg):
    cfg2 = replace(small_cfg, prime=2**61 - 1)
    for delta, points in [(3, (1, 4)), (5, (2, 9)), (2, (2, 2))]:
        assert measure_planar(delta, points, small_cfg).dim == measure_planar(delta, points, cfg2).dim


@pytest.mark.parametrize("points", [(2, -1), (0, 3), (2, 0), (-1, 2), (1.5, 2), (2, 4.0)])
def test_rows_refuse_a_malformed_group_before_any_draw(points):
    # core's rule: integers, both 0 (no points) or both positive
    with pytest.raises(ValueError, match="multiplicity|count"):
        planar_condition_rows(3, points, DEFAULT_PRIME, NoDraws())


@pytest.mark.parametrize("delta, points", [(-1, (1, 2)), (-3, (0, 0))])
def test_rows_refuse_a_negative_degree_by_name_before_any_draw(delta, points):
    rng = Random(5)
    state = rng.getstate()
    with pytest.raises(ValueError, match=f"^delta must be non-negative, got {delta}$"):
        planar_condition_rows(delta, points, DEFAULT_PRIME, rng)
    assert rng.getstate() == state


@pytest.mark.parametrize("prime", [4, 101, 2**31 + 1])
def test_a_measurement_prime_outside_the_config_range_raises_before_any_draw(
        monkeypatch, small_cfg, prime):
    # 4 and 101 lie below 2^30; 2^31 + 1 = 3 * 715827883
    monkeypatch.setattr(config, "derived_rng", lambda *tags: NoDraws())
    for delta, points in ((3, (2, 4)), (-1, (0, 0))):
        with pytest.raises(ValueError, match="prime must"):
            measure_planar(delta, points, small_cfg, prime=prime)


def test_a_measurement_prime_in_the_config_range_is_measured_at(small_cfg):
    m = measure_planar(3, (2, 4), small_cfg, prime=2**61 - 1)
    assert (m.prime, m.dim) == (2**61 - 1, -1)
