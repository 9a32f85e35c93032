import json
from random import Random

import pytest

from k3fat.classify import base_gamma4
from k3fat.core import K3System, Status, edim, point_conditions, vdim_k3
from k3fat.degeneration import (
    Regime,
    check_vdim_identity,
    combine_dims,
    factor_4_9,
    is_admissible_count,
    k_selection_bounds,
    recurse,
    select_k,
)


def gamma4_base(gamma, d, mu):
    assert gamma == 4
    return base_gamma4(d, mu)


def test_factor_4_9():
    assert factor_4_9(1) == (0, 0)
    assert factor_4_9(4) == (1, 0)
    assert factor_4_9(9) == (0, 1)
    assert factor_4_9(36) == (1, 1)
    assert factor_4_9(5184) == (3, 2)
    assert factor_4_9(6) is None
    assert factor_4_9(72) is None
    assert not is_admissible_count(0)


# --- select_k -------------------------------------------------------------


def test_select_k_nonneg_final_step_avoids_special_leaves():
    sys = K3System.homogeneous(4, 3, 1, 9)
    bounds = k_selection_bounds(sys, 9, Regime.NONNEG)
    # brute-force oracle for the admissible set
    admissible = [
        k for k in range(11)
        if k * (k + 1) <= 40 and k * (k + 3) >= 16
    ]
    assert admissible == [3, 4, 5]
    assert list(bounds.admissible()) == admissible
    # k in {2d-1, 2d} = {5, 6} is avoided; the largest survivor is 4
    assert select_k(sys, 9, Regime.NONNEG) == 4


def test_select_k_neg_final_step_forces_2d():
    sys = K3System.homogeneous(4, 2, 2, 4)
    k = select_k(sys, 4, Regime.NEG)
    assert k == 4
    # and 2d satisfies both NEG inequalities here
    assert k * k + 3 * k >= 18
    assert k * k + k <= 24


def test_select_k_none_when_hypothesis_fails():
    sys = K3System.homogeneous(4, 1, 5, 4)
    assert vdim_k3(sys) < -1
    assert select_k(sys, 4, Regime.NONNEG) is None
    bounds = k_selection_bounds(sys, 4, Regime.NONNEG)
    assert bounds.is_empty


def test_select_k_requires_divisor():
    sys = K3System.homogeneous(4, 3, 1, 4)
    with pytest.raises(ValueError):
        select_k(sys, 9, Regime.NONNEG)


def test_step_functions_reject_systems_without_points():
    # a step splits n >= c points; the unconditioned system has none
    sys = K3System(4, 3)
    for regime in Regime:
        with pytest.raises(ValueError):
            k_selection_bounds(sys, 4, regime)
        with pytest.raises(ValueError):
            select_k(sys, 9, regime)
    with pytest.raises(ValueError):
        check_vdim_identity(sys, 4, 2)


def _regime_inequalities_hold(gamma, d, m, n, c, k, regime):
    b = n // c
    if regime is Regime.NONNEG:
        v_s = (gamma // 2) * d * d + 1 - b * point_conditions(k)
        v_p = k * (k + 3) // 2 - c * point_conditions(m)
        return v_s >= -1 and v_p >= -1
    v_sh = (gamma // 2) * d * d + 1 - b * point_conditions(k + 1)
    v_ph = (k - 1) * (k + 2) // 2 - c * point_conditions(m)
    return v_sh <= -1 and v_ph <= -1


def test_select_k_output_always_in_admissible_interval():
    rng = Random(20260811)
    checked = 0
    while checked < 300:
        gamma = rng.choice([2, 4, 6, 8, 10])
        d = rng.randrange(1, 15)
        m = rng.randrange(1, 9)
        n = rng.choice([4, 9, 16, 36, 81, 144, 324])
        c = rng.choice([cc for cc in (4, 9) if n % cc == 0])
        sys = K3System.homogeneous(gamma, d, m, n)
        v = vdim_k3(sys)
        regime = Regime.NONNEG if v >= -1 else Regime.NEG
        k = select_k(sys, c, regime)
        if k is None:
            continue
        bounds = k_selection_bounds(sys, c, regime)
        assert bounds.contains(k)
        assert _regime_inequalities_hold(gamma, d, m, n, c, k, regime)
        checked += 1


# --- combine_dims ----------------------------------------------------------


def test_combine_dims_all_empty():
    assert combine_dims(-1, -1, -1, -1, 3, 2) == -1


def test_combine_dims_special_leaf_endgame():
    # the L^4(2, 2^4) final step worked in full: r_surface = 0, r_planar = 2,
    # transversal intersection empty, combined dimension -1
    assert combine_dims(0, -1, 2, -1, 1, 4) == -1


def test_combine_dims_matches_simplified_form_when_intersection_nonempty():
    # whenever the transversality maximum is attained at the non-(-1)
    # argument, the combination collapses to l_S + b*(l_P - k)
    cases = [(4, -1, 11, 5, 1, 4), (15, 6, 29, 14, 1, 8), (7, 2, 9, 3, 4, 3)]
    for l_s, l_sh, l_p, l_ph, b, k in cases:
        r_s = l_s - l_sh - 1
        r_p = l_p - l_ph - 1
        assert r_s + b * r_p - b * k >= -1
        assert combine_dims(l_s, l_sh, l_p, l_ph, b, k) == l_s + b * (l_p - k)


def test_combine_dims_rejects_bad_input():
    with pytest.raises(ValueError):
        combine_dims(-2, -1, -1, -1, 1, 1)
    with pytest.raises(ValueError):
        combine_dims(0, -1, 0, -1, 0, 1)


# --- vdim bookkeeping identity ---------------------------------------------


def test_check_vdim_identity_examples():
    assert check_vdim_identity(K3System.homogeneous(4, 3, 1, 9), 9, 4)
    assert check_vdim_identity(K3System.homogeneous(6, 5, 3, 36), 4, 7)


def test_check_vdim_identity_negative_control():
    # perturbing one term must break the four-way identity
    sys = K3System.homogeneous(4, 3, 1, 9)
    gamma, d, m, n, c, k = 4, 3, 1, 9, 9, 4
    b = n // c
    v = vdim_k3(sys)
    v_s = (gamma // 2) * d * d + 1 - b * point_conditions(k)
    v_p = k * (k + 3) // 2 - c * point_conditions(m)
    assert v == v_s + b * (v_p - k)
    assert v != (v_s + 1) + b * (v_p - k)


# --- recurse ---------------------------------------------------------------


def test_recurse_neg_chain_empties_l4_2_2_4():
    rep, trace = recurse(K3System.homogeneous(4, 2, 2, 4), gamma4_base)
    assert (rep.dim, rep.status) == (-1, Status.NONSPECIAL)
    step = trace.node.step
    assert (step.c, step.b, step.k) == (4, 1, 4)
    assert step.regime is Regime.NEG
    assert (step.r_surface, step.r_planar) == (0, 2)
    assert step.intersection_dim == -1
    assert step.l0 == -1


def test_recurse_nonneg_chain_certifies_l4_3_1_9():
    rep, trace = recurse(K3System.homogeneous(4, 3, 1, 9), gamma4_base)
    assert (rep.dim, rep.status) == (10, Status.NONSPECIAL)
    assert trace.node.step.k == 4
    assert trace.node.step.l0 == 10 == rep.vdim


def test_recurse_open_case_stays_unknown():
    rep, _ = recurse(K3System.homogeneous(4, 2, 2, 9), gamma4_base)
    assert rep.status is Status.UNKNOWN
    assert rep.dim is None


def test_recurse_rejects_bad_counts():
    with pytest.raises(ValueError):
        recurse(K3System.homogeneous(4, 2, 1, 6), gamma4_base)


def test_recurse_base_and_empty_leaves():
    rep, trace = recurse(K3System.homogeneous(4, 3, 6, 1), gamma4_base)
    assert (rep.dim, rep.status) == (0, Status.SPECIAL)
    assert trace.node.kind == "base"
    rep, trace = recurse(K3System(4, 3), gamma4_base)
    assert (rep.dim, rep.status) == (19, Status.NONSPECIAL)
    assert trace.node.kind == "unconditioned"


def _walk_steps(node):
    if node.step is not None:
        yield node
        yield from _walk_steps(node.step.surface_node)
        yield from _walk_steps(node.step.surface_hat_node)


def test_trace_step_combination_matches_regime_targets():
    # NONNEG steps combine to the parent vdim; NEG steps combine to -1
    grid = [
        (d, m, n)
        for d in range(1, 7)
        for m in range(1, 4)
        for n in (4, 9, 16, 36)
    ]
    seen_nonneg = seen_neg = 0
    for d, m, n in grid:
        sys = K3System.homogeneous(4, d, m, n)
        rep, trace = recurse(sys, gamma4_base)
        if rep.status is not Status.NONSPECIAL:
            continue
        for node in _walk_steps(trace.node):
            if not node.certified:
                continue
            if node.step.regime is Regime.NONNEG:
                assert node.step.l0 == node.vdim
                seen_nonneg += 1
            else:
                assert node.step.l0 == -1
                seen_neg += 1
    assert seen_nonneg and seen_neg


def test_recurse_never_returns_special_for_composite_systems():
    for d in range(1, 7):
        for m in range(1, 4):
            for n in (4, 9, 16, 36):
                rep, _ = recurse(K3System.homogeneous(4, d, m, n), gamma4_base)
                assert rep.status is not Status.SPECIAL


def test_trace_serialization_field_names():
    rep, trace = recurse(K3System.homogeneous(4, 2, 2, 4), gamma4_base)
    text = trace.to_json()
    doc = json.loads(text)
    assert list(doc) == ["schema", "root", "fields", "nodes"]
    assert (doc["schema"], doc["root"]) == ("k3fat.trace/2", 0)
    assert doc["fields"] == [
        "gamma", "d", "m", "n", "vdim", "edim", "dim", "status", "certified", "kind",
        "note", "c", "b", "k", "regime", "surface", "surface_hat",
        "planar.delta", "planar.vdim", "planar.edim", "planar.dim", "planar.status",
        "planar_hat.delta", "planar_hat.vdim", "planar_hat.edim", "planar_hat.dim",
        "planar_hat.status", "r_surface", "r_planar", "intersection_dim", "l0"]
    # the root, then its two single-point surface branches
    assert doc["nodes"] == [
        [4, 2, 2, 4, -3, -1, -1, "NONSPECIAL", True, "step", None, 4, 1, 4, "NEG", 1, 2,
         4, 2, 2, 2, "NONSPECIAL", 3, -3, -1, -1, "NONSPECIAL", 0, 2, -1, -1],
        [4, 2, 4, 1, -1, -1, 0, "SPECIAL", True, "base", None],
        [4, 2, 5, 1, -6, -1, -1, "NONSPECIAL", True, "base", None],
    ]
    # compact rows, one per line
    rows = text.split("\n")[1:-1]
    assert rows == [json.dumps(row, separators=(",", ":")) + ("," if i < 2 else "")
                    for i, row in enumerate(doc["nodes"])]
    assert trace.to_dict() == doc


def test_trace_serialization_deterministic():
    rep1, t1 = recurse(K3System.homogeneous(4, 3, 2, 36), gamma4_base)
    rep2, t2 = recurse(K3System.homogeneous(4, 3, 2, 36), gamma4_base)
    assert t1.to_json() == t2.to_json()
