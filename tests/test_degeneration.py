import json
import math
from random import Random

import pytest

from k3fat.classify import _assumed_base, _proved_base, base_gamma4
from k3fat import degeneration
from k3fat.core import DimensionReport, K3System, Status, k3_vdim_formula, point_conditions, vdim_k3
from k3fat.degeneration import (
    DegenerationStep,
    EngineError,
    TRACE_FIELDS,
    TRACE_SCHEMA,
    Regime,
    TraceNode,
    _final_k,
    _identity_holds,
    _recombine,
    _step,
    factor_4_9,
    recurse,
)
from step_reference import ref_bounds, ref_branch_vdims, ref_final_k, ref_select_k
from trace_reference import ref_node_order, ref_recurse


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
    assert factor_4_9(0) is None


# --- _step: the interval and the matching degree ---------------------------


def _step_of(sys, c):
    """(b, k_min, k_max, k, vdims) of one step of `sys`."""
    return _step(sys.key, vdim_k3(sys), c)


def test_select_k_nonneg_final_step_avoids_special_leaves():
    _, k_min, k_max, k, _ = _step_of(K3System.homogeneous(4, 3, 1, 9), 9)
    # brute-force oracle for the admissible set
    admissible = [
        k for k in range(11)
        if k * (k + 1) <= 40 and k * (k + 3) >= 16
    ]
    assert admissible == [3, 4, 5]
    assert list(range(k_min, k_max + 1)) == admissible
    # k in {2d-1, 2d} = {5, 6} is avoided; the largest survivor is 4
    assert k == 4


def test_select_k_neg_final_step_forces_2d():
    k = _step_of(K3System.homogeneous(4, 2, 2, 4), 4)[3]
    assert k == 4
    # and 2d satisfies both NEG inequalities here
    assert k * k + 3 * k >= 18
    assert k * k + k <= 24


def test_select_k_none_when_hypothesis_fails():
    # the NONNEG interval of a system with v < -1 can be empty; the step
    # takes the regime of the sign of v, whose interval never is
    sys = K3System.homogeneous(4, 1, 5, 4)
    assert vdim_k3(sys) < -1
    k_min, k_max = ref_bounds(4, 1, 5, 4, 4, Regime.NONNEG)
    assert k_min > k_max and ref_select_k(4, 1, 5, 4, 4, Regime.NONNEG) is None
    _, k_min, k_max, k, _ = _step_of(sys, 4)
    assert (k_min, k_max) == ref_bounds(4, 1, 5, 4, 4, Regime.NEG)
    assert k_min <= k == ref_select_k(4, 1, 5, 4, 4, Regime.NEG) <= k_max


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
        b, k_min, k_max, k, _ = _step_of(sys, c)
        assert b == n // c
        assert k == ref_select_k(gamma, d, m, n, c, regime)
        assert k_min <= k <= k_max
        assert _regime_inequalities_hold(gamma, d, m, n, c, k, regime)
        checked += 1


def test_final_step_tie_break_matches_the_list_rule():
    # the O(1) rule against the search over the interval it replaced
    for d in range(1, 41):
        for k_max in range(2 * d + 3):
            for k_min in range(k_max + 1):
                for regime in Regime:
                    assert _final_k(regime, d, k_min, k_max) == \
                        ref_final_k(regime, d, k_min, k_max), (regime, d, k_min, k_max)


def test_final_step_of_a_large_degree():
    # d = 10^6: the list rule would list about 2d degrees at the final step
    sys = K3System.homogeneous(4, 10**6, 1, 4)
    _, k_min, k_max, k, _ = _step_of(sys, 4)
    assert (k_min, k_max, k) == (2, 2 * 10**6 - 1, 2 * 10**6 - 2)
    rep, _ = recurse(sys, gamma4_base)
    assert (rep.vdim, rep.dim, rep.status) == (2 * 10**12 - 3, 2 * 10**12 - 3, Status.NONSPECIAL)


# --- _recombine ------------------------------------------------------------


def _l0(l_s, l_sh, l_p, l_ph, b, k):
    """The combined fiber dimension of one step."""
    return _recombine(l_s, l_sh, l_p, l_ph, b, k)[3]


def test_combine_dims_all_empty():
    assert _l0(-1, -1, -1, -1, 3, 2) == -1


def test_combine_dims_special_leaf_endgame():
    # the L^4(2, 2^4) final step worked in full: r_surface = 0, r_planar = 2,
    # transversal intersection empty, combined dimension -1
    assert _l0(0, -1, 2, -1, 1, 4) == -1


def test_combine_dims_matches_simplified_form_when_intersection_nonempty():
    # whenever the transversality maximum is attained at the non-(-1)
    # argument, the combination collapses to l_S + b*(l_P - k)
    cases = [(4, -1, 11, 5, 1, 4), (15, 6, 29, 14, 1, 8), (7, 2, 9, 3, 4, 3)]
    for l_s, l_sh, l_p, l_ph, b, k in cases:
        r_s = l_s - l_sh - 1
        r_p = l_p - l_ph - 1
        assert r_s + b * r_p - b * k >= -1
        assert _l0(l_s, l_sh, l_p, l_ph, b, k) == l_s + b * (l_p - k)


# --- vdim bookkeeping identity ---------------------------------------------


def _step_identity(sys, c, k):
    """The recursion's bookkeeping self-check for one step of `sys` at any k."""
    gamma, d, m, n = sys.key
    return _identity_holds(vdim_k3(sys), n // c, k, ref_branch_vdims(gamma, d, m, n // c, c, k))


def test_check_vdim_identity_examples():
    assert _step_identity(K3System.homogeneous(4, 3, 1, 9), 9, 4)
    assert _step_identity(K3System.homogeneous(6, 5, 3, 36), 4, 7)


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
    _, _, _, k_step, vdims = _step_of(sys, c)
    assert k_step == k
    assert vdims[0] == v_s and vdims[2] == v_p
    assert _identity_holds(v, b, k, vdims)
    for i in range(4):
        perturbed = tuple(x + (j == i) for j, x in enumerate(vdims))
        assert not _identity_holds(v, b, k, perturbed)


def test_step_raises_when_the_identity_fails():
    # the self-check is permanent: a vdim off by one for the key is caught
    sys = K3System.homogeneous(4, 3, 1, 9)
    v = vdim_k3(sys)
    assert _step(sys.key, v, 9)[3] == 4
    with pytest.raises(EngineError, match=r"identity failed for L\^4\(3, 1\^9\), c=9, k=4"):
        _step(sys.key, v + 1, 9)


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
            if node.dim is None:
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


def test_trace_serialization_deterministic():
    rep1, t1 = recurse(K3System.homogeneous(4, 3, 2, 36), gamma4_base)
    rep2, t2 = recurse(K3System.homogeneous(4, 3, 2, 36), gamma4_base)
    assert t1.to_json() == t2.to_json()


# --- records, the chunked encoder and the node budget ----------------------

# u + w = 6 systems of each regime, each with more rows than one encoder
# chunk: NONNEG (v >= -1), NEG (empty, u > 0) and the open case (u = 0,
# 2d = 1 mod 3), which stays UNKNOWN.
DEEP6 = {
    "NONNEG": (K3System.homogeneous(4, 306, 2, 4**3 * 9**3), (Status.NONSPECIAL, 47305)),
    "NEG": (K3System.homogeneous(4, 100, 2, 4**3 * 9**3), (Status.NONSPECIAL, -1)),
    "UNKNOWN": (K3System.homogeneous(4, 302, 2, 9**6), (Status.UNKNOWN, None)),
}


def _per_row_json(trace):
    # to_json as one encoder call per row, the form it had before chunking
    ids = {node.key: i for i, node in enumerate(trace.nodes)}
    head = json.dumps({"schema": TRACE_SCHEMA, "root": 0, "fields": list(TRACE_FIELDS)},
                      separators=(",", ":"))
    rows = ",\n".join(json.dumps(row, separators=(",", ":"))
                      for row in degeneration._node_rows(trace.nodes, ids))
    return head[:-1] + ',"nodes":[\n' + rows + "\n]}"


@pytest.mark.parametrize("regime", sorted(DEEP6))
def test_trace_json_chunks_match_per_row_encoding(regime, monkeypatch):
    sys, expected = DEEP6[regime]
    rep, trace = recurse(sys, gamma4_base)
    assert (rep.status, rep.dim) == expected
    assert len(trace.nodes) > degeneration._ROWS_PER_CHUNK
    reference = _per_row_json(trace)
    assert trace.to_json() == reference
    # chunk boundaries anywhere: one row per chunk, and chunks that do not
    # divide the table
    for size in (1, 2, 7):
        monkeypatch.setattr(degeneration, "_ROWS_PER_CHUNK", size)
        assert trace.to_json() == reference


@pytest.mark.parametrize("regime", sorted(DEEP6))
def test_trace_json_chunks_encode_one_chunk_of_rows_at_a_time(regime, monkeypatch):
    rep, trace = recurse(DEEP6[regime][0], gamma4_base)
    text, nrows = trace.to_json(), len(trace.nodes)
    pieces = list(trace.json_chunks())
    assert "".join(pieces) == text
    assert len(pieces) == 2 + -(-nrows // degeneration._ROWS_PER_CHUNK)
    assert [piece.lstrip(",\n").count("\n") + 1 for piece in pieces[1:-1]] == \
        [min(degeneration._ROWS_PER_CHUNK, nrows - i)
         for i in range(0, nrows, degeneration._ROWS_PER_CHUNK)]
    # a piece is encoded only when it is asked for
    calls = []
    encoder = degeneration._ENCODER

    class Counting:
        def encode(self, obj):
            calls.append(obj)
            return encoder.encode(obj)

    monkeypatch.setattr(degeneration, "_ENCODER", Counting())
    chunks = trace.json_chunks()
    assert next(chunks) + next(chunks) == text[:len(pieces[0]) + len(pieces[1])]
    assert len(calls) == 2


def test_trace_records_are_immutable():
    _, trace = recurse(K3System.homogeneous(4, 2, 2, 4), gamma4_base)
    node = trace.node
    records = (node, node.step)
    assert [type(r) for r in records] == [TraceNode, DegenerationStep]
    for record, field in zip(records, ("dim", "planar_vdim")):
        with pytest.raises(AttributeError):
            setattr(record, field, 7)
        with pytest.raises(AttributeError):
            record.extra = 7
    assert node.system.key == node.key


def test_trace_records_hold_only_what_the_recursion_decides():
    # a node's edim and `certified`, and the planar branches' systems and
    # dimensions, are derived where they are read, not stored
    assert TraceNode._fields == ("key", "vdim", "dim", "status", "kind", "step", "note")
    assert DegenerationStep._fields == (
        "c", "b", "k", "regime", "surface_node", "surface_hat_node",
        "planar_vdim", "planar_hat_vdim", "r_surface", "r_planar", "intersection_dim", "l0")
    _, trace = recurse(K3System.homogeneous(4, 2, 2, 4), gamma4_base)
    step = trace.node.step
    assert (step.k, step.planar_vdim, step.planar_hat_vdim) == (4, 2, -3)


@pytest.mark.parametrize("regime", sorted(DEEP6))
def test_walk_by_id_visits_one_node_per_row(regime):
    # the benchmark counts nodes by this walk; the memo shares one object
    # per key, so objects and rows are in one-to-one correspondence
    _, trace = recurse(DEEP6[regime][0], gamma4_base)
    seen, todo = set(), [trace.node]
    while todo:
        node = todo.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if node.step is not None:
            todo += [node.step.surface_node, node.step.surface_hat_node]
    assert len(seen) == len(json.loads(trace.to_json())["nodes"])
    assert len(seen) == len(trace.nodes)


def test_node_budget_default_covers_the_deep_case():
    # L^4(500, 100^(4^10 9^5)) has 32 769 nodes; CI classifies it in full
    assert degeneration.MAX_NODES >= 4 * 32_769


def _budget_rows(trace):
    rows = [dict(zip(TRACE_FIELDS, row)) for row in json.loads(trace.to_json())["nodes"]]
    return [row for row in rows if (row["note"] or "").startswith("node budget")]


def test_node_budget_counts_distinct_nodes(monkeypatch):
    sys = DEEP6["NEG"][0]
    rep, trace = recurse(sys, gamma4_base)
    nodes = len(trace.nodes)
    text = trace.to_json()
    # a budget of exactly the node count changes nothing
    monkeypatch.setattr(degeneration, "MAX_NODES", nodes)
    rep_at, trace_at = recurse(sys, gamma4_base)
    assert (rep_at.status, rep_at.dim) == (rep.status, rep.dim)
    assert trace_at.to_json() == text
    # one node fewer: the last node to start is left UNKNOWN, and the root
    # with it
    monkeypatch.setattr(degeneration, "MAX_NODES", nodes - 1)
    rep_under, trace_under = recurse(sys, gamma4_base)
    assert rep_under.status is Status.UNKNOWN and rep_under.dim is None
    assert len(trace_under.nodes) == nodes
    (row,) = _budget_rows(trace_under)
    assert (row["status"], row["kind"], row["certified"], row["dim"]) == (
        "UNKNOWN", "failed", False, None)
    assert row["note"] == f"node budget of {nodes - 1} spent; dimension not certified"


def test_node_budget_spent_gives_unknown_not_an_error(monkeypatch):
    from k3fat.classify import classify

    monkeypatch.setattr(degeneration, "MAX_NODES", 5)
    # gamma = 4: the recursion stops early, the theorem verdict stands
    sys = DEEP6["NONNEG"][0]
    rep = classify(sys)
    assert (rep.status, rep.dim) == DEEP6["NONNEG"][1]
    assert rep.trace.node.status is Status.UNKNOWN
    assert len(rep.trace.nodes) - len(_budget_rows(rep.trace)) == 5
    # assumed base: nothing but the recursion, so the report is UNKNOWN
    rep = classify(K3System.homogeneous(6, 306, 2, 4**3 * 9**3), assume_base=True)
    assert rep.status is Status.UNKNOWN and rep.dim is None
    assert _budget_rows(rep.trace)


# --- the memo's order is the rows' order ------------------------------------


def _v_minus_one_keys():
    # every key of vdim -1: n m(m+1) = gamma d^2 + 4
    for gamma in range(2, 61, 2):
        for d in range(1, 301):
            for n in (4, 9, 16, 36, 81, 144, 324, 729, 1296):
                q, r = divmod(gamma * d * d + 4, n)
                m = (math.isqrt(4 * q + 1) - 1) // 2
                if r == 0 and m * (m + 1) == q:
                    yield gamma, d, m, n


def test_both_regimes_choose_the_same_k_at_v_minus_one():
    # at v = -1 the one step of a node is subject to both regimes' rules;
    # both regimes admit the same single k, the step's, so it does not
    # matter which regime's formulas the step reads
    keys = list(_v_minus_one_keys())
    for key in ((4, 1, 1, 4), (2, 5, 2, 9), (14, 1, 1, 9), (2, 22, 3, 81), (8, 11, 3, 81)):
        assert key in keys
    for key in keys:
        assert k3_vdim_formula(*key) == -1
        c = 9 if key[3] % 9 == 0 else 4
        _, k_min, k_max, k, _ = _step(key, -1, c)
        # why: c m(m+1) is never (k+1)(k+2), so both ends are one k, and no
        # rule of choice inside the interval tells the regimes apart
        assert k_min == k_max == k, key
        for regime in Regime:
            assert ref_bounds(*key, c, regime) == (k_min, k_max), (key, regime)
            assert ref_select_k(*key, c, regime) == k, (key, regime)


def _assert_nodes_follow_the_walk(trace):
    assert trace.node is trace.nodes[0]
    assert [node.key for node in trace.nodes] == [node.key for node in ref_node_order(trace.node)]


@pytest.mark.parametrize("regime", sorted(DEEP6))
def test_trace_nodes_follow_the_reference_walk(regime):
    _, trace = recurse(DEEP6[regime][0], gamma4_base)
    _assert_nodes_follow_the_walk(trace)


@pytest.mark.parametrize("regime", sorted(DEEP6))
def test_trace_nodes_follow_the_reference_walk_at_the_budget(regime, monkeypatch):
    sys = DEEP6[regime][0]
    nodes = len(recurse(sys, gamma4_base)[1].nodes)
    for budget in (5, nodes - 1):
        monkeypatch.setattr(degeneration, "MAX_NODES", budget)
        _, trace = recurse(sys, gamma4_base)
        assert _budget_rows(trace)
        _assert_nodes_follow_the_walk(trace)


def _rejecting_base(gamma, d, mu):
    # CONDITIONAL at its edim, but UNKNOWN at mu = 7, the surface hat branch
    # of the one step of L^2(5, 2^9)
    v = k3_vdim_formula(gamma, d, mu, 1)
    if mu == 7:
        return DimensionReport(v, max(v, -1), None, Status.UNKNOWN)
    return DimensionReport(v, max(v, -1), max(v, -1), Status.CONDITIONAL)


def test_rejected_nonneg_step_adds_no_node():
    # L^2(5, 2^9) has v = -1, so its one step, at k = 6, is subject to both
    # rules; with the base UNKNOWN at mu = 7 both reject it, and the step is
    # recorded as NEG
    rep, trace = recurse(K3System(2, 5, 2, 9), _rejecting_base)
    assert rep.status is Status.UNKNOWN
    assert [node.key for node in trace.nodes] == [(2, 5, 2, 9), (2, 5, 6, 1), (2, 5, 7, 1)]
    assert len(json.loads(trace.to_json())["nodes"]) == 3
    root = trace.node
    assert (root.kind, root.step.regime, root.step.k) == ("failed", Regime.NEG, 6)
    _assert_nodes_follow_the_walk(trace)


# --- the recursion against the two-regime reference it replaced -------------


def _classify_base(gamma, d, mu):
    # the base classify recurses on: proved at gamma = 4, assumed elsewhere
    return (_proved_base if gamma == 4 else _assumed_base)(gamma, d, mu)


def _assert_matches_reference(sys, base):
    # whole records, children and leaves included, not only the keys
    _, trace = recurse(sys, base)
    assert trace.nodes == ref_recurse(sys, base)


@pytest.mark.parametrize("regime", sorted(DEEP6))
def test_trace_nodes_match_the_reference_recursion(regime, monkeypatch):
    sys = DEEP6[regime][0]
    nodes = len(recurse(sys, gamma4_base)[1].nodes)
    for budget in (degeneration.MAX_NODES, 5, nodes - 1):
        monkeypatch.setattr(degeneration, "MAX_NODES", budget)
        _assert_matches_reference(sys, gamma4_base)


@pytest.mark.parametrize("base", [_classify_base, _rejecting_base])
def test_trace_nodes_match_the_reference_recursion_at_v_minus_one(base):
    for key in _v_minus_one_keys():
        _assert_matches_reference(K3System(*key), base)


def test_one_step_per_node(monkeypatch):
    calls = []
    step = degeneration._step

    def counting(key, v, c):
        calls.append(key)
        return step(key, v, c)

    monkeypatch.setattr(degeneration, "_step", counting)
    # v = -1 and the NONNEG rule rejects the step: still one step
    recurse(K3System(2, 5, 2, 9), _rejecting_base)
    assert calls == [(2, 5, 2, 9)]
    # one step for each node with n > 1 within the budget, in memo order
    default = degeneration.MAX_NODES
    for sys, _ in DEEP6.values():
        for budget in (default, 5):
            monkeypatch.setattr(degeneration, "MAX_NODES", budget)
            calls.clear()
            _, trace = recurse(sys, gamma4_base)
            assert calls == [node.key for node in trace.nodes if node.step is not None]


def test_recursion_depth_is_one_frame_per_level(monkeypatch):
    # n = 4^800: 800 levels down the first branches, more than Python's
    # default recursion limit holds at two frames per level; the budget keeps
    # the run short
    monkeypatch.setattr(degeneration, "MAX_NODES", 3_000)
    rep, trace = recurse(K3System(4, 10, 1, 4**800), gamma4_base)
    assert rep.status is Status.UNKNOWN and rep.dim is None
    assert trace.node.kind == "failed"
    assert len(trace.nodes) - len(_budget_rows(trace)) == 3_000
