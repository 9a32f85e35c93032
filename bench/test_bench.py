"""Tests of the benchmark's own arithmetic and checks.

    python3 -m pytest bench/test_bench.py
"""
import json
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("n, q, rank", [
    (20, 50.0, 10),
    (39, 50.0, 20),
    (40, 75.0, 30),
    (99, 75.0, 75),
    (100, 90.0, 90),
    (200, 95.0, 190),
    (1000, 99.0, 990),
    (10000, 99.9, 9990),
])
def test_tail_is_highest_ladder_percentile_with_ten_beyond(n, q, rank):
    values = [float(i) for i in range(n, 0, -1)]  # unsorted on purpose
    assert run.tail(values) == (q, float(rank), n)
    assert n - rank >= run.MIN_BEYOND


def test_tail_needs_twenty_samples():
    assert run.tail([1.0] * 19) is None


def _span(name, start, end, parent):
    return [name, start, end, parent, 0, None]


def test_self_time_subtracts_children_and_counts_overlap_once():
    tree = [
        _span("root", 0.0, 10.0, None),
        _span("a", 1.0, 4.0, 0),
        _span("a.child", 2.0, 3.0, 1),
        _span("b", 5.0, 9.0, 0),
    ]
    assert spans.self_times(tree) == pytest.approx([3.0, 2.0, 1.0, 4.0])
    overlapping = [
        _span("root", 0.0, 10.0, None),
        _span("x", 1.0, 5.0, 0),
        _span("y", 3.0, 7.0, 0),
        _span("z", 9.0, 12.0, 0),  # clipped to the parent's end
    ]
    assert spans.self_times(overlapping)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_tracer_nests_wrapped_calls_and_restores_them():
    module = types.SimpleNamespace()
    module.leaf = lambda x: x + 1
    module.inner = lambda x, prime: module.leaf(x) * 2
    module.outer = lambda x: module.inner(x, prime=7) + module.leaf(x)
    originals = dict(vars(module))
    tracer = spans.Tracer()
    tracer.wrap(module, "outer", "outer")
    tracer.wrap(module, "inner", "inner", prime_of=lambda args, kwargs: kwargs["prime"])
    tracer.wrap(module, "leaf", "leaf",
                count=lambda t, prime, result: t.add("leaf.out", prime, result))
    assert module.outer(1) == 6
    tracer.restore()
    assert vars(module) == originals
    names = [(name, parent, prime) for name, _, _, parent, _, prime in tracer.spans]
    assert names == [("outer", None, None), ("inner", 0, 7), ("leaf", 1, 7), ("leaf", 0, None)]
    assert tracer.counts == {("leaf.out", 7): 2, ("leaf.out", None): 2}
    selfs = spans.self_times(tracer.spans)
    root = tracer.spans[0]
    assert sum(selfs) == pytest.approx(root[2] - root[1])


class Raising:
    def run(self):
        raise RuntimeError("boom")

    def check(self, result):
        return None


def test_failed_ratio_counts_a_wrong_expected_answer():
    right = workloads.DeepClassification(5, 2, 1, 1, workloads.expected_verdict(5, 2, 1, 1))
    wrong = workloads.DeepClassification(5, 2, 1, 1, ("UNKNOWN", None))
    times, failures = worker.run_ops([right, wrong, right, Raising()])
    assert len(times) == 4
    assert len(failures) == 2
    assert "expected ('UNKNOWN', None)" in failures[0]
    assert "RuntimeError: boom" in failures[1]
    assert run.failed_ratio(len(failures), len(times)) == 0.5


@pytest.mark.parametrize("status, dim, verdict, oracle_dim, ok", [
    ("NONSPECIAL", 3, "AGREE", 3, True),
    ("NONSPECIAL", 3, "DISAGREE", 4, False),
    ("NONSPECIAL", 3, "AGREE", 4, False),
    ("SPECIAL", 0, "SKIPPED", None, False),
    ("UNKNOWN", None, "SKIPPED", -1, True),
    ("UNKNOWN", None, "SKIPPED", None, False),
])
def test_oracle_problem(status, dim, verdict, oracle_dim, ok):
    problem = workloads.oracle_problem(2, 2, 4, status, dim, verdict, oracle_dim)
    assert (problem is None) == ok


@pytest.mark.parametrize("regime", workloads.REGIMES)
def test_deep_systems_fall_in_their_regime(regime):
    rng = workloads.random.Random(0)
    for _ in range(200):
        op = workloads.deep_system(rng, regime)
        assert op.u + op.w == workloads.DEPTH
        status, dim = op.expected
        assert status == ("UNKNOWN" if regime == "UNKNOWN" else "NONSPECIAL")
        assert (dim == -1) == (regime == "NEG") or regime == "UNKNOWN"


def test_benchmark_json_names_what_run_prints():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert run.WORKLOADS == tuple(workloads.WORKLOADS)
    e2e = run.end_to_end([1.0], {"op_s": [0.5, 1.5], "peak_rss_mb": 40.0})
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        name: metric["unit"] for name, metric in e2e.items()}
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == spans.per_layer_names()
