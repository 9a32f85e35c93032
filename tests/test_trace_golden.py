"""Pins of the degeneration trace JSON, schema k3fat.trace/2.

Each case classifies one homogeneous system and hashes `trace.to_json()`
with SHA-256 against data/trace_sha256.json, so any change to a trace
byte (a field, its order, a number, a line break) fails here.

The node table is also decoded and compared, node by node, with the nested
schema-1 dictionary that tests/trace_reference.py rebuilds from the same
trace; and that reference, written as schema 1 wrote it, must still hash to
the schema-1 digests in data/trace_v1_sha256.json, taken before the table
replaced the nested trace.  Together the two checks show that the recursion
and every value of the trace are unchanged.  The nodes themselves are
compared, record for record, with those of `ref_recurse`, the recursion
that tried each regime of a node in turn.
"""
import hashlib
import json
from pathlib import Path

import pytest

from k3fat.classify import _assumed_base, _proved_base, classify
from k3fat.core import K3System, PlanarSystem, Status, edim, vdim_planar
from trace_reference import ref_node_order, ref_recurse, reference_dict

DATA = Path(__file__).parent / "data"
GOLDEN = json.loads((DATA / "trace_sha256.json").read_text())
GOLDEN_V1 = json.loads((DATA / "trace_v1_sha256.json").read_text())


def _report(gamma, d, m, n):
    # the proved base at gamma = 4, the assumed non-special base elsewhere
    return classify(K3System.homogeneous(gamma, d, m, n), assume_base=gamma != 4)


def _grid_keys(gamma):
    # every system of the acceptance grid, in grid order
    for d in range(1, 7):
        for m in range(1, 4):
            for n in (1, 4, 9, 16, 36):
                yield gamma, d, m, n


def _grid(gamma):
    for key in _grid_keys(gamma):
        yield _report(*key)


def _key(case):
    return case["gamma"], case["d"], case["m"], case["n"]


def decode(doc):
    """The rows of a trace/2 document as dicts keyed by field name."""
    return [dict(zip(doc["fields"], row)) for row in doc["nodes"]]


def _flat_reference(ref, key, certified):
    """A schema-1 node in the shape of a decoded table row, without the
    child ids."""
    out = dict(zip(("gamma", "d", "m", "n"), key))
    out.update(vdim=ref["vdim"], edim=ref["edim"], dim=ref["dim"], status=ref["status"],
               certified=certified, kind=ref["kind"], note=ref.get("note"))
    step = ref.get("step")
    if step is not None:
        out.update({name: step[name] for name in (
            "c", "b", "k", "regime", "r_surface", "r_planar", "intersection_dim", "l0")})
        for leaf in ("planar", "planar_hat"):
            out.update({f"{leaf}.{name}": value
                        for name, value in step["branches"][leaf].items()})
    return out


def assert_table_matches_reference(trace):
    text = trace.to_json()
    doc = json.loads(text)
    assert (doc["schema"], doc["root"]) == ("k3fat.trace/2", 0)
    lines = text.split("\n")
    assert len(lines) == len(doc["nodes"]) + 2  # header, one line per node, "]}"
    rows = decode(doc)
    ref = reference_dict(trace)
    first_visits = []

    def visit(ref_node, key, certified, node_id):
        if node_id not in first_visits:
            first_visits.append(node_id)
        row = dict(rows[node_id])
        surface, surface_hat = row.pop("surface", None), row.pop("surface_hat", None)
        assert row == _flat_reference(ref_node, key, certified)
        step = ref_node.get("step")
        if step is None:
            assert surface is None and surface_hat is None
            return
        gamma, d = key[:2]
        for branch, mult, child in (("surface", step["k"], surface),
                                    ("surface_hat", step["k"] + 1, surface_hat)):
            child_key = (gamma, d, mult, step["b"]) if mult else (gamma, d, 0, 0)
            sub = step["branches"][branch]
            # schema 1 kept `certified` on the root only; below it, a node is
            # certified exactly when it has a dimension
            visit(sub, child_key, sub["dim"] is not None, child)

    root = ref["system"]
    visit(ref, (root["gamma"], root["d"], root["m"], root["n"]), ref["certified"], 0)
    # one row per distinct node, numbered in DFS preorder
    assert first_visits == list(range(len(rows)))


@pytest.mark.parametrize("case", GOLDEN["systems"], ids=lambda case: case["name"])
def test_trace_json_matches_golden(case):
    report = _report(*_key(case))
    text = report.trace.to_json()
    doc = json.loads(text)
    root = decode(doc)[doc["root"]]
    assert (report.status.value, root["kind"]) == (case["status"], case["kind"])
    assert hashlib.sha256(text.encode()).hexdigest() == case["sha256"]


@pytest.mark.parametrize("gamma", sorted(GOLDEN["grids"], key=int))
def test_trace_json_grid_matches_golden(gamma):
    digest = hashlib.sha256()
    for report in _grid(int(gamma)):
        digest.update(report.trace.to_json().encode())
    assert digest.hexdigest() == GOLDEN["grids"][gamma]


@pytest.mark.parametrize("case", GOLDEN["systems"], ids=lambda case: case["name"])
def test_node_table_matches_reference(case):
    assert_table_matches_reference(_report(*_key(case)).trace)


@pytest.mark.parametrize("gamma", [4, 6, 8])
def test_node_table_matches_reference_on_grid(gamma):
    for report in _grid(gamma):
        assert_table_matches_reference(report.trace)


@pytest.mark.parametrize("gamma", [4, 6, 8])
def test_planar_columns_match_the_planar_formula_on_grid(gamma):
    # the planar branches are stored as two vdims; their rows' columns must
    # be those of L(k, m^c) and L(k-1, m^c) by core's formula
    steps = 0
    for report in _grid(gamma):
        for row in decode(json.loads(report.trace.to_json())):
            if row.get("c") is None:
                continue
            for leaf, delta in (("planar", row["k"]), ("planar_hat", row["k"] - 1)):
                v = vdim_planar(PlanarSystem(delta, row["m"], row["c"]))
                assert [row[f"{leaf}.{name}"] for name in
                        ("delta", "vdim", "edim", "dim", "status")] == \
                    [delta, v, edim(v), edim(v), Status.NONSPECIAL.value]
            steps += 1
    assert steps


@pytest.mark.parametrize("gamma", [4, 6, 8])
def test_trace_nodes_follow_the_reference_walk_on_grid(gamma):
    # the trace keeps the recursion's memo order, which must be the DFS
    # preorder of the reference walk
    for report in _grid(gamma):
        trace = report.trace
        assert trace.node is trace.nodes[0]
        assert [node.key for node in trace.nodes] == \
            [node.key for node in ref_node_order(trace.node)]


def _assert_nodes_match_the_reference_recursion(key):
    # whole records against the two-regime recursion, on classify's base
    base = _proved_base if key[0] == 4 else _assumed_base
    assert _report(*key).trace.nodes == ref_recurse(K3System(*key), base)


@pytest.mark.parametrize("case", GOLDEN["systems"], ids=lambda case: case["name"])
def test_trace_nodes_match_the_reference_recursion(case):
    _assert_nodes_match_the_reference_recursion(_key(case))


@pytest.mark.parametrize("gamma", [4, 6, 8])
def test_trace_nodes_match_the_reference_recursion_on_grid(gamma):
    for key in _grid_keys(gamma):
        _assert_nodes_match_the_reference_recursion(key)


@pytest.mark.parametrize("gamma", [4, 6, 8])
def test_node_system_has_the_node_key(gamma):
    for key in _grid_keys(gamma):
        todo = [_report(*key).trace.node]
        assert todo[0].key == key
        while todo:
            node = todo.pop()
            assert node.system.key == node.key
            if node.step is not None:
                todo += (node.step.surface_node, node.step.surface_hat_node)


@pytest.mark.parametrize("case", GOLDEN_V1["systems"], ids=lambda case: case["name"])
def test_reference_reproduces_schema1_bytes(case):
    text = json.dumps(reference_dict(_report(*_key(case)).trace), indent=2)
    assert hashlib.sha256(text.encode()).hexdigest() == case["sha256"]


@pytest.mark.parametrize("gamma", sorted(GOLDEN_V1["grids"], key=int))
def test_reference_reproduces_schema1_bytes_on_grid(gamma):
    digest = hashlib.sha256()
    for report in _grid(int(gamma)):
        digest.update(json.dumps(reference_dict(report.trace), indent=2).encode())
    assert digest.hexdigest() == GOLDEN_V1["grids"][gamma]
