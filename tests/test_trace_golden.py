"""Byte-level pins of the degeneration trace JSON.

Each case classifies one homogeneous system and hashes `trace.to_json()`
with SHA-256; the expected digests in data/trace_sha256.json were taken
from the engine before its step arithmetic was consolidated, so any change
to a trace byte (a field, its order, a number, the indentation) fails here.
"""
import hashlib
import json
from pathlib import Path

import pytest

from k3fat.classify import BasePolicy, PolicyKind, classify
from k3fat.core import K3System

GOLDEN = json.loads((Path(__file__).parent / "data" / "trace_sha256.json").read_text())


def _policy(gamma):
    return None if gamma == 4 else BasePolicy(PolicyKind.HYPOTHESIS, gamma=gamma)


def _trace_json(gamma, d, m, n):
    report = classify(K3System.homogeneous(gamma, d, m, n), _policy(gamma))
    return report, report.trace.to_json()


@pytest.mark.parametrize("case", GOLDEN["systems"], ids=lambda case: case["name"])
def test_trace_json_matches_golden(case):
    report, text = _trace_json(case["gamma"], case["d"], case["m"], case["n"])
    root = json.loads(text)
    assert (report.status.value, root["kind"]) == (case["status"], case["kind"])
    assert hashlib.sha256(text.encode()).hexdigest() == case["sha256"]


@pytest.mark.parametrize("gamma", sorted(GOLDEN["grids"], key=int))
def test_trace_json_grid_matches_golden(gamma):
    # every system of the acceptance grid, concatenated in grid order
    digest = hashlib.sha256()
    for d in range(1, 7):
        for m in range(1, 4):
            for n in (1, 4, 9, 16, 36):
                digest.update(_trace_json(int(gamma), d, m, n)[1].encode())
    assert digest.hexdigest() == GOLDEN["grids"][gamma]
