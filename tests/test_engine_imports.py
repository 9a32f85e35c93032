"""The engine path loads no numpy, no process pool and no OpenSSL.

`classify`, `to_json` and the CLI's `vdim`, `classify --trace` and
oracle-free `sweep` run in a fresh interpreter, since this one has imported
numpy already; the oracle's names then resolve on first access to the
objects their submodules define, through `k3fat.oracle` only.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = r"""
import json, sys, tempfile
from pathlib import Path

import k3fat, k3fat.cli
from k3fat.core import K3System

report = k3fat.classify(K3System.homogeneous(4, 100, 2, 4**3 * 9**3))
assert report.trace.to_json().startswith("{")
with tempfile.TemporaryDirectory() as tmp:
    for args in (
        ["vdim", "-g", "4", "-d", "5", "-m", "2", "-n", "4"],
        ["classify", "-g", "4", "-d", "100", "-m", "2", "-n", str(4**3 * 9**3),
         "--trace", str(Path(tmp, "trace.json"))],
        ["sweep", "--d-range", "1", "3", "--m-range", "1", "2", "--n-set", "1,4,9",
         "--out", str(Path(tmp, "table.csv"))],
    ):
        try:
            k3fat.cli.main(args)
        except SystemExit as exc:
            assert exc.code in (0, None), (args, exc.code)
heavy = ("numpy", "k3fat.oracle.field", "k3fat.oracle.quartic", "k3fat.oracle.series",
         "k3fat.oracle.planar", "concurrent.futures.process", "_hashlib", "secrets")
loaded = [name for name in heavy if name in sys.modules]

oracle = k3fat.oracle
lazy = [name for name in oracle.__all__ if name not in vars(oracle)]
values = {name: getattr(oracle, name) for name in lazy}
mismatched = [name for name, value in values.items()
              if getattr(sys.modules[value.__module__], name) is not value
              or vars(oracle)[name] is not value]
try:
    oracle.no_such_name
    unknown_raises = False
except AttributeError:
    unknown_raises = True
print(json.dumps({
    "loaded": loaded,
    "lazy": lazy,
    "mismatched": mismatched,
    "root_oracle_names": [name for name in ("measure_k3", "measure_planar", "rank_mod_p")
                        if hasattr(k3fat, name)],
    "unknown_raises": unknown_raises,
}))
"""


def test_engine_path_loads_no_numpy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    result = subprocess.run([sys.executable, "-c", SCRIPT], capture_output=True, text=True,
                            env=env, cwd=ROOT, timeout=120)
    assert result.returncode == 0, result.stderr
    found = json.loads(result.stdout.strip().splitlines()[-1])
    assert found["loaded"] == []
    assert set(found["lazy"]) == {
        "ChartSingularError", "QuarticSurfaceInstance", "k3_condition_rows",
        "measure_k3", "measure_k3_cross_checked", "measure_planar", "monomial_exponents",
        "planar_condition_rows", "poly_roots", "rank_mod_p", "sample_quartic_instance",
        "solve_implicit"}
    assert found["mismatched"] == []
    assert found["root_oracle_names"] == []
    assert found["unknown_raises"] is True
