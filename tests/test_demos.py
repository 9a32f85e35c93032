"""The demos run end to end and print exactly their recorded output.

Every demo is deterministic (fixed seeds, no hash-order dependence), so its
stdout is compared byte for byte with the copy in data/demos/.
"""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_output_matches_golden(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    result = subprocess.run([sys.executable, str(demo)], capture_output=True,
                            env=env, cwd=ROOT, timeout=120)
    assert result.returncode == 0, result.stderr.decode()
    golden = ROOT / "tests" / "data" / "demos" / f"{demo.stem}.out"
    assert result.stdout == golden.read_bytes()
