"""Acceptance suite: one test per criterion, exact-match throughout.

Each test prints a single PASS line on success (run with -s to see them);
a failure raises through pytest as usual.
"""
import csv
import io
from pathlib import Path
from random import Random

import pytest
from click.testing import CliRunner

from k3fat.classify import Verdict, classify, verify
from k3fat.cli import main
from k3fat.core import (
    K3System,
    Status,
    point_conditions,
    vdim_k3,
    vdim_planar,
)
from k3fat.degeneration import Regime, _identity_holds, _step
from k3fat.oracle import PrimeFieldConfig, measure_k3_cross_checked, measure_planar
from step_reference import ref_branch_vdims

SEED = 1
SWEEP_ARGS = [
    "--seed", str(SEED),
    "sweep", "--gamma", "4",
    "--d-range", "1", "6",
    "--m-range", "1", "3",
    "--n-set", "1,4,9,16,36",
    "--oracle",
]
CFG = PrimeFieldConfig(seed=SEED, trials=3)
# The acceptance sweep as written by the seed implementation; the oracle
# kernels may change, the table for a fixed seed may not.
GOLDEN_SWEEP = Path(__file__).parent / "data" / "acceptance_sweep_seed1.csv"

ADMISSIBLE_N = sorted(
    4**u * 9**w for u in range(7) for w in range(4) if 4**u * 9**w <= 5184
)
COMPOSITE_N = [n for n in ADMISSIBLE_N if n > 1]


def _run_sweep(tmp_path, name):
    out = tmp_path / name
    result = CliRunner().invoke(main, SWEEP_ARGS + ["--out", str(out)])
    assert result.exit_code == 0, result.output
    return out.read_bytes()


@pytest.fixture(scope="module")
def sweep_bytes(tmp_path_factory):
    return _run_sweep(tmp_path_factory.mktemp("sweep"), "acceptance_sweep.csv")


def _sweep_rows(blob):
    reader = csv.DictReader(io.StringIO(blob.decode()))
    return list(reader)


def test_criterion_1_oracle_engine_equivalence_sweep(sweep_bytes):
    rows = _sweep_rows(sweep_bytes)
    assert len(rows) == 6 * 3 * 5
    definite = 0
    for row in rows:
        n, m = int(row["n"]), int(row["m"])
        assert n * point_conditions(m) <= 2000  # inside the size budget
        if row["status"] == "UNKNOWN":
            assert row["dim"] == ""
            assert row["verdict"] == "SKIPPED"
            assert row["oracle_dim"] != ""  # advisory measurement recorded
            continue
        definite += 1
        assert row["verdict"] == "AGREE", row
        assert row["dim"] == row["oracle_dim"], row
    assert definite >= 80
    print(f"\nACCEPTANCE 1 PASS: {definite} definite reports all AGREE with the "
          f"dual-prime oracle over {len(rows)} sweep instances")


def test_sweep_matches_golden_table(sweep_bytes):
    assert sweep_bytes == GOLDEN_SWEEP.read_bytes()


def test_criterion_2_special_case_reproduction():
    for d in (2, 3):
        sys = K3System.homogeneous(4, d, 2 * d, 1)
        rep = classify(sys)
        assert rep.status is Status.SPECIAL
        assert rep.dim == 0 and rep.edim == -1
        meas = measure_k3_cross_checked(d, (2 * d, 1), CFG)
        assert meas.dim == 0 and not meas.low_confidence
    print("\nACCEPTANCE 2 PASS: the single-divisor systems at mu = 2d have "
          "oracle dim 0 and engine verdict SPECIAL(0) for d in {2, 3}")


def test_criterion_3_emptiness_above_the_wall():
    for d in (2, 3):
        meas = measure_k3_cross_checked(d, (2 * d + 1, 1), CFG)
        assert meas.dim == -1 and not meas.low_confidence
    print("\nACCEPTANCE 3 PASS: oracle confirms emptiness at mu = 2d+1 for d in {2, 3}")


def test_criterion_4_planar_four_and_nine_points():
    checked = 0
    for delta in range(-2, 13):
        for mu in range(1, 5):
            for c in (4, 9):
                expected = max(-1, vdim_planar(delta, mu, c))
                assert measure_planar(delta, (mu, c), CFG).dim == expected, (delta, mu, c)
                checked += 1
    print(f"\nACCEPTANCE 4 PASS: planar oracle equals max(-1, vdim) on all "
          f"{checked} systems with 4 or 9 points, delta <= 12, mu <= 4")


def test_criterion_5_special_detector_control():
    meas = measure_planar(2, (2, 2), CFG)
    assert meas.dim == 0
    assert vdim_planar(2, 2, 2) == -1  # edim -1: the oracle catches the doubled line
    print("\nACCEPTANCE 5 PASS: oracle detects the special doubled-line system "
          "L(2, 2^2) with dim 0 against edim -1")


def test_criterion_6_vdim_identity_suite():
    rng = Random(20260811)
    failures = 0
    for _ in range(10_000):
        gamma = rng.choice([2, 4, 6, 8, 10])
        d = rng.randrange(1, 21)
        m = rng.randrange(1, 11)
        n = rng.choice(COMPOSITE_N)
        c = rng.choice([cc for cc in (4, 9) if n % cc == 0])
        k = rng.randrange(1, 51)
        sys = K3System.homogeneous(gamma, d, m, n)
        vdims = ref_branch_vdims(gamma, d, m, n // c, c, k)
        if not _identity_holds(vdim_k3(sys), n // c, k, vdims):
            failures += 1
    assert failures == 0
    print("\nACCEPTANCE 6 PASS: all four bookkeeping-identity forms hold on "
          "10000 random (gamma, d, m, n, c, k) tuples")


def test_criterion_7_matching_degree_existence():
    rng = Random(424242)
    confirmed = {Regime.NONNEG: 0, Regime.NEG: 0}
    failures = 0
    while min(confirmed.values()) < 1000:
        gamma = rng.choice([2, 4, 6, 8, 10])
        d = rng.randrange(1, 21)
        m = rng.randrange(1, 11)
        n = rng.choice(COMPOSITE_N)
        c = rng.choice([cc for cc in (4, 9) if n % cc == 0])
        sys = K3System.homogeneous(gamma, d, m, n)
        v = vdim_k3(sys)
        regime = Regime.NONNEG if v >= -1 else Regime.NEG
        if confirmed[regime] >= 1000:
            continue
        k = _step(sys.key, v, c)[3]
        if k is None:
            failures += 1
            continue
        b = n // c
        half = gamma // 2
        if regime is Regime.NONNEG:
            ok = (half * d * d + 1 - b * point_conditions(k) >= -1
                  and k * (k + 3) // 2 - c * point_conditions(m) >= -1)
        else:
            ok = (half * d * d + 1 - b * point_conditions(k + 1) <= -1
                  and (k - 1) * (k + 2) // 2 - c * point_conditions(m) <= -1)
        if not ok:
            failures += 1
        confirmed[regime] += 1
    assert failures == 0
    print("\nACCEPTANCE 7 PASS: a matching degree exists and satisfies its "
          "regime inequalities on 1000 random systems per regime")


def test_criterion_8_open_case_honesty():
    sys = K3System.homogeneous(4, 2, 2, 9)
    rep = classify(sys)
    assert rep.status is Status.UNKNOWN
    assert rep.dim is None
    outcome = verify(sys, rep, CFG)
    assert outcome.kind is Verdict.SKIPPED
    assert isinstance(outcome.oracle_dim, int)
    print(f"\nACCEPTANCE 8 PASS: the open case stays UNKNOWN; oracle advisory "
          f"dim {outcome.oracle_dim} recorded without changing the status")


def test_criterion_9_determinism(sweep_bytes, tmp_path):
    rerun = _run_sweep(tmp_path, "rerun.csv")
    assert rerun == sweep_bytes
    runner = CliRunner()
    traces = []
    for name in ("t1.json", "t2.json"):
        path = tmp_path / name
        result = runner.invoke(main, [
            "--seed", str(SEED), "classify", "--gamma", "4",
            "-d", "3", "-m", "2", "-n", "36", "--trace", str(path),
        ])
        assert result.exit_code == 0
        traces.append(path.read_bytes())
    assert traces[0] == traces[1]
    print("\nACCEPTANCE 9 PASS: identical seeds reproduce byte-identical "
          "sweep tables and traces")
