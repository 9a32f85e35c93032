import concurrent.futures
import dataclasses
import hashlib
import json

import pytest
from click.testing import CliRunner

import k3fat.oracle
from k3fat import cli
from k3fat.cli import SWEEP_HEADER, main
from k3fat.classify import classify
from k3fat.core import K3System
from k3fat.degeneration import DegenerationTrace
from k3fat.oracle import OracleMeasurement


@pytest.fixture()
def runner():
    return CliRunner()


def invoke(runner, *args, env=None):
    return runner.invoke(main, list(args), env=env, catch_exceptions=False)


def test_vdim_single_point(runner):
    result = invoke(runner, "vdim", "--gamma", "4", "-d", "2", "-m", "4", "-n", "1")
    assert result.exit_code == 0
    assert result.output.strip() == "vdim=-1 edim=-1"


def test_vdim_unconditioned(runner):
    result = invoke(runner, "vdim", "--gamma", "4", "-d", "3")
    assert result.exit_code == 0
    assert result.output.strip() == "vdim=19 edim=19"


def test_vdim_rejects_odd_gamma(runner):
    result = runner.invoke(main, ["vdim", "--gamma", "3", "-d", "2"])
    assert result.exit_code == 2
    assert "gamma must be even" in result.output


def test_vdim_rejects_n_without_m(runner):
    result = runner.invoke(main, ["vdim", "--gamma", "4", "-d", "2", "-n", "4"])
    assert result.exit_code == 2
    assert "-n needs -m" in result.output


def test_vdim_m_alone_is_one_point(runner):
    result = invoke(runner, "vdim", "--gamma", "4", "-d", "2", "-m", "4")
    assert result.exit_code == 0
    assert result.output.strip() == "vdim=-1 edim=-1"


def test_vdim_record_errors_are_usage_errors(runner):
    for args, message in ((["--gamma", "0", "-d", "2"], "gamma must be even and >= 2"),
                          (["--gamma", "4", "-d", "0"], "degree must be >= 1"),
                          (["--gamma", "4", "-d", "2", "-m", "0"], "m must be >= 1"),
                          (["--gamma", "4", "-d", "2", "-m", "1", "-n", "0"], "n must be >= 1")):
        result = runner.invoke(main, ["vdim", *args])
        assert result.exit_code == 2, args
        assert message in result.output, args


def test_classify_with_trace(runner, tmp_path):
    trace = tmp_path / "trace.json"
    result = invoke(runner, "classify", "--gamma", "4", "-d", "2", "-m", "2",
                    "-n", "4", "--trace", str(trace))
    assert result.exit_code == 0
    assert "dim=-1 status=NONSPECIAL" in result.output
    doc = json.loads(trace.read_text())
    root = dict(zip(doc["fields"], doc["nodes"][doc["root"]]))
    assert [root[name] for name in ("gamma", "d", "m", "n")] == [4, 2, 2, 4]
    assert root["k"] == 4


def test_classify_trace_file_holds_the_to_json_text(runner, tmp_path, monkeypatch):
    # 2^(4^3 9^3) at d = 100: a table of many chunks, written piece by piece
    # and never joined into one string
    trace = tmp_path / "trace.json"
    args = ("-d", "100", "-m", "2", "-n", str(4**3 * 9**3))
    with monkeypatch.context() as patch:
        patch.setattr(DegenerationTrace, "to_json", None)
        assert invoke(runner, "classify", "--gamma", "4", *args,
                      "--trace", str(trace)).exit_code == 0
    report = classify(K3System.homogeneous(4, 100, 2, 4**3 * 9**3))
    assert trace.read_bytes() == report.trace.to_json().encode()


def test_interrupted_trace_export_keeps_the_previous_file(runner, tmp_path, monkeypatch):
    trace = tmp_path / "trace.json"
    trace.write_bytes(b"previous trace\n")
    args = ("classify", "--gamma", "4", "-d", "2", "-m", "2", "-n", "4",
            "--trace", str(trace))

    def failing_json_chunks(self):
        # interrupted after the first piece has reached the file
        yield '{"schema":'
        raise RuntimeError("interrupted")

    def failing_replace(src, dst):
        raise OSError("disk full")

    for owner, name, failure, error in (
        (DegenerationTrace, "json_chunks", failing_json_chunks, RuntimeError),
        (cli.os, "replace", failing_replace, OSError),
    ):
        with monkeypatch.context() as patch:
            patch.setattr(owner, name, failure)
            with pytest.raises(error):
                invoke(runner, *args)
        assert trace.read_bytes() == b"previous trace\n"
        assert [path.name for path in tmp_path.iterdir()] == ["trace.json"]

    assert invoke(runner, *args).exit_code == 0
    assert json.loads(trace.read_text())["schema"] == "k3fat.trace/2"


def test_classify_open_case(runner):
    result = invoke(runner, "classify", "--gamma", "4", "-d", "2", "-m", "2", "-n", "9")
    assert result.exit_code == 0
    assert "status=UNKNOWN" in result.output


def test_classify_hypothesis_policy(runner):
    result = invoke(runner, "classify", "--gamma", "6", "-d", "2", "-m", "1",
                    "-n", "4", "--assume-base")
    assert result.exit_code == 0
    assert "status=CONDITIONAL" in result.output


def test_classify_gamma6_without_assume_base_is_usage_error(runner):
    result = runner.invoke(main, ["classify", "--gamma", "6", "-d", "2", "-m", "1", "-n", "4"])
    assert result.exit_code == 2


def test_classify_assume_base_has_no_effect_at_gamma4(runner):
    args = ("classify", "--gamma", "4", "-d", "2", "-m", "4", "-n", "1")
    plain = invoke(runner, *args)
    assumed = invoke(runner, *args, "--assume-base")
    assert plain.exit_code == assumed.exit_code == 0
    assert assumed.output == plain.output
    assert "dim=0 status=SPECIAL" in assumed.output


def test_classify_rejects_bad_n(runner):
    result = runner.invoke(main, ["classify", "--gamma", "4", "-d", "2", "-m", "1", "-n", "6"])
    assert result.exit_code == 2
    assert "4^u * 9^w" in result.output


DEEPER_THAN_THE_RECURSION_LIMIT = str(4**1200)


@pytest.mark.parametrize("command", [
    ("classify", "-g", "4", "-d", "10", "-m", "1", "-n", DEEPER_THAN_THE_RECURSION_LIMIT),
    ("verify", "-g", "4", "-d", "10", "-m", "1", "-n", DEEPER_THAN_THE_RECURSION_LIMIT),
    ("sweep", "--d-range", "10", "10", "--m-range", "1", "1",
     "--n-set", DEEPER_THAN_THE_RECURSION_LIMIT),
], ids=lambda command: command[0])
def test_recursion_deeper_than_the_limit_is_a_usage_error(runner, tmp_path, command):
    # 1 200 levels, one Python frame each: exit 2 with one line naming
    # u + w, not a traceback and exit 1, the code of an oracle disagreement
    out = tmp_path / "sweep.csv"
    args = command + (("--out", str(out)) if command[0] == "sweep" else ())
    result = runner.invoke(main, list(args))
    assert result.exit_code == 2 and isinstance(result.exception, SystemExit)
    assert ("Error: n = 4^1200 * 9^0: a recursion u + w = 1200 levels deep does not fit "
            "in the interpreter's recursion limit") in result.output
    assert "Traceback" not in result.output
    assert not out.exists()


def test_commands_call_classify_through_the_module(runner, tmp_path, monkeypatch):
    # a wrapper set on cli.classify sees every call of classify, verify and sweep
    calls = []

    def counting(sys_, **kwargs):
        calls.append(sys_.key)
        return classify(sys_, **kwargs)

    monkeypatch.setattr(cli, "classify", counting)
    assert invoke(runner, "classify", "-g", "4", "-d", "2", "-m", "1", "-n", "4").exit_code == 0
    assert invoke(runner, "--trials", "2", "--prime2", "0",
                  "verify", "-g", "4", "-d", "1", "-m", "2").exit_code == 0
    assert invoke(runner, "sweep", "--d-range", "1", "1", "--m-range", "1", "1",
                  "--n-set", "1", "--out", str(tmp_path / "sweep.csv")).exit_code == 0
    assert calls == [(4, 2, 1, 4), (4, 1, 2, 1), (4, 1, 1, 1)]


def test_verify_agree(runner):
    result = invoke(runner, "--trials", "2", "--prime2", "0",
                    "verify", "--gamma", "4", "-d", "1", "-m", "2", "-n", "1")
    assert result.exit_code == 0
    assert "verdict=AGREE" in result.output
    assert "oracle_dim=0" in result.output


def test_verify_unknown_is_skipped_with_advisory(runner):
    result = invoke(runner, "--trials", "2", "--prime2", "0",
                    "verify", "--gamma", "4", "-d", "2", "-m", "2", "-n", "9")
    assert result.exit_code == 0
    assert "verdict=SKIPPED" in result.output
    assert "oracle_dim=-1" in result.output
    assert "status=UNKNOWN" in result.output


def test_verify_budget_exit_code(runner):
    result = invoke(runner, "--budget-rows", "5",
                    "verify", "--gamma", "4", "-d", "2", "-m", "2", "-n", "4")
    assert result.exit_code == 3


def test_verify_cache_roundtrip(runner, tmp_path):
    cache = tmp_path / "cache"
    args = ("--trials", "2", "--prime2", "0",
            "verify", "--gamma", "4", "-d", "2", "-m", "2", "-n", "4",
            "--cache", str(cache))
    first = invoke(runner, *args)
    assert first.exit_code == 0
    entries = list(cache.glob("*.json"))
    assert len(entries) == 1
    # the file is named by the SHA-256 of the full entry key
    key = {"schema": cli.CACHE_SCHEMA, "d": 2, "points": [[2, 4]], "prime": 2**31 - 1,
           "prime2": None, "seed": 1, "trials": 2, "budget_rows": 20000}
    digest = hashlib.sha256(json.dumps(key, sort_keys=True).encode()).hexdigest()
    assert entries[0].name == f"{digest}.json"
    entry = json.loads(entries[0].read_text())
    assert {name: entry[name] for name in key} == key
    second = invoke(runner, *args)
    assert second.output == first.output


def test_verify_cache_entry_names_stay_fixed(runner, tmp_path):
    # L^4(2, 2^4) at the default configuration: an entry already on disk is
    # served only while its key, and so its file name, stays the same
    cache = tmp_path / "cache"
    result = invoke(runner, "verify", "-g", "4", "-d", "2", "-m", "2", "-n", "4",
                    "--cache", str(cache))
    assert result.output == ("verdict=AGREE status=NONSPECIAL engine_dim=-1 oracle_dim=-1 "
                             "low_confidence=False\n")
    assert [p.name for p in cache.iterdir()] == [
        "947c06e192580472f36c87c00d19a920d5ce06f6e8bfc67daebeeb399b23753b.json"]


def test_verify_cache_measures_schema_2_entries_again(runner, tmp_path):
    # schema 2 stored the raw monomial count C(d+3, 3) as cols; such an
    # entry, even one with a wrong dim, is never served
    cache = tmp_path / "cache"
    cache.mkdir()
    old_key = {"schema": "k3fat.oracle-measurement/2", "d": 4, "points": [[2, 4]],
               "prime": 2**31 - 1, "prime2": None, "seed": 1, "trials": 2,
               "budget_rows": 20000}
    digest = hashlib.sha256(json.dumps(old_key, sort_keys=True).encode()).hexdigest()
    stale = dict(old_key, measurement={"dim": 9, "trial_dims": [9, 9], "low_confidence": False,
                                       "prime": 2**31 - 1, "rows": 12, "cols": 35})
    (cache / f"{digest}.json").write_text(json.dumps(stale))
    result = invoke(runner, "--trials", "2", "--prime2", "0", "verify", "--gamma", "4",
                    "-d", "4", "-m", "2", "-n", "4", "--cache", str(cache))
    assert "verdict=AGREE" in result.output and "oracle_dim=21" in result.output
    (fresh,) = [p for p in cache.glob("*.json") if p.name != f"{digest}.json"]
    entry = json.loads(fresh.read_text())
    assert entry["schema"] == "k3fat.oracle-measurement/3"
    assert (entry["measurement"]["dim"], entry["measurement"]["cols"]) == (21, 34)


def test_verify_cache_keeps_one_file_per_key(runner, tmp_path, monkeypatch):
    # runs that differ only in a key field other than (d, m, n, prime, seed)
    # keep separate entries: switching back is served from the cache
    calls = []
    measure = k3fat.oracle.measure_k3_cross_checked

    def counting_measure(*args):
        calls.append(args)
        return measure(*args)

    monkeypatch.setattr(k3fat.oracle, "measure_k3_cross_checked", counting_measure)
    cache = tmp_path / "cache"
    args = ("verify", "--gamma", "4", "-d", "2", "-m", "2", "-n", "4", "--cache", str(cache))
    outputs = [invoke(runner, "--trials", trials, "--prime2", "0", *args).output
               for trials in ("2", "3", "2")]
    assert len(list(cache.glob("*.json"))) == 2
    assert len(calls) == 2  # the third run measured nothing
    assert outputs[2] == outputs[0]


def test_verify_cache_recomputes_verdict(runner, tmp_path):
    # L^4(2, 2^4) is empty (engine dim -1); a cached entry may supply only
    # the oracle measurement, and a wrong one must show up as DISAGREE
    cache = tmp_path / "cache"
    args = ("--trials", "2", "--prime2", "0",
            "verify", "--gamma", "4", "-d", "2", "-m", "2", "-n", "4",
            "--cache", str(cache))
    fresh = invoke(runner, *args)
    assert fresh.exit_code == 0 and "verdict=AGREE" in fresh.output
    (path,) = cache.glob("*.json")
    entry = json.loads(path.read_text())
    assert entry["measurement"]["dim"] == -1

    entry["measurement"].update(dim=5, trial_dims=[5, 5])
    entry["verdict"] = "AGREE"
    path.write_text(json.dumps(entry))
    tampered = runner.invoke(main, list(args))
    assert tampered.exit_code == 1
    assert "verdict=DISAGREE" in tampered.output and "oracle_dim=5" in tampered.output

    # an entry of another format (here the former verdict record) is ignored
    # and replaced by a fresh measurement
    path.write_text(json.dumps({"verdict": "AGREE", "oracle_dim": 5, "trials": 2,
                                "prime2": None, "budget_rows": 20000}))
    assert invoke(runner, *args).output == fresh.output
    assert json.loads(path.read_text())["measurement"]["dim"] == -1
    assert [p.name for p in cache.iterdir()] == [path.name]  # no temporary files left


@pytest.mark.parametrize("tampered", [
    {"dim": -1},  # not the minimum of the trial dims
    {"low_confidence": True},  # the trial dims agree
    {"cols": 5},  # L^4(3) has 2 * 3^2 + 2 = 20 standard monomials
    {"trial_dims": "77"},  # a string, not a list of ints
    {"trial_dims": [7, 7, 7]},  # 3 trial dims for 2 trials at one prime
], ids=["dim", "low_confidence", "cols", "string_trial_dims", "trial_count"])
def test_verify_cache_measures_inconsistent_entries_again(runner, tmp_path, monkeypatch, tampered):
    calls = []
    measure = k3fat.oracle.measure_k3_cross_checked

    def counting_measure(*args):
        calls.append(args)
        return measure(*args)

    monkeypatch.setattr(k3fat.oracle, "measure_k3_cross_checked", counting_measure)
    cache = tmp_path / "cache"
    args = ("--trials", "2", "--prime2", "0",
            "verify", "--gamma", "4", "-d", "3", "-m", "2", "-n", "4", "--cache", str(cache))
    fresh = invoke(runner, *args)
    assert "verdict=AGREE" in fresh.output and "oracle_dim=7" in fresh.output
    (path,) = cache.glob("*.json")
    entry = json.loads(path.read_text())
    assert entry["measurement"] == {"dim": 7, "trial_dims": [7, 7], "low_confidence": False,
                                    "prime": 2**31 - 1, "rows": 12, "cols": 20}
    path.write_text(json.dumps(dict(entry, measurement=dict(entry["measurement"], **tampered))))
    assert invoke(runner, *args).output == fresh.output
    assert len(calls) == 2  # measured again, and the entry overwritten
    assert json.loads(path.read_text()) == entry
    assert invoke(runner, *args).output == fresh.output
    assert len(calls) == 2  # the rewritten entry is served


def test_outputs_into_a_missing_directory_are_usage_errors(runner, tmp_path, monkeypatch):
    # checked before any work: no row computed, no system classified, no file
    rows, systems = [], []
    monkeypatch.setattr(cli, "_sweep_row", lambda task: rows.append(task))
    monkeypatch.setattr(cli, "classify", lambda *args, **kw: systems.append(args))
    missing = tmp_path / "missing"
    result = runner.invoke(main, ["sweep", "--d-range", "1", "2", "--m-range", "1", "1",
                                  "--n-set", "1", "--out", str(missing / "table.csv")])
    assert result.exit_code == 2
    assert "the directory of" in result.output and "does not exist" in result.output
    result = runner.invoke(main, ["classify", "--gamma", "4", "-d", "2", "-m", "2", "-n", "4",
                                  "--trace", str(missing / "trace.json")])
    assert result.exit_code == 2
    assert "does not exist" in result.output
    assert rows == [] and systems == []
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", [
    ("verify", "--gamma", "4", "-d", "2", "-m", "1", "-n", "4"),
    ("sweep", "--d-range", "2", "2", "--m-range", "1", "1", "--n-set", "4", "--oracle"),
])
def test_an_unusable_cache_directory_is_a_usage_error(runner, tmp_path, monkeypatch, command):
    # a file where the cache directory would go: exit 2 before the oracle
    # runs, not exit 1 (the disagreement code) with a traceback after it
    def oracle(*args):
        raise AssertionError("the oracle ran")

    monkeypatch.setattr(k3fat.oracle, "measure_k3_cross_checked", oracle)
    (tmp_path / "f").touch()
    out = ["--out", str(tmp_path / "table.csv")] if command[0] == "sweep" else []
    result = runner.invoke(main, [*command, *out, "--cache", str(tmp_path / "f" / "sub")])
    assert result.exit_code == 2 and isinstance(result.exception, SystemExit)
    assert f"cannot use {tmp_path / 'f' / 'sub'} as the cache directory" in result.output
    assert [path.name for path in tmp_path.iterdir()] == ["f"]


def test_verify_cache_respects_budget(runner, tmp_path):
    # an entry measured under a larger budget is not served under a smaller
    # one: the run is over budget (exit 3) with or without the cache
    cache = tmp_path / "cache"
    args = ("verify", "--gamma", "4", "-d", "2", "-m", "2", "-n", "4", "--cache", str(cache))
    assert invoke(runner, "--trials", "2", "--prime2", "0", *args).exit_code == 0
    result = runner.invoke(main, ["--trials", "2", "--prime2", "0", "--budget-rows", "5",
                                  *args])
    assert result.exit_code == 3
    assert "verdict=SKIPPED" in result.output and "oracle_dim=NA" in result.output


def test_sweep_rejects_nonpositive_jobs(runner, tmp_path):
    result = runner.invoke(main, ["sweep", "--d-range", "1", "1", "--m-range", "1", "1",
                                  "--n-set", "1", "--jobs", "0",
                                  "--out", str(tmp_path / "x.csv")])
    assert result.exit_code == 2
    assert "--jobs" in result.output


class RecordingPool:
    """Stands in for the process pool: records its size, maps serially."""

    def __init__(self, started, max_workers):
        started.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


def _record_pools(monkeypatch):
    """Patch the process pool with RecordingPool; returns the sizes started."""
    started = []
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        lambda max_workers: RecordingPool(started, max_workers))
    return started


def _measure_edim(d, points, cfg):
    """A stand-in measurement of L^4(d, m^n): its expected dimension."""
    m, n = points
    return OracleMeasurement.from_trials([max(2 * d * d + 1 - n * m * (m + 1) // 2, -1)],
                                         cfg.prime, 0, 0)


def test_sweep_clamps_worker_count(runner, tmp_path, monkeypatch):
    started = _record_pools(monkeypatch)
    # only the pool's size is under test, so no row samples anything
    monkeypatch.setattr(k3fat.oracle, "measure_k3_cross_checked", _measure_edim)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 8)
    base = ["sweep", "--d-range", "1", "1", "--m-range", "1", "1", "--oracle"]
    out = str(tmp_path / "x.csv")
    assert invoke(runner, *base, "--n-set", "1,4,9", "--jobs", "1000", "--out", out).exit_code == 0
    assert invoke(runner, *base, "--n-set", "1,4,9,16,36,64,81,144,256,324",
                  "--jobs", "1000", "--out", out).exit_code == 0
    assert started == [3, 8]  # one worker per row, then one per CPU
    monkeypatch.setattr(cli.os, "cpu_count", lambda: None)
    assert invoke(runner, *base, "--n-set", "1,4,9", "--jobs", "4", "--out", out).exit_code == 0
    assert started == [3, 8]  # unknown CPU count: serial, no pool


def test_sweep_without_the_oracle_starts_no_pool(runner, tmp_path, monkeypatch):
    args = ["sweep", "--d-range", "1", "3", "--m-range", "1", "2", "--n-set", "1,4,9"]
    serial = invoke(runner, *args, "--out", str(tmp_path / "serial.csv"))
    started = _record_pools(monkeypatch)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 8)
    pooled = invoke(runner, *args, "--jobs", "2", "--out", str(tmp_path / "jobs.csv"))
    assert pooled.exit_code == serial.exit_code == 0
    assert started == []
    assert (tmp_path / "jobs.csv").read_bytes() == (tmp_path / "serial.csv").read_bytes()


def test_sweep_rejects_a_grid_over_the_task_cap(runner, tmp_path, monkeypatch):
    ran = []
    monkeypatch.setattr(cli, "_sweep_row", lambda task: ran.append(task))
    out = tmp_path / "x.csv"
    # 101 * 100 * 1 = 10 100 tasks, one more row of d than the cap allows
    result = runner.invoke(main, ["sweep", "--d-range", "1", "101", "--m-range", "1", "100",
                                  "--n-set", "1", "--jobs", "1", "--out", str(out)])
    assert cli.MAX_SWEEP_TASKS == 10_000
    assert result.exit_code == 2
    assert "10100 (d, m, n) tasks" in result.output and "at most 10000" in result.output
    assert ran == [] and not out.exists()


def test_sweep_task_cap_counts_d_m_and_n(runner, tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "MAX_SWEEP_TASKS", 4)
    out = ["--jobs", "1", "--out", str(tmp_path / "x.csv")]
    at_cap = ["sweep", "--d-range", "1", "2", "--m-range", "1", "1", "--n-set", "1,4"]
    assert runner.invoke(main, at_cap + out).exit_code == 0
    for grid, count in ((["--d-range", "1", "1", "--m-range", "1", "5", "--n-set", "1"], 5),
                        (["--d-range", "1", "2", "--m-range", "1", "1", "--n-set", "1,4,9"], 6)):
        result = runner.invoke(main, ["sweep", *grid, *out])
        assert result.exit_code == 2
        assert f"{count} (d, m, n) tasks" in result.output


def test_sweep_engine_only(runner, tmp_path):
    out = tmp_path / "table.csv"
    result = invoke(runner, "sweep", "--d-range", "1", "2", "--m-range", "1", "2",
                    "--n-set", "1,4,9", "--out", str(out))
    assert result.exit_code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == SWEEP_HEADER
    assert len(lines) == 1 + 2 * 2 * 3
    # oracle off: last two columns empty
    assert all(line.endswith(",,") for line in lines[1:])
    # deterministic row order: d, then m, then n ascending
    keys = [tuple(map(int, line.split(",")[1:4])) for line in lines[1:]]
    assert keys == sorted(keys)


def test_sweep_oracle_rows(runner, tmp_path):
    out = tmp_path / "table.csv"
    result = invoke(runner, "--trials", "2", "--prime2", "0",
                    "sweep", "--d-range", "1", "1", "--m-range", "1", "2",
                    "--n-set", "1,4", "--oracle", "--out", str(out))
    assert result.exit_code == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    for row in rows:
        assert row[9] == "AGREE"
        assert row[8] == row[6]  # oracle dim equals engine dim here


def test_sweep_empty_n_set_usage_error(runner, tmp_path):
    result = runner.invoke(main, ["sweep", "--d-range", "1", "2", "--m-range", "1", "1",
                                  "--n-set", "", "--out", str(tmp_path / "x.csv")])
    assert result.exit_code == 2


def test_sweep_rejects_bad_n_entry(runner, tmp_path):
    result = runner.invoke(main, ["sweep", "--d-range", "1", "2", "--m-range", "1", "1",
                                  "--n-set", "1,6", "--out", str(tmp_path / "x.csv")])
    assert result.exit_code == 2


@pytest.mark.parametrize("args, message", [
    (("verify", "-g", "4", "-d", "2", "-m", "1", "-n", "5"),
     "n must be of the form 4^u * 9^w, got 5"),
    (("verify", "-g", "6", "-d", "2", "-m", "1", "-n", "4"), "verify requires gamma=4"),
    (("sweep", "--gamma", "6", "--d-range", "1", "2", "--m-range", "1", "1", "--n-set", "1,4"),
     "sweep supports gamma=4 only"),
    (("sweep", "--d-range", "3", "1", "--m-range", "1", "1", "--n-set", "1"),
     "empty or invalid d/m range"),
    (("sweep", "--d-range", "1", "2", "--m-range", "1", "1", "--n-set", "1,x"),
     "could not parse n-set '1,x'"),
])
def test_verify_and_sweep_argument_errors_are_usage_errors(runner, tmp_path, args, message):
    out = tmp_path / "x.csv"
    result = runner.invoke(main, list(args) + (["--out", str(out)] if args[0] == "sweep" else []))
    assert result.exit_code == 2
    assert message in result.output
    assert list(tmp_path.iterdir()) == []


def test_sweep_byte_identical_reruns(runner, tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ("--trials", "2", "--prime2", "0",
            "sweep", "--d-range", "1", "2", "--m-range", "1", "1",
            "--n-set", "1,4,9", "--oracle")
    assert invoke(runner, *args, "--out", str(out1)).exit_code == 0
    assert invoke(runner, *args, "--out", str(out2)).exit_code == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_sweep_worker_pool_matches_serial(runner, tmp_path):
    out1, out2 = tmp_path / "serial.csv", tmp_path / "pool.csv"
    args = ("--trials", "2", "--prime2", "0",
            "sweep", "--d-range", "1", "2", "--m-range", "1", "1",
            "--n-set", "1,4", "--oracle")
    assert invoke(runner, *args, "--out", str(out1)).exit_code == 0
    assert invoke(runner, *args, "--out", str(out2), "--jobs", "2").exit_code == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_sweep_summary_counts_low_confidence_rows(runner, tmp_path, monkeypatch):
    # a low-confidence AGREE is counted in the summary line; the CSV bytes
    # stay those of a clean run
    args = ("--trials", "2", "--prime2", "0",
            "sweep", "--d-range", "1", "1", "--m-range", "1", "2", "--n-set", "1,4",
            "--oracle")
    clean = invoke(runner, *args, "--out", str(tmp_path / "clean.csv"))
    assert "low-confidence" not in clean.output
    measure = k3fat.oracle.measure_k3_cross_checked

    def doubtful_measure(d, points, cfg):
        meas = measure(d, points, cfg)
        return dataclasses.replace(meas, low_confidence=points[0] == 2)

    monkeypatch.setattr(k3fat.oracle, "measure_k3_cross_checked", doubtful_measure)
    out = tmp_path / "doubtful.csv"
    result = invoke(runner, *args, "--out", str(out))
    assert result.exit_code == 0
    assert result.output == f"wrote 4 rows to {out}; 2 low-confidence\n"
    assert out.read_bytes() == (tmp_path / "clean.csv").read_bytes()
    assert all(line.endswith(",AGREE") for line in out.read_text().splitlines()[1:])


OVER_BUDGET_SWEEP = ("--budget-rows", "10", "sweep", "--d-range", "2", "3",
                     "--m-range", "2", "2", "--n-set", "4", "--oracle")


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_sweep_exits_3_when_rows_are_over_budget(runner, tmp_path, jobs):
    # 12 conditions on 10 and 20 columns: both rows are skipped over a budget
    # of 10, the summary counts them and the sweep exits as verify does; the
    # CSV bytes stay those of a sweep that reported no budget skips
    out = tmp_path / "s.csv"
    result = invoke(runner, *OVER_BUDGET_SWEEP, "--out", str(out), "--jobs", jobs)
    assert result.exit_code == 3
    assert result.output == f"wrote 2 rows to {out}; 2 over budget\n"
    assert out.read_text() == (f"{SWEEP_HEADER}\n"
                               "4,2,2,4,-3,-1,-1,NONSPECIAL,,SKIPPED\n"
                               "4,3,2,4,7,7,7,NONSPECIAL,,SKIPPED\n")


def test_sweep_disagreement_exit_wins_over_budget(runner, tmp_path, monkeypatch):
    real = k3fat.oracle.measure_k3_cross_checked

    def measure(d, points, cfg):  # the d = 2 row over budget, a wrong dim at d = 3
        if d == 2:
            raise k3fat.oracle.BudgetExceededError("over budget")
        meas = real(d, points, cfg)
        return dataclasses.replace(meas, dim=meas.dim + 1)

    monkeypatch.setattr(k3fat.oracle, "measure_k3_cross_checked", measure)
    out = tmp_path / "s.csv"
    result = invoke(runner, *OVER_BUDGET_SWEEP[2:], "--out", str(out))
    assert result.exit_code == 1
    assert result.output == f"wrote 2 rows to {out}; 1 DISAGREE; 1 over budget\n"


def test_env_var_overrides(runner):
    env = {"K3FAT_SEED": "99", "K3FAT_TRIALS": "2", "K3FAT_PRIME2": "0"}
    result = invoke(runner, "verify", "--gamma", "4", "-d", "1", "-m", "1", "-n", "4",
                    env=env)
    assert result.exit_code == 0
    assert "verdict=AGREE" in result.output
    # a budget set through the environment must actually take effect
    result = runner.invoke(main, ["verify", "--gamma", "4", "-d", "2", "-m", "2", "-n", "4"],
                           env={"K3FAT_BUDGET_ROWS": "5"})
    assert result.exit_code == 3


def test_sweep_24_row_example(runner, tmp_path):
    # d 1..4, m 1..2, n {1,4,9}, oracle on: 24 rows, all definite rows AGREE
    out = tmp_path / "t24.csv"
    result = invoke(runner, "--trials", "2", "--prime2", "0",
                    "sweep", "--d-range", "1", "4", "--m-range", "1", "2",
                    "--n-set", "1,4,9", "--oracle", "--out", str(out))
    assert result.exit_code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 1 + 24
    for line in lines[1:]:
        cells = line.split(",")
        if cells[7] != "UNKNOWN":
            assert cells[9] == "AGREE"


@pytest.mark.parametrize("flag, value", [
    ("--prime", "2147483649"),  # 2^31 + 1 = 3 * 715827883
    ("--prime", "4294967296"),  # 2^32
    ("--prime2", "3037000499"),  # isqrt(2^63), composite
])
def test_composite_prime_is_a_usage_error(runner, flag, value):
    result = runner.invoke(main, [flag, value, "verify", "--gamma", "4",
                                  "-d", "2", "-m", "2", "-n", "4"])
    assert result.exit_code == 2
    assert "must be prime" in result.output


def test_verify_at_the_61_bit_prime_agrees(runner):
    result = invoke(runner, "--trials", "2", "--prime2", "2305843009213693951",
                    "verify", "--gamma", "4", "-d", "2", "-m", "2", "-n", "4")
    assert result.exit_code == 0
    assert "verdict=AGREE" in result.output


def test_interrupted_sweep_keeps_the_previous_output(runner, tmp_path, monkeypatch):
    out = tmp_path / "table.csv"
    out.write_bytes(b"previous table\n")
    args = ("sweep", "--d-range", "1", "2", "--m-range", "1", "1", "--n-set", "1",
            "--out", str(out))
    sweep_row = cli._sweep_row
    calls = []

    def failing_row(task):
        calls.append(task)
        if len(calls) == 2:
            raise RuntimeError("interrupted")
        return sweep_row(task)

    with monkeypatch.context() as patch:
        patch.setattr(cli, "_sweep_row", failing_row)
        with pytest.raises(RuntimeError, match="interrupted"):
            invoke(runner, *args)
    assert out.read_bytes() == b"previous table\n"
    assert [path.name for path in tmp_path.iterdir()] == ["table.csv"]

    def failing_replace(src, dst):
        raise OSError("disk full")

    # a failure after the rows are written: the temporary file goes away
    with monkeypatch.context() as patch:
        patch.setattr(cli.os, "replace", failing_replace)
        with pytest.raises(OSError, match="disk full"):
            invoke(runner, *args)
    assert out.read_bytes() == b"previous table\n"
    assert [path.name for path in tmp_path.iterdir()] == ["table.csv"]

    assert invoke(runner, *args).exit_code == 0
    assert out.read_text().splitlines()[0] == SWEEP_HEADER
    assert [path.name for path in tmp_path.iterdir()] == ["table.csv"]
