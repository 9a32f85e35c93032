"""The benchmark's three workloads: their inputs, operations and checks.

Each workload touches a different set of k3fat's modules, so a change to one
module moves one workload and leaves another flat:

* oracle_sweep - rows of the acceptance grid, each run through the CLI
  `sweep --oracle --jobs 1` command; small matrices, so the time goes to
  point sampling (root finding and the local series solve).
* oracle_large - `classify` then `verify` on large condition matrices; the
  time goes to rank at the 61-bit prime (object dtype) and to row building.
* engine_deep - `classify` then `DegenerationTrace.to_json` on deep systems
  in each of the three regimes; no oracle.

An operation returns what the program produced; `check` inspects it after
the timer has stopped and returns a description of what is wrong, or None.
Every operation uses the default PrimeFieldConfig apart from its seed.
"""
from __future__ import annotations

import csv
import hashlib
import importlib
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from k3fat.core import K3System
from k3fat.oracle import PrimeFieldConfig

cli = importlib.import_module("k3fat.cli")
# The package re-exports the function `classify` under the module's name.
classify_module = importlib.import_module("k3fat.classify")

# The 90-row acceptance grid and the SHA-256 of the CSV that
# `k3fat --seed 1 sweep ... --oracle` writes for it at the commit that
# introduced this benchmark.
GRID_D = range(1, 7)
GRID_M = range(1, 4)
GRID_N = (1, 4, 9, 16, 36)
GOLDEN_SEED = 1
GOLDEN_SHA256 = "a0776c7ba3a7f137914a56eca728d98d0b4328756c8f3c787c72a12890e58c0a"

# oracle_sweep runs the third of the grid with d + m = 1 mod 3: every d, m
# and n appears, as does the open case L^4(2, 2^9) (UNKNOWN, oracle advisory
# only), and one pass takes about 14 s on a 2-core machine.
SWEEP_CELLS = tuple(
    (d, m, n) for d in GRID_D for m in GRID_M for n in GRID_N if (d + m) % 3 == 1
)

# oracle_large: matrices of 90x455 to 192x364 (rows x monomials).  From
# 216x680 up one verify takes 15 s or more; these keep rank at the 61-bit
# prime the largest layer (about half of each op) while a pass stays near 23 s.
LARGE_SYSTEMS = ((12, 4, 9), (13, 3, 16), (12, 2, 36), (11, 2, 64))

# engine_deep: n = 4^u * 9^w with u + w = DEPTH gives 2^DEPTH + 1 distinct
# recursion nodes and a trace of about 2.8 MB; one system takes about 0.37 s.
DEPTH = 10
REGIMES = ("NONNEG", "NEG", "UNKNOWN")


def oracle_problem(d, m, n, status, dim, verdict, oracle_dim):
    """What is wrong with one verified instance, or None."""
    where = f"L^4({d}, {m}^{n})"
    if verdict == "DISAGREE":
        return f"{where}: oracle dim {oracle_dim} disagrees with engine dim {dim}"
    if status == "UNKNOWN":
        if verdict != "SKIPPED" or oracle_dim is None:
            return f"{where}: UNKNOWN report without an advisory oracle dim ({verdict})"
        return None
    if verdict != "AGREE" or oracle_dim != dim:
        return f"{where}: engine dim {dim}, oracle dim {oracle_dim}, verdict {verdict}"
    return None


def expected_verdict(d, m, u, w):
    """(status, dim) of L^4(d, m^n), n = 4^u 9^w > 1, by the gamma = 4
    classification: non-special for v >= -1, empty for v <= -1 unless
    u = 0 and 2d = 1 mod 3, where the case is open."""
    n = 4**u * 9**w
    v = 2 * d * d + 1 - n * m * (m + 1) // 2
    if v >= -1:
        return "NONSPECIAL", v
    if u > 0 or (2 * d) % 3 != 1:
        return "NONSPECIAL", -1
    return "UNKNOWN", None


def sweep(seed, d_range, m_range, n_set, out):
    """`k3fat --seed SEED sweep ... --oracle --jobs 1 --out OUT`, in-process;
    returns the exit code (None on success)."""
    return cli.main.main(
        args=["--seed", str(seed), "sweep", "--gamma", "4",
              "--d-range", *map(str, d_range), "--m-range", *map(str, m_range),
              "--n-set", ",".join(map(str, n_set)), "--oracle", "--jobs", "1",
              "--out", str(out)],
        prog_name="k3fat", standalone_mode=False,
    )


@dataclass(frozen=True)
class SweepRow:
    """One grid cell through `k3fat sweep --oracle --jobs 1`."""

    d: int
    m: int
    n: int
    seed: int
    out: Path

    def run(self):
        return sweep(self.seed, (self.d, self.d), (self.m, self.m), (self.n,), self.out)

    def check(self, exit_code):
        where = f"sweep of L^4({self.d}, {self.m}^{self.n})"
        if exit_code not in (None, 0):
            return f"{where} exited with {exit_code}"
        with open(self.out, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        if len(rows) != 1:
            return f"{where} wrote {len(rows)} rows, expected 1"
        row = rows[0]
        if (row["d"], row["m"], row["n"]) != (str(self.d), str(self.m), str(self.n)):
            return f"{where} wrote the row of another cell: {row}"

        def num(text):
            return int(text) if text else None

        return oracle_problem(self.d, self.m, self.n, row["status"], num(row["dim"]),
                              row["verdict"], num(row["oracle_dim"]))


@dataclass(frozen=True)
class Verification:
    """classify then verify one system against the dual-prime oracle."""

    d: int
    m: int
    n: int
    seed: int

    def run(self):
        system = K3System.homogeneous(4, self.d, self.m, self.n)
        report = classify_module.classify(system)
        return report, classify_module.verify(system, report, PrimeFieldConfig(seed=self.seed))

    def check(self, result):
        report, outcome = result
        return oracle_problem(self.d, self.m, self.n, report.status.value, report.dim,
                              outcome.kind.value, outcome.oracle_dim)


@dataclass(frozen=True)
class DeepClassification:
    """classify one deep system, then serialise its recursion trace."""

    d: int
    m: int
    u: int
    w: int
    expected: tuple

    def run(self):
        report = classify_module.classify(
            K3System.homogeneous(4, self.d, self.m, 4**self.u * 9**self.w))
        return report, report.trace.to_json()

    def check(self, result):
        report, text = result
        got = (report.status.value, report.dim)
        if got != self.expected:
            return (f"L^4({self.d}, {self.m}^(4^{self.u} 9^{self.w})): "
                    f"got {got}, expected {self.expected}")
        if not text.startswith("{"):
            return "trace JSON is empty"
        return None


def deep_system(rng, regime):
    """A DeepClassification drawn from `rng` inside one regime class."""
    m = rng.randint(2, 6)
    u = 0 if regime == "UNKNOWN" else rng.randint(0 if regime == "NONNEG" else 1, DEPTH)
    w = DEPTH - u
    # At d = balance the virtual dimension is about zero.
    balance = math.isqrt(4**u * 9**w * m * (m + 1) // 4) + 1
    if regime == "NONNEG":
        d = rng.randint(3 * balance // 2, 3 * balance)
    else:
        d = rng.randint(balance // 5, 3 * balance // 5)
        if regime == "UNKNOWN":
            d += (2 - d) % 3  # 2d = 1 mod 3: the open case
    expected = expected_verdict(d, m, u, w)
    if (expected[0] == "UNKNOWN") != (regime == "UNKNOWN") or (
        regime == "NEG" and expected[1] != -1
    ):
        raise RuntimeError(f"drew L^4({d}, {m}^(4^{u} 9^{w})) outside {regime}")
    return DeepClassification(d, m, u, w, expected)


def pass_seed(seed, index):
    """The oracle seed of pass `index`: later passes draw fresh points, so a
    cell's cost, which depends on how many lines miss the surface, is
    sampled again rather than repeated."""
    return seed + index * 1_000_000


def sweep_pass(seed, index, out_dir):
    return [SweepRow(d, m, n, pass_seed(seed, index), out_dir / "row.csv")
            for d, m, n in SWEEP_CELLS]


def large_pass(seed, index, out_dir):
    return [Verification(d, m, n, pass_seed(seed, index)) for d, m, n in LARGE_SYSTEMS]


def deep_pass(seed, index, out_dir):
    rng = random.Random(f"engine_deep/{seed}/{index}")
    return [deep_system(rng, regime) for regime in REGIMES]


def golden_sweep(seed, out_dir):
    """At the golden seed, write the whole acceptance grid through the CLI
    and compare the CSV with the golden hash."""
    if seed != GOLDEN_SEED:
        return None
    out = out_dir / "acceptance_sweep.csv"
    code = sweep(seed, (GRID_D[0], GRID_D[-1]), (GRID_M[0], GRID_M[-1]), GRID_N, out)
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    if code not in (None, 0) or digest != GOLDEN_SHA256:
        return f"acceptance sweep CSV {digest} (exit {code}) != golden {GOLDEN_SHA256}"
    return None


@dataclass(frozen=True)
class Workload:
    pass_seconds: float  # one pass at this benchmark's first commit, 2 cores
    pass_ops: Callable  # (seed, pass index, out_dir) -> ops of one pass
    warm_up: Callable  # out_dir -> a small op on the same code path
    seed_check: Callable = lambda seed, out_dir: None  # -> problem or None

    def ops(self, seed, seconds, out_dir):
        """Whole passes that fill about `seconds`: the work is fixed for a
        given --seconds, so faster code finishes sooner instead of doing
        more, and every run's sample is drawn from the same mix."""
        passes = max(1, round(seconds / self.pass_seconds))
        return [op for index in range(passes) for op in self.pass_ops(seed, index, out_dir)]


WORKLOADS = {
    "oracle_sweep": Workload(
        14.0, sweep_pass, lambda out_dir: SweepRow(1, 1, 1, 1, out_dir / "warm_up.csv"),
        golden_sweep),
    "oracle_large": Workload(23.0, large_pass, lambda out_dir: Verification(2, 2, 4, 1)),
    "engine_deep": Workload(
        1.1, deep_pass,
        lambda out_dir: DeepClassification(5, 2, 1, 1, expected_verdict(5, 2, 1, 1))),
}
