"""Command-line front end: single queries, parameter sweeps, verification
runs, trace export, and a plain-file cache of oracle measurements.

Exit codes: 0 success, 1 oracle disagreement found, 2 usage error,
3 size budget exceeded; a sweep with both a disagreement and a row skipped
over budget exits 1.  All randomness flows from --seed, so identical
invocations produce byte-identical outputs.
"""
from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import os
import secrets
from typing import Optional, Tuple

import click

from .classify import Verdict, classify, verify
from .core import DimensionReport, K3System, edim, point_conditions, vdim_k3
from .degeneration import factor_4_9
from .oracle import (
    DEFAULT_BUDGET_ROWS,
    DEFAULT_PRIME,
    DEFAULT_PRIME2,
    DEFAULT_TRIALS,
    OracleMeasurement,
    PrimeFieldConfig,
)
from .oracle.config import num_surface_forms

SWEEP_HEADER = "gamma,d,m,n,vdim,edim,dim,status,oracle_dim,verdict"
# Most (d, m, n) tasks one sweep may hold; a larger grid is a usage error
# before any task runs or any worker starts.
MAX_SWEEP_TASKS = 10_000


def _build_config(prime, prime2, seed, trials, budget_rows) -> PrimeFieldConfig:
    try:
        return PrimeFieldConfig(
            prime=prime,
            seed=seed,
            trials=trials,
            prime2=(prime2 or None),
            budget_rows=budget_rows,
        )
    except ValueError as exc:
        raise click.UsageError(str(exc))


@click.group()
@click.option("--prime", type=int, default=DEFAULT_PRIME, show_default=True,
              envvar="K3FAT_PRIME", help="Oracle prime (> 2^30).")
@click.option("--prime2", type=int, default=DEFAULT_PRIME2, show_default=True,
              envvar="K3FAT_PRIME2",
              help="Cross-check prime; 0 disables.  Primes above isqrt(2^63) "
                   "take the slow object-array path.")
@click.option("--seed", type=int, default=1, show_default=True,
              envvar="K3FAT_SEED", help="Master seed for all sampling.")
@click.option("--trials", type=int, default=DEFAULT_TRIALS, show_default=True,
              envvar="K3FAT_TRIALS", help="Oracle trials per prime (>= 2).")
@click.option("--budget-rows", type=int, default=DEFAULT_BUDGET_ROWS, show_default=True,
              envvar="K3FAT_BUDGET_ROWS", help="Condition-matrix size cap.")
@click.pass_context
def main(ctx, prime, prime2, seed, trials, budget_rows):
    """Dimensions and speciality of fat-point linear systems on generic K3
    surfaces, with finite-field oracle verification."""
    ctx.obj = _build_config(prime, prime2, seed, trials, budget_rows)


def _check_out_dir(path: str) -> None:
    """A usage error, before any work, when the directory that would hold
    the output file `path` does not exist."""
    directory = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(directory):
        raise click.UsageError(f"the directory of {path} does not exist")


def _make_cache_dir(path: str) -> None:
    """Create the cache directory `path` before any work: a usage error,
    naming it, when it cannot be created."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise click.UsageError(f"cannot use {path} as the cache directory: {exc.strerror}")


def _validated_system(gamma: int, d: int, m: Optional[int], n: int) -> K3System:
    """L^gamma(d, m^n); without m, the unconditioned system L^gamma(d)."""
    if m is None:
        m = n = 0
    elif m < 1:
        raise click.UsageError("m must be >= 1")
    elif n < 1:
        raise click.UsageError("n must be >= 1")
    try:
        return K3System(gamma, d, m, n)
    except ValueError as exc:
        raise click.UsageError(str(exc)) from None


@main.command("vdim")
@click.option("--gamma", "-g", type=int, required=True)
@click.option("-d", "d", type=int, required=True)
@click.option("-m", "m", type=int, default=None)
@click.option("-n", "n", type=int, default=None, help="Point count (1 if absent); needs -m.")
def cmd_vdim(gamma, d, m, n):
    """Print the virtual and expected dimension of L^gamma(d, m^n)."""
    if m is None and n is not None:
        raise click.UsageError("-n needs -m, the multiplicity of the points")
    sys_ = _validated_system(gamma, d, m, 1 if n is None else n)
    v = vdim_k3(sys_)
    click.echo(f"vdim={v} edim={edim(v)}")


def _classified(sys_: K3System, assume_base: bool = False) -> DimensionReport:
    """classify(sys_), looked up at call time so that a wrapper set on this
    module's `classify` sees it; a usage error when the recursion, one Python
    frame per level, is deeper than the interpreter's recursion limit."""
    try:
        return classify(sys_, assume_base=assume_base)
    except RecursionError:
        u, w = factor_4_9(sys_.count)
        raise click.UsageError(f"n = 4^{u} * 9^{w}: a recursion u + w = {u + w} levels "
                               "deep does not fit in the interpreter's recursion limit") from None


def _report_line(gamma, d, m, n, report) -> str:
    dim = "NA" if report.dim is None else str(report.dim)
    return (
        f"gamma={gamma} d={d} m={m} n={n} "
        f"vdim={report.vdim} edim={report.edim} dim={dim} status={report.status.value}"
    )


@main.command("classify")
@click.option("--gamma", "-g", type=int, required=True)
@click.option("-d", "d", type=int, required=True)
@click.option("-m", "m", type=int, required=True)
@click.option("-n", "n", type=int, default=1, show_default=True)
@click.option("--trace", "trace_path", type=click.Path(dir_okay=False), default=None,
              help="Write the degeneration trace as JSON.")
@click.option("--assume-base", is_flag=True,
              help="For gamma != 4: assume single-point systems are non-special "
                   "(no effect at gamma = 4).")
def cmd_classify(gamma, d, m, n, trace_path, assume_base):
    """Classify L^gamma(d, m^n) and optionally export its recursion trace."""
    sys_ = _validated_system(gamma, d, m, n)
    if factor_4_9(n) is None:
        raise click.UsageError(f"n must be of the form 4^u * 9^w, got {n}")
    if gamma != 4 and not assume_base:
        raise click.UsageError(
            f"no proved base classification for gamma={gamma}; pass --assume-base "
            "to compute CONDITIONAL reports under the non-special-base hypothesis"
        )
    if trace_path:
        _check_out_dir(trace_path)
    report = _classified(sys_, assume_base)
    click.echo(_report_line(gamma, d, m, n, report))
    if trace_path:
        with _replacing(trace_path) as fh:
            fh.writelines(report.trace.json_chunks())
        click.echo(f"trace written to {trace_path}")


# ---------------------------------------------------------------------------
# Cache of oracle measurements, one plain file per entry key, named by the
# SHA-256 of the key.  Only the measurement is stored: it is a pure function
# of the system and the oracle configuration, while the verdict depends on
# the engine report and is recomputed on every run.  The key holds the size
# budget too, so an entry is served only where the measurement itself would
# run: over budget the lookup misses and the measurement raises
# BudgetExceededError.  Schema 3 stores cols = 2d^2 + 2, the standard
# monomials the oracle ranks against; entries of schema 2, which stored
# C(d+3, 3), are measured again rather than served.  So is an entry whose
# measurement is not the one its key and its own trial dims determine.

CACHE_SCHEMA = "k3fat.oracle-measurement/3"


def _cache_path(cache_dir, key: dict) -> str:
    digest = hashlib.sha256(json.dumps(key, sort_keys=True).encode()).hexdigest()
    return os.path.join(cache_dir, f"{digest}.json")


def _cache_key(d, points, cfg) -> dict:
    m, n = points
    return {
        "schema": CACHE_SCHEMA,
        "d": d,
        "points": [[m, n]],
        "prime": cfg.prime,
        "prime2": cfg.prime2,
        "seed": cfg.seed,
        "trials": cfg.trials,
        "budget_rows": cfg.budget_rows,
    }


def _cache_lookup(path, key: dict, points) -> Optional[OracleMeasurement]:
    """The stored measurement of the points (m, n), or None when the file is
    missing, unreadable, of another schema, made under a different
    configuration, or not what the key and its trial dims determine:
    trial_dims must be a list of `trials` ints per prime, and the rest what
    OracleMeasurement.from_trials makes of them with the key's prime and the
    system's rows and cols."""
    m, n = points
    try:
        with open(path, encoding="utf-8") as fh:
            entry = json.load(fh)
        if any(entry.get(name) != value for name, value in key.items()):
            return None
        stored = entry["measurement"]
        dims = stored["trial_dims"]
        ints = isinstance(dims, list) and all(type(t) is int for t in dims)
        if not ints or len(dims) != key["trials"] * (2 if key["prime2"] else 1):
            return None
        rows = n * point_conditions(m)
        meas = OracleMeasurement.from_trials(dims, key["prime"], rows, num_surface_forms(key["d"]))
        return meas if stored == dict(dataclasses.asdict(meas), trial_dims=dims) else None
    except (OSError, ValueError, TypeError, KeyError, AttributeError):
        return None


@contextlib.contextmanager
def _replacing(path):
    """A new text file beside `path` that replaces it by an atomic rename when
    the block completes and is removed when the block raises, so an
    interrupted run never leaves a half-written file."""
    directory, name = os.path.split(os.path.abspath(path))
    tmp = os.path.join(directory, f".{name}.{secrets.token_hex(4)}.tmp")
    fh = open(tmp, "x", encoding="utf-8")
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _verify_with_cache(sys_, report, cfg, cache_dir):
    if not cache_dir:
        return verify(sys_, report, cfg)

    def cached_measure(d, points, cfg):
        key = _cache_key(d, points, cfg)
        path = _cache_path(cache_dir, key)
        meas = _cache_lookup(path, key, points)
        if meas is None:
            from .oracle import measure_k3_cross_checked

            meas = measure_k3_cross_checked(d, points, cfg)
            with _replacing(path) as fh:
                json.dump(dict(key, measurement=dataclasses.asdict(meas)), fh, indent=2)
        return meas

    return verify(sys_, report, cfg, cached_measure)


@main.command("verify")
@click.option("--gamma", "-g", type=int, required=True)
@click.option("-d", "d", type=int, required=True)
@click.option("-m", "m", type=int, required=True)
@click.option("-n", "n", type=int, default=1, show_default=True)
@click.option("--cache", "cache_dir", type=click.Path(file_okay=False), default=None,
              help="Directory of cached oracle measurements.")
@click.pass_context
def cmd_verify(ctx, gamma, d, m, n, cache_dir):
    """Classify L^gamma(d, m^n) and check the verdict against the oracle."""
    cfg = ctx.obj
    sys_ = _validated_system(gamma, d, m, n)
    if factor_4_9(n) is None:
        raise click.UsageError(f"n must be of the form 4^u * 9^w, got {n}")
    if gamma != 4:
        raise click.UsageError("verify requires gamma=4 (the oracle is quartic-only)")
    if cache_dir:
        _make_cache_dir(cache_dir)
    report = _classified(sys_)
    outcome = _verify_with_cache(sys_, report, cfg, cache_dir)
    engine_dim = "NA" if report.dim is None else report.dim
    oracle_dim = "NA" if outcome.oracle_dim is None else outcome.oracle_dim
    click.echo(
        f"verdict={outcome.kind.value} status={report.status.value} "
        f"engine_dim={engine_dim} oracle_dim={oracle_dim} "
        f"low_confidence={outcome.low_confidence}"
        + (f" reason={outcome.reason}" if outcome.reason else "")
    )
    if outcome.kind is Verdict.DISAGREE:
        ctx.exit(1)
    if outcome.over_budget:
        ctx.exit(3)


# ---------------------------------------------------------------------------
# Parameter sweep


def _sweep_row(task: Tuple) -> Tuple[str, str, bool, bool]:
    """One sweep row, picklable for the worker pool.

    Returns (csv_row, verdict, low_confidence, over_budget) with empty oracle
    fields when the oracle is off or skipped."""
    gamma, d, m, n, cfg, oracle_on, cache_dir = task
    sys_ = K3System.homogeneous(gamma, d, m, n)
    report = _classified(sys_)
    dim = "" if report.dim is None else str(report.dim)
    oracle_dim = ""
    verdict = ""
    low_confidence = over_budget = False
    if oracle_on:
        outcome = _verify_with_cache(sys_, report, cfg, cache_dir)
        verdict = outcome.kind.value
        low_confidence = outcome.low_confidence
        over_budget = outcome.over_budget
        if outcome.oracle_dim is not None:
            oracle_dim = str(outcome.oracle_dim)
    row = (
        f"{gamma},{d},{m},{n},{report.vdim},{report.edim},{dim},"
        f"{report.status.value},{oracle_dim},{verdict}"
    )
    return row, verdict, low_confidence, over_budget


@main.command("sweep")
@click.option("--gamma", type=int, default=4, show_default=True)
@click.option("--d-range", nargs=2, type=int, required=True, metavar="LO HI")
@click.option("--m-range", nargs=2, type=int, required=True, metavar="LO HI")
@click.option("--n-set", type=str, required=True,
              help="Comma-separated point counts, each of the form 4^u*9^w.")
@click.option("--oracle/--no-oracle", default=False, show_default=True)
@click.option("--out", "out_path", type=click.Path(dir_okay=False), required=True)
@click.option("--jobs", type=int, default=1, show_default=True,
              help="Worker processes for oracle rows (at most one per CPU and per row).")
@click.option("--cache", "cache_dir", type=click.Path(file_okay=False), default=None)
@click.pass_context
def cmd_sweep(ctx, gamma, d_range, m_range, n_set, oracle, out_path, jobs, cache_dir):
    """Tabulate engine and oracle results over a (d, m, n) grid as CSV."""
    cfg = ctx.obj
    if gamma != 4:
        raise click.UsageError("sweep supports gamma=4 only")
    if jobs < 1:
        raise click.UsageError(f"--jobs must be >= 1, got {jobs}")
    d_lo, d_hi = d_range
    m_lo, m_hi = m_range
    if d_lo < 1 or d_lo > d_hi or m_lo < 1 or m_lo > m_hi:
        raise click.UsageError("empty or invalid d/m range")
    try:
        n_values = sorted({int(x) for x in n_set.split(",") if x.strip()})
    except ValueError:
        raise click.UsageError(f"could not parse n-set {n_set!r}")
    if not n_values:
        raise click.UsageError("n-set must not be empty")
    for n in n_values:
        if factor_4_9(n) is None:
            raise click.UsageError(f"n-set entry {n} is not of the form 4^u * 9^w")
    count = (d_hi - d_lo + 1) * (m_hi - m_lo + 1) * len(n_values)
    if count > MAX_SWEEP_TASKS:
        raise click.UsageError(
            f"the grid has {count} (d, m, n) tasks; a sweep holds at most {MAX_SWEEP_TASKS}"
        )
    _check_out_dir(out_path)
    if oracle and cache_dir:
        _make_cache_dir(cache_dir)

    tasks = [
        (gamma, d, m, n, cfg, oracle, cache_dir)
        for d in range(d_lo, d_hi + 1)
        for m in range(m_lo, m_hi + 1)
        for n in n_values
    ]
    # An engine-only row takes microseconds, less than starting a worker.
    workers = min(jobs, os.cpu_count() or 1, len(tasks)) if oracle else 1
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_sweep_row, tasks))
    else:
        results = [_sweep_row(t) for t in tasks]

    lines = [SWEEP_HEADER] + [row for row, *_ in results]
    with _replacing(out_path) as fh:
        fh.write("\n".join(lines) + "\n")
    disagreements = sum(1 for _, verdict, _, _ in results if verdict == "DISAGREE")
    low_confidence = sum(1 for _, _, low, _ in results if low)
    over_budget = sum(1 for *_, over in results if over)
    click.echo(f"wrote {len(results)} rows to {out_path}"
               + (f"; {disagreements} DISAGREE" if disagreements else "")
               + (f"; {low_confidence} low-confidence" if low_confidence else "")
               + (f"; {over_budget} over budget" if over_budget else ""))
    if disagreements:
        ctx.exit(1)
    if over_budget:
        ctx.exit(3)


if __name__ == "__main__":
    main()
