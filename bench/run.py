"""k3fat benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload oracle_sweep --seed 1 --seconds 30 --trace 0

    for w in oracle_sweep oracle_large engine_deep; do
        python3 bench/run.py --workload $w --seed 1 --seconds 30; done

Run from the root of a source checkout; k3fat is imported from ./src.  The
workload runs in a fresh worker process (worker.py), so peak RSS and set-up
time are its own; set-up is also timed in SETUP_SAMPLES - 1 worker processes
that stop after set-up, and the median is reported.  Every worker runs one
thread per native thread pool and the program runs single-threaded
(`--jobs 1`), so the benchmark never uses more threads than cores.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics of a traced run with --trace 1.  The lines before it give
the same figures for people, with the op-time tail and failed_ratio.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("oracle_sweep", "oracle_large", "engine_deep")
SETUP_SAMPLES = 7
DEADLINE_S = 175.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10


def tail(values, min_beyond=MIN_BEYOND):
    """(percentile, value, samples) for the highest percentile of TAIL_LADDER
    with at least `min_beyond` samples beyond it (nearest rank), or None
    when there are too few samples for any."""
    ordered = sorted(values)
    n = len(ordered)
    for q in TAIL_LADDER:
        rank = max(1, -(-round(q * 10) * n // 1000))  # ceil(q% of n), in integers
        if n - rank >= min_beyond:
            return q, ordered[rank - 1], n
    return None


def failed_ratio(failed, attempted):
    return failed / attempted


def end_to_end(setups, worker):
    """The end-to-end metrics of one run, by name."""
    op_s = worker["op_s"]
    return {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "ops_per_s": {"value": len(op_s) / sum(op_s), "unit": "1/s"},
        "op_ms.p50": {"value": statistics.median(op_s) * 1000, "unit": "ms"},
        "peak_rss_mb": {"value": worker["peak_rss_mb"], "unit": "MB"},
    }


def worker_env():
    env = {k: v for k, v in os.environ.items() if not k.startswith("K3FAT_")}
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_worker(args, out_dir, deadline, setup_only=False):
    command = [sys.executable, str(BENCH / "worker.py"), args.workload, str(args.seed),
               str(args.seconds), str(args.trace), str(out_dir)]
    if setup_only:
        command.append("--setup-only")
    try:
        done = subprocess.run(command, env=worker_env(), cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        sys.exit(f"bench: the {args.workload} worker ran past the deadline")
    if done.returncode != 0:
        sys.exit(f"bench: the {args.workload} worker failed with exit code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def report(args, setups, worker):
    """Human-readable lines, then the metrics of the final JSON line."""
    print(f"workload {args.workload}  seed {args.seed}  ops {len(worker['op_s'])}  "
          f"setups {', '.join(f'{s:.3f}' for s in setups)} s")
    print(f"failed_ratio {failed_ratio(worker['failed'], worker['attempted']):.6g} "
          f"({worker['failed']} of {worker['attempted']} ops)")
    for problem in worker["failures"][:10] + [worker["seed_check"] or ""]:
        if problem:
            print(f"  FAILED {problem}")
    found = tail(worker["op_s"])
    if found:
        q, value, n = found
        print(f"op_ms.tail p{q:g} {value * 1000:.3f} ms ({n} samples)")
    else:
        print(f"op_ms.tail n/a ({len(worker['op_s'])} samples; "
              f"{2 * MIN_BEYOND} needed for p50)")
    if args.trace:
        metrics = worker["layers"]
        wall = worker["traced_s"]
        print(f"traced wall {wall:.3f} s; layer self times (share of traced wall):")
        for name, metric in metrics.items():
            share = f"{100 * metric['value'] / wall:5.1f}%" if metric["unit"] == "s" else ""
            print(f"  {name:40s} {metric['value']:>16.6g} {metric['unit']:6s} {share}")
        print(f"spans written to {worker['spans_path']}")
        return metrics
    metrics = end_to_end(setups, worker)
    for name, metric in metrics.items():
        print(f"  {name:12s} {metric['value']:.6g} {metric['unit']}")
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "k3fat" / "__init__.py").is_file():
        sys.exit(f"bench: no k3fat sources under {ROOT / 'src'}")
    deadline = time.monotonic() + DEADLINE_S
    out_dir = ROOT / ".bench_out" / f"{args.workload}-{args.seed}-trace{args.trace}"
    out_dir.mkdir(parents=True, exist_ok=True)

    setups = [run_worker(args, out_dir, deadline, setup_only=True)["setup_s"]
              for _ in range(SETUP_SAMPLES - 1)]
    worker = run_worker(args, out_dir, deadline)
    setups.append(worker["setup_s"])
    metrics = report(args, setups, worker)
    print(json.dumps({
        "correct": worker["failed"] == 0 and worker["seed_check"] is None,
        "attempted": worker["attempted"],
        "failed": worker["failed"],
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
