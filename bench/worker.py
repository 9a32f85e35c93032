"""Runs one workload in this process and prints its result as a JSON line.

    python3 bench/worker.py WORKLOAD SEED SECONDS TRACE OUT_DIR [--setup-only]

run.py starts it with k3fat's sources on PYTHONPATH.  Set-up (the import,
building the inputs and one warm-up op) is timed from the first line.  The
timed run executes every op with tracing off; each op's output is checked
after its timer stops.  With TRACE = 1 the same ops run again with spans
recorded around the calls into each module, the spans are written to
OUT_DIR/spans.json and the per-layer metrics replace the op times; the
workload's seed check (the golden sweep) runs only with TRACE = 0.
"""
import time

_T0 = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402


def run_ops(ops, tracer=None):
    """Run and check each op; returns (seconds per op, failure messages)."""
    times, failures = [], []
    for index, op in enumerate(ops):
        if tracer is not None:
            tracer.op = index
            span = tracer.begin(spans.OP_SPAN)
        start = time.perf_counter()
        try:
            result, error = op.run(), None
        except Exception as exc:  # a raising op counts as failed; the run goes on
            result, error = None, f"{op}: {type(exc).__name__}: {exc}"
        times.append(time.perf_counter() - start)
        if tracer is not None:
            tracer.end(span)
            tracer.settle()
        problem = error or op.check(result)
        if problem:
            failures.append(problem)
    return times, failures


def main(argv):
    name, seed, seconds, trace, out_dir = argv[:5]
    seed, seconds, trace, out_dir = int(seed), float(seconds), trace == "1", Path(out_dir)
    workload = workloads.WORKLOADS[name]
    ops = workload.ops(seed, seconds, out_dir)
    warm_up = workload.warm_up(out_dir)
    problem = warm_up.check(warm_up.run())
    if problem:
        raise SystemExit(f"warm-up failed: {problem}")
    result = {"setup_s": time.perf_counter() - _T0}
    if "--setup-only" in argv:
        print(json.dumps(result))
        return

    times, failures = run_ops(ops)
    result["op_s"] = times
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if trace:
        tracer = spans.Tracer()
        spans.instrument(tracer)
        try:
            traced, traced_failures = run_ops(ops, tracer)
        finally:
            tracer.restore()
        failures += traced_failures
        defaults = workloads.PrimeFieldConfig()
        primes = {defaults.prime: "p1", defaults.prime2: "p2"}
        result["layers"] = spans.layer_metrics(
            tracer.spans, tracer.counts, primes, sum(traced) - sum(times))
        result["traced_s"] = sum(traced)
        result["spans_path"] = str(out_dir / "spans.json")
        Path(result["spans_path"]).write_text(json.dumps(tracer.span_records()))
    result.update(
        # The traced run measures layers; the seed check belongs to the timed run.
        seed_check=None if trace else workload.seed_check(seed, out_dir),
        attempted=len(ops) * (2 if trace else 1),
        failed=len(failures),
        failures=failures,
    )
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
