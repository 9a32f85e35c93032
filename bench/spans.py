"""Spans and counters recorded around calls into k3fat, from outside it.

`instrument` replaces public functions on the module (or class) where the
caller looks them up, so the program itself is untouched; `Tracer.restore`
puts the originals back.  A span is `[name, start, end, parent, op, prime]`:
`parent` is the index of the enclosing span (or None), `op` the benchmark
operation it belongs to, and `prime` the field prime of the oracle call it
runs under (inherited from the enclosing span), or None outside the oracle.
"""
from __future__ import annotations

import importlib
from collections import Counter, defaultdict
from time import perf_counter

OP_SPAN = "bench.op"

# Layers measured per prime (metric names get the suffix .p1 or .p2).
ORACLE_TIMES = (
    "oracle.field.roots",
    "oracle.quartic.sample",
    "oracle.series.solve",
    "oracle.field.rank",
    "oracle.quartic.rows",
    "oracle.quartic.measure",
)
ORACLE_CALLS = ("oracle.field.roots", "oracle.series.solve", "oracle.field.rank")
ORACLE_COUNTS = (
    "oracle.quartic.points",
    "oracle.quartic.matrix_cells",
    "oracle.quartic.low_confidence",
)
PLAIN_TIMES = (
    "degeneration.recurse",
    "degeneration.trace_json",
    "classify.classify",
    "classify.verify",
    "cli.sweep",
)
PLAIN_COUNTS = (
    "degeneration.nodes",
    "degeneration.trace_bytes",
    "classify.verdict.agree",
    "classify.verdict.skipped",
    "classify.verdict.disagree",
)
PRIME_LABELS = ("p1", "p2")


class Tracer:
    """In-memory spans and counters of one traced run."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.op = None
        self._stack = []
        self._deferred = []
        self._patched = []

    def begin(self, name, prime=None):
        parent = self._stack[-1] if self._stack else None
        if prime is None and parent is not None:
            prime = self.spans[parent][5]
        index = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0, parent, self.op, prime])
        self._stack.append(index)
        return index

    def end(self, index):
        self.spans[index][2] = perf_counter()
        self._stack.pop()

    def add(self, name, prime, amount=1):
        self.counts[(name, prime)] += amount

    def defer(self, thunk):
        """Run `thunk` at the next `settle`, outside every span."""
        self._deferred.append(thunk)

    def settle(self):
        for thunk in self._deferred:
            thunk()
        self._deferred.clear()

    def wrap(self, owner, attr, name, prime_of=None, count=None):
        """Replace owner.attr by a function that records a span around it.

        `prime_of(args, kwargs)` names the prime of the call; `count(tracer,
        prime, result)` records counters once the span has ended."""
        original = getattr(owner, attr)

        def traced(*args, **kwargs):
            index = self.begin(name, prime_of(args, kwargs) if prime_of else None)
            try:
                result = original(*args, **kwargs)
            finally:
                self.end(index)
            if count is not None:
                count(self, self.spans[index][5], result)
            return result

        setattr(owner, attr, traced)
        self._patched.append((owner, attr, original))

    def restore(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def span_records(self):
        """The spans as JSON-ready dicts, times in seconds from the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        return [
            {"name": name, "start": start - t0, "end": end - t0,
             "parent": parent, "op": op, "prime": prime}
            for name, start, end, parent, op, prime in self.spans
        ]


def self_times(spans):
    """Each span's duration minus the part of it that its child spans cover."""
    children = defaultdict(list)
    for span in spans:
        if span[3] is not None:
            children[span[3]].append((span[1], span[2]))
    out = []
    for index, span in enumerate(spans):
        start, end = span[1], span[2]
        covered, cursor = 0.0, start
        for lo, hi in sorted(children.get(index, ())):
            lo, hi = max(lo, cursor), min(hi, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(end - start - covered)
    return out


def per_layer_names():
    """Every per-layer metric name with its unit, in report order."""
    names = []
    for label in PRIME_LABELS:
        names += [(f"{layer}_s.{label}", "s") for layer in ORACLE_TIMES]
        names += [(f"{layer}_calls.{label}", "count") for layer in ORACLE_CALLS]
        names += [(f"{name}.{label}", "count") for name in ORACLE_COUNTS]
        names.append((f"oracle.quartic.point_yield.{label}", "ratio"))
    names += [(f"{layer}_s", "s") for layer in PLAIN_TIMES]
    names += [(name, "bytes" if name.endswith("_bytes") else "count") for name in PLAIN_COUNTS]
    names += [("trace.overhead_s", "s"), ("trace.unattributed_s", "s")]
    return names


def layer_metrics(spans, counts, primes, overhead_s):
    """Per-layer metrics of a traced run.

    `primes` maps each field prime to its label (p1, p2).  Times are self
    times summed per layer; the benchmark's own op span keeps the time no
    layer accounts for, reported as trace.unattributed_s."""
    selfs = self_times(spans)
    values = Counter()
    for span, own in zip(spans, selfs):
        name, prime = span[0], span[5]
        if name == OP_SPAN:
            values["trace.unattributed_s"] += own
            continue
        suffix = f".{primes[prime]}" if name.startswith("oracle.") else ""
        values[f"{name}_s{suffix}"] += own
        if name in ORACLE_CALLS:
            values[f"{name}_calls{suffix}"] += 1
    for (name, prime), amount in counts.items():
        values[name + (f".{primes[prime]}" if name.startswith("oracle.") else "")] += amount
    for label in PRIME_LABELS:
        roots = values[f"oracle.field.roots_calls.{label}"]
        points = values[f"oracle.quartic.points.{label}"]
        values[f"oracle.quartic.point_yield.{label}"] = points / roots if roots else 0.0
    values["trace.overhead_s"] = overhead_s
    return {name: {"value": values[name], "unit": unit} for name, unit in per_layer_names()}


def _measure_prime(args, kwargs):
    # measure_k3(d, points, cfg, prime=0) runs at `prime or cfg.prime`.
    prime = kwargs.get("prime") or (args[3] if len(args) > 3 else 0)
    return prime or args[2].prime


def _count_verdict(tracer, prime, outcome):
    tracer.add(f"classify.verdict.{outcome.kind.value.lower()}", None)


def _count_nodes(tracer, prime, result):
    trace = result[1]

    def walk():
        seen, todo = set(), [trace.node]
        while todo:
            node = todo.pop()
            if id(node) in seen:
                continue
            seen.add(id(node))
            if node.step is not None:
                todo += [node.step.surface_node, node.step.surface_hat_node]
        tracer.add("degeneration.nodes", None, len(seen))

    tracer.defer(walk)


def _count_cells(tracer, prime, rows):
    tracer.add("oracle.quartic.matrix_cells", prime, len(rows) * len(rows[0]) if rows else 0)


def instrument(tracer):
    """Wrap the public functions of each measured k3fat module."""
    cli = importlib.import_module("k3fat.cli")
    classify = importlib.import_module("k3fat.classify")
    degeneration = importlib.import_module("k3fat.degeneration")
    quartic = importlib.import_module("k3fat.oracle.quartic")
    tracer.wrap(cli.main, "main", "cli.sweep")
    for owner in (cli, classify):
        tracer.wrap(owner, "classify", "classify.classify")
        tracer.wrap(owner, "verify", "classify.verify", count=_count_verdict)
    tracer.wrap(classify, "recurse", "degeneration.recurse", count=_count_nodes)
    tracer.wrap(degeneration.DegenerationTrace, "to_json", "degeneration.trace_json",
                count=lambda t, prime, text: t.add("degeneration.trace_bytes", None, len(text)))
    tracer.wrap(quartic, "measure_k3", "oracle.quartic.measure", prime_of=_measure_prime,
                count=lambda t, prime, m: t.add("oracle.quartic.low_confidence", prime,
                                                int(m.low_confidence)))
    tracer.wrap(quartic, "sample_quartic_instance", "oracle.quartic.sample",
                count=lambda t, prime, inst: t.add("oracle.quartic.points", prime,
                                                   len(inst.points)))
    tracer.wrap(quartic, "poly_roots", "oracle.field.roots")
    tracer.wrap(quartic, "solve_implicit", "oracle.series.solve")
    tracer.wrap(quartic, "k3_condition_rows", "oracle.quartic.rows", count=_count_cells)
    tracer.wrap(quartic, "rank_mod_p", "oracle.field.rank")
