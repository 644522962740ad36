"""Outside-in layer tracing of pqprune, without editing the program.

Each traced function is replaced, for the length of a traced run, at the
name its caller reads. A name bound by a from-import is a separate binding
in the importing module, so `pq_index` is wrapped as `pruning.pq_index`,
`audit.pq_index` and `cli.pq_index` rather than once in `sparsity`.
Every call records a span (name, start, end, parent, run id) in memory;
the spans are written once, when the traced run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import NamedTuple


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root
    run_id: str


class Tracer:
    def __init__(self):
        self.spans: list[Span | None] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.seen: dict[str, set] = defaultdict(set)
        self.run_id = ""
        self._stack: list[int] = []

    def wrap(self, name, fn, probe=None):
        """`fn` recording a span per call; `probe(tracer, args, result)` runs
        after the span closes and adds to the counters."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[sid] = Span(name, start, end, parent, self.run_id)
            if probe is not None:
                probe(self, args, result)
            return result

        return traced

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"fields": Span._fields, "spans": self.spans}))


# --- probes: counts taken at the layer boundary -----------------------------


def _probe_distinct(tracer, args, result):
    tracer.seen["data_io.gen_synthetic"].add(args[0])


def _probe_bytes(tracer, args, result):
    directory = Path(args[1])
    tracer.counters["data_io.write_run_record.bytes"] += sum(
        (directory / f).stat().st_size for f in ("run.json", "iterations.csv")
    )


def _probe_groups(tracer, args, result):
    tracer.counters["pruning.partition.groups"] += len(result)


def dense_flops(params, n: int) -> int:
    """Dense-equivalent flops of one loss_and_grads call on n rows, computed
    from layer shapes: forward and weight gradient on every layer, and the
    delta propagated back through every layer but the first."""
    return sum(
        2 * n * s.in_size * s.out_size * (2 if l == 0 else 3)
        for l, s in enumerate(params.specs)
    )


def _probe_flops(tracer, args, result):
    tracer.counters["nn.loss_and_grads.flop"] += dense_flops(args[0], args[1].shape[0])


def _probe_density(tracer, args, result):
    _, mask, data, cfg = args[:4]
    steps = cfg.epochs * math.ceil(len(data) / min(cfg.batch_size, len(data)))
    tracer.counters["nn.train.steps"] += steps
    tracer.counters["nn.train.alive_steps"] += steps * mask.flat.mean()


# (module read by the caller, attribute, span name, probe)
TARGETS = (
    ("cli", "run_experiment", "experiment.run_experiment", None),
    ("cli", "pq_index", "sparsity.pq_index", None),
    ("cli", "gini_index", "sparsity.gini_index", None),
    ("cli", "eta_r", "sparsity.eta_r", None),
    ("cli", "audit_measure", "audit.audit_measure", None),
    ("experiment", "run_cell", "experiment.run_cell", None),
    ("experiment", "gen_synthetic", "data_io.gen_synthetic", _probe_distinct),
    ("experiment", "write_run_record", "data_io.write_run_record", _probe_bytes),
    ("experiment", "run_pruning", "pruning.run_pruning", None),
    ("nn", "train", "nn.train", _probe_density),
    ("nn", "loss_and_grads", "nn.loss_and_grads", _probe_flops),
    ("nn", "evaluate", "nn.evaluate", None),
    ("nn", "flatten_prunable", "nn.flatten_prunable", None),
    ("pruning", "partition", "pruning.partition", _probe_groups),
    ("pruning", "magnitude_prune", "pruning.magnitude_prune", None),
    ("pruning", "sap_count", "pruning.sap_count", None),
    ("pruning", "pq_index", "sparsity.pq_index", None),
    ("pruning", "gini_index", "sparsity.gini_index", None),
    ("audit", "pq_index", "sparsity.pq_index", None),
    ("audit", "gini_index", "sparsity.gini_index", None),
)


@contextmanager
def installed(tracer: Tracer):
    """Wrap every target at its caller-side name; restore them on exit."""
    saved = []
    try:
        for module_name, attr, span_name, probe in TARGETS:
            module = importlib.import_module(f"pqprune.{module_name}")
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(span_name, original, probe))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


# --- metrics from spans ----------------------------------------------------


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval that its direct
    child spans cover."""
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append(i)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        reach = s.start
        for c in sorted(children[i], key=lambda c: spans[c].start):
            lo = max(spans[c].start, reach)
            hi = min(spans[c].end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s.end - s.start - covered)
    return out


# name -> unit, in the order the benchmark declares them.
LAYER_METRICS = {
    "experiment.run_cell.calls": "count",
    "experiment.run_cell.p50_s": "s",
    "experiment.run_cell.max_s": "s",
    "data_io.gen_synthetic.calls": "count",
    "data_io.gen_synthetic.busy_s": "s",
    "data_io.gen_synthetic.distinct_ratio": "ratio",
    "data_io.write_run_record.busy_s": "s",
    "data_io.write_run_record.bytes": "bytes",
    "nn.train.calls": "count",
    "nn.train.busy_s": "s",
    "nn.train.self_s": "s",
    "nn.train.density": "ratio",
    "nn.loss_and_grads.calls": "count",
    "nn.loss_and_grads.busy_s": "s",
    "nn.loss_and_grads.gflop": "gflop",
    "nn.loss_and_grads.gflop_per_s": "gflop/s",
    "nn.evaluate.calls": "count",
    "nn.evaluate.busy_s": "s",
    "nn.flatten_prunable.calls": "count",
    "nn.flatten_prunable.busy_s": "s",
    "pruning.partition.calls": "count",
    "pruning.partition.busy_s": "s",
    "pruning.partition.groups": "count",
    "pruning.magnitude_prune.calls": "count",
    "pruning.magnitude_prune.busy_s": "s",
    "pruning.sap_count.calls": "count",
    "pruning.sap_count.busy_s": "s",
    "pruning.run_pruning.self_s": "s",
    "sparsity.pq_index.calls": "count",
    "sparsity.pq_index.busy_s": "s",
    "sparsity.gini_index.calls": "count",
    "sparsity.gini_index.busy_s": "s",
    "sparsity.eta_r.calls": "count",
    "sparsity.eta_r.busy_s": "s",
    "audit.audit_measure.busy_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


def layer_metrics(tracer: Tracer, untraced_s: float) -> dict[str, float]:
    """Every LAYER_METRICS value from the spans and counters of one traced
    run. `untraced_s` is the comparable untraced time; the difference is
    reported as trace.overhead_s."""
    spans = tracer.spans
    selfs = self_times(spans)
    durations = defaultdict(list)
    self_sum = defaultdict(float)
    for s, own in zip(spans, selfs):
        durations[s.name].append(s.end - s.start)
        self_sum[s.name] += own

    def ratio(num, den):
        return num / den if den else 0.0

    c = tracer.counters
    values = {}
    for metric in LAYER_METRICS:
        layer, stat = metric.rsplit(".", 1)
        times = sorted(durations[layer])
        if stat == "calls":
            values[metric] = len(times)
        elif stat == "busy_s":
            values[metric] = sum(times)
        elif stat == "self_s":
            values[metric] = self_sum[layer]
        elif stat == "p50_s":
            values[metric] = statistics.median(times) if times else 0.0
        elif stat == "max_s":
            values[metric] = times[-1] if times else 0.0
    values["data_io.gen_synthetic.distinct_ratio"] = ratio(
        len(tracer.seen["data_io.gen_synthetic"]), len(durations["data_io.gen_synthetic"])
    )
    values["data_io.write_run_record.bytes"] = c["data_io.write_run_record.bytes"]
    values["pruning.partition.groups"] = c["pruning.partition.groups"]
    values["nn.train.density"] = ratio(c["nn.train.alive_steps"], c["nn.train.steps"])
    gflop = c["nn.loss_and_grads.flop"] / 1e9
    values["nn.loss_and_grads.gflop"] = gflop
    values["nn.loss_and_grads.gflop_per_s"] = ratio(gflop, values["nn.loss_and_grads.busy_s"])
    traced = sum(durations["cli.main"])
    values["trace.wall_s"] = traced
    values["trace.overhead_s"] = traced - untraced_s
    return values
