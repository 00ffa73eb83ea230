"""An in-memory span tracer that times repro's layers from outside.

:meth:`Tracer.install` wraps the public functions and methods named in
:data:`LAYERS` in place, so the program runs unchanged while every call
into a layer records a span (name, start, end, parent span, thread).
Spans stay in memory until the benchmark turns them into per-layer
metrics (:func:`layer_metrics`) and a Chrome trace-event file
(:func:`write_chrome_trace`) that Perfetto opens.

A layer's self time is its span's duration minus the part its child
spans cover; its inclusive time counts only the outermost span of each
name, so a layer that calls itself is not counted twice.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import importlib
import itertools
import json
import os
import sys
import threading
import time
from collections import Counter
from pathlib import Path


class MissingLayer(RuntimeError):
    """A layer named in :data:`LAYERS` is not in the program."""


class Span:
    __slots__ = ("sid", "name", "parent", "start", "end", "tid")

    def __init__(self, sid, name, parent, start, tid, end=0.0):
        self.sid = sid
        self.name = name
        self.parent = parent
        self.start = start
        self.end = end
        self.tid = tid

    def as_row(self) -> list:
        return [self.sid, self.name, self.parent, self.start, self.end, self.tid]


class Tracer:
    """Spans and counters of one process; spans nest per thread."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: Counter = Counter()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def open(self, name: str) -> Span:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        parent = stack[-1].sid if stack else 0
        span = Span(
            next(self._ids), name, parent, time.perf_counter(),
            threading.get_ident(),
        )
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._local.stack.pop()
        self.spans.append(span)

    @contextlib.contextmanager
    def span(self, name: str):
        span = self.open(name)
        try:
            yield span
        finally:
            self.close(span)

    def count(self, key: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[key] += amount

    def take(self) -> tuple[list[Span], Counter]:
        """The spans and counters recorded so far; starts afresh."""
        with self._lock:
            spans, counters = self.spans, self.counters
            self.spans, self.counters = [], Counter()
        return spans, counters

    # -- instrumentation -----------------------------------------------------

    def install(self, layers=None) -> None:
        """Wrap every target of ``layers`` (default :data:`LAYERS`).

        A target the program no longer has raises :class:`MissingLayer`
        with nothing left wrapped: a layer that silently read zero would
        look like a large speed-up. Rename the target in :data:`LAYERS`
        along with the program.
        """
        for module_name, qualname, name, after in layers or LAYERS:
            try:
                module = importlib.import_module(module_name)
            except ImportError as exc:
                self.uninstall()
                raise MissingLayer(f"no module {module_name}") from exc
            owner_name, _, attr = qualname.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.uninstall()
                raise MissingLayer(f"no {module_name}.{qualname}")
            wrapped = self._wrap(original, name, after)
            if owner_name:
                self._patch(owner, attr, wrapped)
                continue
            # A module-level function is also bound by name in every
            # module that imported it; rebind each of those too.
            for loaded in list(sys.modules.values()):
                namespace = getattr(loaded, "__dict__", None)
                if (
                    namespace is not None
                    and getattr(loaded, "__name__", "").startswith("repro")
                    and namespace.get(attr) is original
                ):
                    self._patch(loaded, attr, wrapped)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr: str, wrapped) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapped)

    def _wrap(self, fn, name, after):
        tracer = self
        if name is None:

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                after(tracer, args, result)
                return result

            return counted
        if name.endswith("[gen]"):
            name = name.removesuffix("[gen]")

            @functools.wraps(fn)
            def stepped(*args, **kwargs):
                # One span per item: the generator's work happens in
                # next(), interleaved with whatever consumes it.
                iterator = fn(*args, **kwargs)
                while True:
                    span = tracer.open(name)
                    try:
                        item = next(iterator)
                    except StopIteration:
                        return
                    finally:
                        tracer.close(span)
                    if after is not None:
                        after(tracer, args, item)
                    yield item

            return stepped

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            span = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if after is not None:
                after(tracer, args, result)
            return result

        return timed


def no_span(name: str):
    """The untraced stand-in for :meth:`Tracer.span`."""
    return contextlib.nullcontext()


# -- what gets wrapped, and the counters read at each boundary ----------------


def _counter(key: str):
    return lambda tracer, args, result: tracer.count(key)


def _search_stats(calls_key: str, size=None):
    def after(tracer, args, result):
        stats = args[0].last_stats
        tracer.count(calls_key, 1 if size is None else size(args))
        tracer.count("index.cells_visited", stats.cells_visited)
        tracer.count("index.segments_checked", stats.segments_checked)

    return after


def _modification(tracer, args, result):
    report = result[1]
    tracer.count("modification.insertions", report.insertions)
    tracer.count("modification.deletions", report.deletions)
    tracer.count("modification.unrealised", report.unrealised)
    # Only the global stage's modifier plans waves.
    stats = getattr(args[0], "last_wave_stats", None)
    if stats is not None:
        tracer.count("waves.count", stats.waves)
        tracer.count("waves.operations", stats.operations)
        tracer.count("waves.simulations", stats.simulations)
        tracer.count("waves.fallbacks", stats.fallbacks)
        tracer.count("waves.discarded", stats.discarded)


def _rows_written(tracer, args, result):
    # Only a sized collection can be walked again after the write.
    if hasattr(args[1], "__len__"):
        tracer.count("io.rows_written", sum(len(t) for t in args[1]))


def _spill_bytes(tracer, args, result):
    tracer.count("spill.bytes", os.path.getsize(result))


#: (module, function or Class.method, span name or None for a counter
#: only, after-hook). A ``[gen]`` suffix times each step of a generator.
LAYERS = [
    ("repro.core.waves", "WavePlanner.plan_wave", "waves.plan", None),
    ("repro.core.waves", "WaveExecutor.apply_wave", "waves.execute", None),
    (
        "repro.index.hierarchical", "HierarchicalGridIndex.knn_batch",
        "index.knn_batch",
        _search_stats("index.knn_batch_queries", lambda args: len(args[1])),
    ),
    (
        "repro.index.hierarchical", "HierarchicalGridIndex.knn",
        "index.knn", _search_stats("index.knn_calls"),
    ),
    (
        "repro.index.hierarchical", "HierarchicalGridIndex.insert_many",
        "index.insert_many",
        lambda tracer, args, result: tracer.count(
            "index.segments_inserted", len(result)
        ),
    ),
    (
        "repro.geo.vectorized", "SegmentArray.distances_to", None,
        _counter("geo.distance_kernel_calls"),
    ),
    (
        "repro.core.edits", "EditableTrajectory.__init__", "edits.build",
        _counter("edits.builds"),
    ),
    (
        "repro.core.modification", "InterTrajectoryModifier.apply",
        "modification.inter", _modification,
    ),
    (
        "repro.core.modification", "IntraTrajectoryModifier.apply",
        "modification.intra", _modification,
    ),
    (
        "repro.core.signature", "SignatureExtractor.extract",
        "signature.extract", _counter("signature.extract_calls"),
    ),
    ("repro.core.global_mechanism", "GlobalTFMechanism.perturb", "noise.tf_draw", None),
    (
        "repro.core.local_mechanism", "LocalPFMechanism.perturb_trajectory",
        "noise.pf_draw", _counter("noise.pf_draws"),
    ),
    (
        "repro.trajectory.io", "stream_csv_rows", "io.read[gen]",
        lambda tracer, args, item: tracer.count("io.rows_read", len(item)),
    ),
    ("repro.trajectory.io", "write_csv", "io.write", None),
    ("repro.trajectory.io", "write_csv_rows", "io.write", _rows_written),
    ("repro.engine.spill", "SpillStore.stage", "spill.stage", _spill_bytes),
    ("repro.engine.spill", "SpillStore.load", "spill.load", None),
    (
        "repro.engine.publish", "StreamPublisher.chunk_targets",
        "publish.chunk_targets", None,
    ),
    (
        "repro.engine.publish", "StreamPublisher.publish", None,
        lambda tracer, args, result: tracer.count(
            "publish.chunks", result.chunk_count
        ),
    ),
]

#: Per-layer time metric -> (span name, "incl" or "self").
TIMES = {
    "waves.plan_s": ("waves.plan", "incl"),
    "waves.execute_s": ("waves.execute", "incl"),
    "index.knn_batch_s": ("index.knn_batch", "incl"),
    "index.knn_s": ("index.knn", "incl"),
    "index.insert_many_s": ("index.insert_many", "incl"),
    "edits.build_s": ("edits.build", "incl"),
    "modification.inter_self_s": ("modification.inter", "self"),
    "modification.intra_self_s": ("modification.intra", "self"),
    "signature.extract_s": ("signature.extract", "incl"),
    "noise.tf_draw_s": ("noise.tf_draw", "incl"),
    "noise.pf_draw_s": ("noise.pf_draw", "incl"),
    "io.read_s": ("io.read", "incl"),
    "io.write_s": ("io.write", "incl"),
    "spill.stage_s": ("spill.stage", "incl"),
    "spill.load_s": ("spill.load", "incl"),
    "publish.chunk_targets_s": ("publish.chunk_targets", "incl"),
}

#: Per-layer count metrics, reported as counted.
COUNTS = (
    "waves.count", "waves.simulations", "waves.fallbacks",
    "waves.discarded", "index.knn_batch_queries", "index.knn_calls",
    "index.segments_inserted", "index.cells_visited",
    "index.segments_checked", "geo.distance_kernel_calls", "edits.builds",
    "modification.insertions", "modification.deletions",
    "modification.unrealised", "signature.extract_calls",
    "noise.pf_draws", "io.rows_read", "io.rows_written", "spill.bytes",
    "publish.chunks",
)

#: Counters that must repeat exactly between traced releases of one
#: input: any drift is nondeterminism, not noise.
DETERMINISTIC = (*COUNTS, "waves.operations")


def program_digest(src) -> str:
    """SHA-256 over the path and bytes of every ``.py`` file under ``src``."""
    digest = hashlib.sha256()
    for path in sorted(Path(src).rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode() + b"\0")
        digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()


def self_test(record, counter_sets) -> list[str]:
    """Problems if the deterministic counters do not repeat exactly.

    ``counter_sets`` holds the counters of one or more traced runs of
    the same work; each must equal the first. ``record`` keeps the
    first set for later traced runs to match, so its name must carry
    the workload, the seed and the :func:`program_digest`: a change to
    the program may well change these counters.
    """
    observed = [
        {key: counters[key] for key in DETERMINISTIC} for counters in counter_sets
    ]
    found = [
        f"counters of traced run {i} differ: "
        f"{sorted(k for k in observed[0] if observed[0][k] != other[k])}"
        for i, other in enumerate(observed[1:], start=1)
        if other != observed[0]
    ]
    record = Path(record)
    if record.is_file():
        earlier = json.loads(record.read_text())
        drift = sorted(k for k in earlier if earlier[k] != observed[0].get(k))
        if drift:
            found.append(f"counters differ from an earlier traced run: {drift}")
    else:
        record.write_text(json.dumps(observed[0], sort_keys=True))
    return found


def span_times(spans: list[Span]) -> tuple[Counter, Counter]:
    """``(inclusive, self)`` seconds per span name."""
    by_id = {span.sid: span for span in spans}
    covered: Counter = Counter()
    for span in spans:
        if span.parent in by_id:
            covered[span.parent] += span.end - span.start
    inclusive: Counter = Counter()
    own: Counter = Counter()
    for span in spans:
        duration = span.end - span.start
        own[span.name] += duration - covered[span.sid]
        parent = by_id.get(span.parent)
        while parent is not None and parent.name != span.name:
            parent = by_id.get(parent.parent)
        if parent is None:
            inclusive[span.name] += duration
    return inclusive, own


def layer_metrics(
    spans: list[Span], counters: Counter, root: str, releases: int = 1
) -> dict[str, float]:
    """Per-layer metrics per release from one or more releases' spans.

    ``root`` names the span of a whole release; its self time is the
    part of the release no named layer covers.
    """
    inclusive, own = span_times(spans)
    metrics = {}
    for metric, (name, kind) in TIMES.items():
        source = inclusive if kind == "incl" else own
        metrics[metric] = source[name] / releases
    for key in COUNTS:
        metrics[key] = counters[key] / releases
    metrics["waves.mean_size"] = counters["waves.operations"] / max(
        counters["waves.count"], 1
    )
    metrics["waves.plan_yield"] = counters["waves.operations"] / max(
        counters["waves.simulations"], 1
    )
    metrics["release.unattributed_s"] = own[root] / releases
    metrics["release.span_coverage"] = (
        1.0 - own[root] / inclusive[root] if inclusive[root] else 0.0
    )
    return metrics


def dump_spans(tracer: Tracer, path: str) -> None:
    """Write a process's spans and counters for another to merge."""
    spans, counters = tracer.take()
    with open(path, "w") as handle:
        json.dump(
            {"spans": [span.as_row() for span in spans], "counters": counters},
            handle,
        )


def load_spans(path: str) -> tuple[list[Span], Counter]:
    with open(path) as handle:
        data = json.load(handle)
    spans = [
        Span(sid, name, parent, start, tid, end)
        for sid, name, parent, start, end, tid in data["spans"]
    ]
    return spans, Counter(data["counters"])


def write_chrome_trace(path, processes: dict[str, list[Span]]) -> None:
    """Chrome trace-event JSON: one complete ("X") event per span.

    ``processes`` maps a process label to its spans; span times are
    ``perf_counter`` readings, which share one clock across processes
    on the same host.
    """
    everything = [span for spans in processes.values() for span in spans]
    origin = min((span.start for span in everything), default=0.0)
    events = []
    for pid, (label, spans) in enumerate(processes.items(), start=1):
        events.append(
            {"name": "process_name", "ph": "M", "pid": pid,
             "args": {"name": label}}
        )
        threads: dict[int, int] = {}
        for span in spans:
            tid = threads.setdefault(span.tid, len(threads) + 1)
            events.append(
                {
                    "name": span.name,
                    "cat": span.name.split(".")[0],
                    "ph": "X",
                    "ts": (span.start - origin) * 1e6,
                    "dur": (span.end - span.start) * 1e6,
                    "pid": pid,
                    "tid": tid,
                    "args": {"span": span.sid, "parent": span.parent},
                }
            )
    with open(path, "w") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
