"""Per-layer span tracing installed from outside the program.

:class:`LayerTracer` wraps the entry points of each layer (methods and
module-level names the program looks up at call time) with a timing
wrapper, keeps one span per call in memory and restores the originals
on :meth:`LayerTracer.uninstall`.  A span is ``(name, start_ns, end_ns,
parent, op)``: *parent* is the index of the enclosing span (``-1`` at
top level) and *op* the id of the benchmark operation it belongs to.
Self time is a span's duration minus the durations of its direct
children; since the traced code is single-threaded, children never
overlap, so the self times of one operation add up to the time its
top-level spans cover.

Layer names follow the program's modules; the span name is the
per-layer metric name without its ``_s`` suffix.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import os
import time
from collections import defaultdict
from typing import Any, Callable

def _count_keep_set(tracer: "LayerTracer", args: tuple[Any, ...]) -> None:
    conn = args[0]
    tracer.counts["exporter.keep_set_scanned"] += (
        len(conn.answers) + len(conn.open_requests) + len(conn.must_send)
    )


def _count_buffer_scan(tracer: "LayerTracer", args: tuple[Any, ...]) -> None:
    tracer.counts["buffers.scanned"] += args[0].live_count


def _count_causal_scan(tracer: "LayerTracer", result: Any) -> None:
    tracer.counts["obs.causal_scanned"] += len(result.resolutions) * len(result.spans)


def entry_points() -> list[tuple[Any, str, str, Callable[..., None] | None, Callable[..., None] | None]]:
    """``(owner, attribute, span name, count-before, count-after)`` per entry point."""
    # Modules by import name: ``repro.obs.replay`` is also a function name
    # on the ``repro.obs`` package, so attribute access would find that.
    facade = importlib.import_module("repro.api.facade")
    replay_mod = importlib.import_module("repro.obs.replay")
    from repro.core.buffers import BufferManager
    from repro.core.coupler import CoupledSimulation, ProcessContext
    from repro.core.exporter import ConnectionExportState, RegionExportState
    from repro.core.rep import ExporterRep, ImporterRep
    from repro.data.schedule import CommSchedule
    from repro.des.channel import Network
    from repro.des.core import Simulator
    from repro.faults.network import FaultyNetwork
    from repro.match.engine import MatchEngine
    from repro.match.sorted_engine import SortedMatchEngine
    from repro.obs.prov import ProvenanceRecorder

    return [
        (Simulator, "run", "des.self", None, None),
        # Wiring inside repro.run: the same work setup_s times.
        (facade, "build", "api.setup", None, None),
        (CoupledSimulation, "_finalize_setup", "api.setup", None, None),
        (RegionExportState, "on_export", "exporter.on_export", None, None),
        (RegionExportState, "on_request", "exporter.on_request", None, None),
        (RegionExportState, "collect_evictions", "exporter.evict", None, None),
        (ConnectionExportState, "keep_set", "exporter.keep_set", _count_keep_set, None),
        (BufferManager, "free_below", "buffers.free_below", _count_buffer_scan, None),
        (
            BufferManager,
            "attribute_window",
            "buffers.attribute_window",
            _count_buffer_scan,
            None,
        ),
        (MatchEngine, "evaluate", "match.evaluate", None, None),
        (MatchEngine, "evaluate_batch", "match.evaluate", None, None),
        (SortedMatchEngine, "evaluate", "match.evaluate", None, None),
        (SortedMatchEngine, "evaluate_batch", "match.evaluate", None, None),
        (ExporterRep, "on_request", "rep", None, None),
        (ExporterRep, "on_response", "rep", None, None),
        (ImporterRep, "on_process_request", "rep", None, None),
        (ImporterRep, "on_answer", "rep", None, None),
        (Network, "send", "wire.send", None, None),
        (FaultyNetwork, "send", "wire.send", None, None),
        (CommSchedule, "build_cached", "data.schedule", None, None),
        (CoupledSimulation, "_send_pieces", "data.pieces", None, None),
        (ProcessContext, "_assemble", "data.pieces", None, None),
        # Patched where the facade (RunResult.causal) looks the name up.
        (facade, "build_causal_report", "obs.causal_report", None, _count_causal_scan),
        (ProvenanceRecorder, "finalize", "obs.prov_finalize", None, None),
        (ProvenanceRecorder, "close", "obs.prov_finalize", None, None),
        (replay_mod, "read_log", "obs.read_log", None, None),
        (replay_mod, "report_payload", "obs.replay_digest", None, None),
        (replay_mod, "causal_payload", "obs.replay_digest", None, None),
        (replay_mod, "payload_digest", "obs.replay_digest", None, None),
    ]


class LayerTracer:
    """Timing wrappers around every layer entry point, spans kept in memory."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, int, int, int, int] | None] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.op = 0
        self._stack: list[int] = []
        self._saved: list[tuple[Any, str, Any]] = []

    # -- installation -------------------------------------------------------
    def install(self) -> None:
        """Replace every entry point with its timing wrapper."""
        for owner, attr, name, before, after in entry_points():
            raw = owner.__dict__[attr]
            self._saved.append((owner, attr, raw))
            if isinstance(raw, staticmethod):
                setattr(owner, attr, staticmethod(self._wrap(raw.__func__, name, before, after)))
            else:
                setattr(owner, attr, self._wrap(raw, name, before, after))

    def uninstall(self) -> None:
        """Restore the original entry points (reverse order of install)."""
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def _wrap(
        self,
        fn: Callable[..., Any],
        name: str,
        before: Callable[..., None] | None,
        after: Callable[..., None] | None,
    ) -> Callable[..., Any]:
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if before is not None:
                before(tracer, args)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, tracer.op)
            if after is not None:
                after(tracer, result)
            return result

        return wrapper

    # -- analysis -------------------------------------------------------------
    def self_times(self, op: int) -> dict[str, float]:
        """Self seconds per span name over the spans of operation *op*."""
        child: dict[int, int] = defaultdict(int)
        for span in self.spans:
            if span is not None and span[3] >= 0 and span[4] == op:
                child[span[3]] += span[2] - span[1]
        out: dict[str, float] = defaultdict(float)
        for idx, span in enumerate(self.spans):
            if span is not None and span[4] == op:
                out[span[0]] += (span[2] - span[1] - child.get(idx, 0)) * 1e-9
        return dict(out)

    def inclusive_times(self, op: int) -> dict[str, float]:
        """Seconds per span name of the outermost spans of each name in *op*.

        Recursion into the same name (e.g. ``FaultyNetwork.send`` calling
        ``Network.send``) is counted once, as a profiler's cumulative
        time is.
        """
        out: dict[str, float] = defaultdict(float)
        for span in self.spans:
            if span is None or span[4] != op:
                continue
            name, t0, t1, parent, _op = span
            ancestor = parent
            nested = False
            while ancestor >= 0:
                a = self.spans[ancestor]
                assert a is not None
                if a[0] == name:
                    nested = True
                    break
                ancestor = a[3]
            if not nested:
                out[name] += (t1 - t0) * 1e-9
        return dict(out)

    def write(self, path: str) -> None:
        """Write every recorded span as gzipped TSV (name, start, end, parent, op)."""
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("name\tstart_ns\tend_ns\tparent\top\n")
            for span in self.spans:
                if span is not None:
                    fh.write("\t".join(str(x) for x in span) + "\n")
