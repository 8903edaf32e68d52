"""End-to-end benchmark of the coupling framework, split by layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fig4-catchup --seed 1 --seconds 12 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` alternates untraced and traced operations and reports
the per-layer split (see ``perfbench/README.md``).  Human-readable
lines go first; the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 0
only when every output check passed.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import sys
import tempfile
import threading
import time
import traceback
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "perfbench" / "out"

#: Export count of both Figure-4 workloads (the paper runs 1001; longer
#: runs expose how cost grows with run length).
FIG4_EXPORTS = 4001
#: Export count of the chaos workload (a plain-recorded-replayed cycle
#: takes about 1.6 s, so a 25 s window holds about fifteen).
CHAOS_EXPORTS = 500
#: Set-ups timed after each operation; ``setup_s`` is the median of all
#: of a run's set-ups, so they sample the same host conditions as the
#: operations do.
SETUPS_PER_OP = 20
#: Sessions per serve round (one fresh server each): p90 then has at
#: least 10 samples beyond it in every round.
ROUND_SESSIONS = 200
SERVE_CLIENTS = 2
#: Largest share of a traced operation's wall time the layer spans may
#: leave uncovered (the facade glue between entry points).
COVERAGE_TOLERANCE = 0.05

END_TO_END = (("setup_s", "s"), ("op_s", "s"), ("peak_rss_mb", "MB"))

#: Time of one ``reference_s`` timing on the host the bounds were set on
#: when it is quiet: a 2-core x86_64 VM on which the same operation runs
#: 20-50% slower or faster from one minute to the next with its
#: neighbours' load.  DES times are reported as ``wall *
#: REFERENCE_NOMINAL_S / reference``: seconds at that host speed.
REFERENCE_NOMINAL_S = 0.0025

PER_LAYER = (
    ("des.self_s", "s"),
    ("des.events", "count"),
    ("des.cancelled", "count"),
    ("api.setup_s", "s"),
    ("exporter.on_export_s", "s"),
    ("exporter.on_request_s", "s"),
    ("exporter.evict_s", "s"),
    ("exporter.keep_set_s", "s"),
    ("exporter.keep_set_scanned", "count"),
    ("exporter.skip_ratio", "ratio"),
    ("buffers.free_below_s", "s"),
    ("buffers.attribute_window_s", "s"),
    ("buffers.scanned", "count"),
    ("buffers.useful_ratio", "ratio"),
    ("buffers.peak_bytes", "bytes"),
    ("match.evaluate_s", "s"),
    ("match.evaluations", "count"),
    ("match.definitive_ratio", "ratio"),
    ("rep.s", "s"),
    ("rep.buddy_messages", "count"),
    ("rep.duplicate_requests", "count"),
    ("wire.send_s", "s"),
    ("wire.ctl_messages", "count"),
    ("wire.data_bytes", "bytes"),
    ("wire.dup_discards", "count"),
    ("wire.retransmit_ratio", "ratio"),
    ("data.schedule_s", "s"),
    ("data.pieces_s", "s"),
    ("data.bytes_moved", "bytes"),
    ("obs.causal_report_s", "s"),
    ("obs.prov_finalize_s", "s"),
    ("obs.read_log_s", "s"),
    ("obs.replay_digest_s", "s"),
    ("obs.causal_scanned", "count"),
    ("obs.log_bytes", "bytes"),
    ("serve.queue_s", "s"),
    ("serve.exec_s", "s"),
    ("serve.overhead_s", "s"),
    ("serve.failed", "count"),
    ("trace.wall_s", "s"),
    ("trace.overhead", "ratio"),
    ("trace.unattributed_share", "ratio"),
)


def reference_s() -> float:
    """Median of nine timings of a fixed interpreter loop, in seconds.

    The loop does not touch the program and holds a 1024-entry dict, so
    it tracks the host's speed without adding to ``peak_rss_mb``.
    """
    times = []
    for _ in range(9):
        t0 = time.perf_counter()
        table: dict[int, int] = {}
        for i in range(20_000):
            table[i & 1023] = table.get(i & 1023, 0) + i
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _scale(times: list[float], reference: float | None) -> list[float]:
    if reference is None:
        return list(times)
    return [t * REFERENCE_NOMINAL_S / reference for t in times]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in (0, 100])."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


class Run:
    """What one benchmark invocation measured."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        #: Set-up and operation times as measured, and as reported:
        #: scaled to REFERENCE_NOMINAL_S on the DES workloads.
        self.setup_raw: list[float] = []
        self.setup: list[float] = []
        self.walls: list[float] = []
        self.scaled: list[float] = []
        self.traced_walls: list[float] = []
        self.self_times: list[dict[str, float]] = []
        self.uncovered: list[float] = []
        self.counts: dict[str, float] = {}
        self.bases: dict[str, str] = {}
        #: Raw wall times of the parts of a composite operation, by name.
        self.phases: dict[str, list[float]] = {}

    def add_setups(self, times: list[float], reference: float | None) -> None:
        """Record set-up times measured while ``reference_s`` read
        *reference* (``None``: reported unscaled)."""
        self.setup_raw.extend(times)
        self.setup.extend(_scale(times, reference))

    def add_ops(self, times: list[float], reference: float | None) -> None:
        """Record operation times, as :meth:`add_setups` does."""
        self.walls.extend(times)
        self.scaled.extend(_scale(times, reference))

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems[:5])


# -- DES workloads ---------------------------------------------------------------


def des_counts(inputs: Any, result: Any, run: Run) -> None:
    """Per-layer counts from the program's public counters after a run."""
    kc = result.simulation.sim.kernel_counters()
    counts = run.counts
    counts["des.events"] = kc["dispatched"]
    counts["des.cancelled"] = kc["cancelled"]
    slow = result.context("F", inputs.slow_rank).stats.decisions()
    exports = sum(slow.values())
    counts["exporter.skip_ratio"] = _ratio(slow.get("skip", 0), exports)
    run.bases["exporter.skip_ratio"] = f"{slow.get('skip', 0)} SKIPs / {exports} exports of p_s"
    sent = buffered = peak = 0
    pending = definitive = 0
    for rank in range(inputs.f_procs):
        stats = result.buffer_stats("F", rank, "f")
        sent += stats.sent_count
        buffered += stats.buffered_count
        peak = max(peak, stats.peak_bytes)
        for st in result.context("F", rank).export_states.values():
            for conn in st.connections.values():
                pending += conn.engine.pending_count
                definitive += conn.engine.match_count + conn.engine.no_match_count
    counts["buffers.useful_ratio"] = _ratio(sent, buffered)
    run.bases["buffers.useful_ratio"] = f"{sent} sent / {buffered} buffered, all F ranks"
    counts["buffers.peak_bytes"] = peak
    run.bases["buffers.peak_bytes"] = "largest per-rank peak over F ranks"
    counts["match.evaluations"] = pending + definitive
    counts["match.definitive_ratio"] = _ratio(definitive, pending + definitive)
    run.bases["match.definitive_ratio"] = (
        f"{definitive} definitive / {pending + definitive} evaluations"
    )
    metrics = result.metrics
    counts["rep.buddy_messages"] = metrics.total("buddy.helps_sent")
    counts["rep.duplicate_requests"] = metrics.total("rep.duplicate_requests")
    c = result.counters
    counts["wire.ctl_messages"] = c["ctl_messages"]
    counts["wire.data_bytes"] = c["data_bytes"]
    counts["wire.dup_discards"] = c["dup_discards"]
    issued = len(inputs.request_ts) * inputs.u_procs
    counts["wire.retransmit_ratio"] = _ratio(c["retransmissions"], issued)
    faults = result.fault_stats
    run.bases["wire.retransmit_ratio"] = (
        f"{c['retransmissions']} retransmissions / {issued} import requests"
        + ("" if faults is None else f"; {faults['dropped']} of {faults['eligible']} eligible messages dropped")
    )
    matched = sum(1 for got in inputs.imports.values() for _t, m, _ok in got if m is not None)
    counts["data.bytes_moved"] = matched * inputs.u_block_bytes if inputs.payload else 0
    run.bases["data.bytes_moved"] = (
        f"computed: {matched} matched imports x {inputs.u_block_bytes} B block"
        if inputs.payload
        else "cost-only run: no payload bytes"
    )


class Fig4Workload:
    """One Figure-4 run per operation, timed through ``repro.run``."""

    def __init__(self, u_procs: int) -> None:
        self.u_procs = u_procs

    def prepare(self, seed: int) -> None:
        from perfbench.workloads import fig4_inputs

        self.inputs = fig4_inputs(seed, self.u_procs, FIG4_EXPORTS)

    def setup(self) -> None:
        from perfbench.workloads import des_setup

        des_setup(self.inputs)

    def op(self, run: Run, counts: bool) -> float:
        wall, result = timed_run(self.inputs, run)
        if counts:
            des_counts(self.inputs, result, run)
        return wall

    def cleanup(self) -> None:
        pass


class ChaosWorkload:
    """One operation = the chaos run three ways: plain, recorded, replayed.

    The replay is ``verify_replay`` on the log the recorded run just
    wrote.  The three wall times are kept apart (``phases``) and printed
    as run_s, record_s and replay_s; ``op_s`` times the whole cycle.
    """

    PHASES = ("run_s", "record_s", "replay_s")

    def prepare(self, seed: int) -> None:
        from perfbench.workloads import chaos_inputs

        self.log = str(OUT_DIR / f"chaos-{os.getpid()}.prov")
        self.plain = chaos_inputs(seed, CHAOS_EXPORTS)
        self.recorded = chaos_inputs(seed, CHAOS_EXPORTS, provenance=self.log)
        self.phases: dict[str, list[float]] = {name: [] for name in self.PHASES}

    def setup(self) -> None:
        from perfbench.workloads import des_setup

        des_setup(self.plain)

    def op(self, run: Run, counts: bool) -> float:
        from repro.obs.replay import verify_replay

        plain_wall, result = timed_run(self.plain, run)
        if counts:
            des_counts(self.plain, result, run)
        del result
        record_wall, _ = timed_run(self.recorded, run)
        t0 = time.perf_counter()
        verdict = verify_replay(self.log)
        replay_wall = time.perf_counter() - t0
        run.record([] if verdict["ok"] else [f"replay not bit-exact: {verdict}"])
        if counts:
            run.counts["obs.log_bytes"] = os.path.getsize(self.log)
        for name, wall in zip(self.PHASES, (plain_wall, record_wall, replay_wall)):
            self.phases[name].append(wall)
        return plain_wall + record_wall + replay_wall

    def cleanup(self) -> None:
        if os.path.exists(self.log):
            os.remove(self.log)


def timed_run(inputs: Any, run: Run) -> tuple[float, Any]:
    """One ``repro.run`` of *inputs*, its outputs checked; returns (wall, result)."""
    import repro
    from perfbench.workloads import check_des

    inputs.imports.clear()
    t0 = time.perf_counter()
    result = repro.run(inputs.config, inputs.programs, inputs.options)
    wall = time.perf_counter() - t0
    run.record(check_des(inputs, result))
    return wall, result


def traced_op(wl: Any, tracer: Any, run: Run) -> None:
    """One operation under the layer wrappers; records its self-time split."""
    # Only the last traced operation's spans are kept (and written out):
    # one Figure-4 run records a few 10^5 spans.
    tracer.op += 1
    tracer.counts.clear()
    del tracer.spans[:]
    tracer.install()
    try:
        wall = wl.op(run, counts=False)
    finally:
        tracer.uninstall()
    run.traced_walls.append(wall)
    selfs = tracer.self_times(tracer.op)
    run.self_times.append(selfs)
    run.uncovered.append((wall - sum(selfs.values())) / wall)
    run.counts.update(tracer.counts)


def measure_des(name: str, seed: int, seconds: float, trace: bool, run: Run) -> None:
    from perfbench.layers import LayerTracer

    wl = make_workload(name)
    wl.prepare(seed)
    try:
        start = time.perf_counter()
        tracer = LayerTracer() if trace else None
        before = reference_s()
        while not run.walls or time.perf_counter() - start < seconds:
            try:
                wall = wl.op(run, counts=trace)
                gc.collect()
                setups = []
                for _ in range(SETUPS_PER_OP):
                    t0 = time.perf_counter()
                    wl.setup()
                    setups.append(time.perf_counter() - t0)
                after = reference_s()
                # The set-ups sit next to *after*; the operation between
                # the two readings.
                run.add_setups(setups, after)
                run.add_ops([wall], (before + after) / 2)
                if tracer is not None:
                    traced_op(wl, tracer, run)
            except Exception as exc:  # noqa: BLE001 - a failed run is a measured outcome
                traceback.print_exc(file=sys.stderr)
                run.record([f"{type(exc).__name__}: {exc}"])
                break
            gc.collect()  # the discarded simulations hold reference cycles
            before = reference_s()
        if tracer is not None:
            tracer.write(str(OUT_DIR / f"spans-{name}.tsv.gz"))
        run.phases = getattr(wl, "phases", {})
    finally:
        wl.cleanup()


# -- served sessions -------------------------------------------------------------


def serve_round(url: str, seed: int, first_index: int, run: Run) -> list[tuple[dict[str, Any], float]]:
    """Drive one server with SERVE_CLIENTS closed-loop clients for ROUND_SESSIONS sessions."""
    from perfbench.workloads import check_session, run_session, session_spec
    from repro.serve import ServeClient

    lock = threading.Lock()
    results: list[tuple[dict[str, Any], float]] = []
    counter = iter(range(first_index, first_index + ROUND_SESSIONS))

    def client_loop() -> None:
        client = ServeClient(url, timeout=60.0)
        while True:
            with lock:
                index = next(counter, None)
                if index is None or run.failed > 10:
                    return
            try:
                info, report, latency = run_session(client, session_spec(seed, index))
                problems = check_session(info, report)
            except Exception as exc:  # noqa: BLE001 - a failed session is a measured outcome
                info, latency, problems = {}, 0.0, [f"{type(exc).__name__}: {exc}"]
            with lock:
                run.record(problems)
                if not problems:
                    results.append((info, latency))

    threads = [threading.Thread(target=client_loop) for _ in range(SERVE_CLIENTS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return results


def measure_serve(seed: int, seconds: float, run: Run) -> None:
    """Rounds of a fresh server serving ROUND_SESSIONS sessions, for the window.

    A fresh server per round keeps the retained-session state (the server
    keeps every finished session) and so the memory peak the same from
    run to run.  Times are not scaled: the sessions run in other
    processes while the client threads share this interpreter, so no
    reference reading can sit next to a session.
    """
    from perfbench.workloads import ServeHarness

    results: list[tuple[dict[str, Any], float]] = []
    start = time.perf_counter()
    rounds = 0
    while rounds == 0 or time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        harness = ServeHarness()
        try:
            url = harness.start()
            setup = time.perf_counter() - t0
            batch = serve_round(url, seed, rounds * ROUND_SESSIONS, run)
        finally:
            harness.stop()
        run.add_setups([setup], None)
        run.add_ops([latency for _info, latency in batch], None)
        results.extend(batch)
        rounds += 1
        if run.failed > 10:
            break
    queue = [i["started"] - i["created"] for i, _ in results]
    exec_ = [i["finished"] - i["started"] for i, _ in results]
    overhead = [lat - (i["finished"] - i["created"]) for i, lat in results]
    if results:
        run.counts["serve.queue_s"] = statistics.median(queue)
        run.counts["serve.exec_s"] = statistics.median(exec_)
        run.counts["serve.overhead_s"] = statistics.median(overhead)
    run.counts["serve.failed"] = run.failed
    run.bases["serve.failed"] = f"{run.failed} failed / {run.attempted} sessions"


# -- reporting -------------------------------------------------------------------

WORKLOAD_NAMES = ("fig4-catchup", "fig4-buffer-all", "chaos-payload", "serve-sessions")

#: What ``op_s`` is on each workload, by the names the notes use.
OP_NAMES = {
    "fig4-catchup": "run_s",
    "fig4-buffer-all": "run_s",
    "chaos-payload": "run_s + record_s + replay_s",
    "serve-sessions": "session_s.p50",
}


def make_workload(name: str) -> Any:
    if name == "fig4-catchup":
        return Fig4Workload(u_procs=16)
    if name == "fig4-buffer-all":
        return Fig4Workload(u_procs=4)
    if name == "chaos-payload":
        return ChaosWorkload()
    raise ValueError(name)


def _quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return f"{values[0]:.4g}" if values else "-"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"{q1:.4g} / {q2:.4g} / {q3:.4g}"


def report(name: str, trace: bool, run: Run) -> dict[str, Any]:
    """Print the human-readable lines; return the final JSON object."""
    metrics: dict[str, dict[str, Any]] = {}
    op_s = statistics.median(run.scaled) if run.scaled else 0.0
    raw_op = statistics.median(run.walls) if run.walls else 0.0
    print(f"workload {name}: {run.attempted} operations attempted, {run.failed} failed")
    print(f"error_rate {_ratio(run.failed, run.attempted)!r} ({run.failed} / {run.attempted})")
    if not trace:
        # The served workload's sessions run in pool workers, joined by now:
        # the peak is the largest of this process and its children.
        peak = max(
            resource.getrusage(who).ru_maxrss
            for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
        ) / 1024.0
        values = {
            "setup_s": statistics.median(run.setup),
            "op_s": op_s,
            "peak_rss_mb": peak,
        }
        print(
            f"setup_s {values['setup_s']!r} s (median of {len(run.setup)} set-ups; "
            f"quartiles {_quartiles(run.setup)}; unscaled {statistics.median(run.setup_raw)!r} s)"
        )
        print(
            f"op_s {op_s!r} s ({OP_NAMES[name]}: median of {len(run.scaled)}; "
            f"quartiles {_quartiles(run.scaled)}; unscaled {raw_op!r} s)"
        )
        for phase, walls in run.phases.items():
            print(
                f"{phase} {statistics.median(walls)!r} s (unscaled median of {len(walls)}; "
                f"quartiles {_quartiles(walls)})"
            )
        if name == "chaos-payload":
            from perfbench.workloads import CHAOS_PLANES

            print(
                f"fault planes {', '.join(sorted(CHAOS_PLANES))}: the ctl plane is fault-free, "
                "so this run cannot observe the ctl-plane liveness defect (perfbench/README.md)"
            )
        if name == "serve-sessions" and run.walls:
            n = len(run.walls)
            print(
                f"session_s.p90 {_percentile(run.walls, 90)!r} s "
                f"(n={n}, {n - math.ceil(0.9 * n)} beyond)"
            )
        print(f"peak_rss_mb {peak!r} MB (largest of this process and its joined children)")
        for key, unit in END_TO_END:
            metrics[key] = {"value": values[key], "unit": unit}
        return metrics
    values: dict[str, float] = {key: 0.0 for key, _unit in PER_LAYER}
    if run.self_times:
        for span_name in {k for st in run.self_times for k in st}:
            key = "rep.s" if span_name == "rep" else f"{span_name}_s"
            values[key] = statistics.median(st.get(span_name, 0.0) for st in run.self_times)
        traced = statistics.median(run.traced_walls)
        values["trace.wall_s"] = traced
        values["trace.overhead"] = traced / raw_op
        values["trace.unattributed_share"] = statistics.median(run.uncovered)
        run.bases["trace.overhead"] = f"traced {traced!r} s / untraced {raw_op!r} s, unscaled"
        run.bases["trace.unattributed_share"] = (
            f"worst {max(run.uncovered)!r} of {len(run.uncovered)} traced ops; "
            f"tolerance {COVERAGE_TOLERANCE}"
        )
    else:
        values["trace.wall_s"] = raw_op
        values["trace.overhead"] = 1.0
        run.bases["trace.overhead"] = "no wrappers installed: timing comes from session info"
    values.update(run.counts)
    for key, unit in PER_LAYER:
        base = run.bases.get(key)
        print(f"{key} {values[key]!r} {unit}" + (f" ({base})" if base else ""))
        metrics[key] = {"value": values[key], "unit": unit}
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    run = Run()
    trace = bool(args.trace)
    if args.workload == "serve-sessions":
        # The server's multiprocessing manager makes its socket directory
        # under tempfile's directory: keep it in the checkout when the
        # path fits a Unix socket name (108 bytes).
        saved = tempfile.tempdir
        if len(str(OUT_DIR)) < 60:
            tempfile.tempdir = str(OUT_DIR)
        try:
            measure_serve(args.seed, args.seconds, run)
        finally:
            tempfile.tempdir = saved
    else:
        measure_des(args.workload, args.seed, args.seconds, trace, run)
    metrics = report(args.workload, trace, run)
    if trace and run.uncovered and max(run.uncovered) > COVERAGE_TOLERANCE:
        run.problems.append(
            f"layer self times leave {max(run.uncovered):.3f} of a traced run "
            f"uncovered (tolerance {COVERAGE_TOLERANCE})"
        )
    for problem in run.problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    correct = not run.problems and run.failed == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
