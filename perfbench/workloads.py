"""Workload inputs, runs and output checks of the end-to-end benchmark.

Every workload is built from ``--seed`` alone: the seed picks the first
export timestamp, the RNG root of the cost-model jitter, the fault-plan
seed and the payload field.  The program receives only those generated
inputs, through the public API (``repro.run`` / ``repro.api.build``,
``repro.obs.replay``, ``repro.serve``).

Each workload has a *set-up* step (timed as ``setup_s``) and an
*operation* (timed as ``op_s``); every operation's outputs are checked
against an oracle computed from the generated inputs alone.
"""

from __future__ import annotations

import asyncio
import random
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Generator

import numpy as np

import repro
from repro.api.facade import Program, RunResult
from repro.bench.figure4 import Figure4Spec
from repro.core.coupler import RegionDef
from repro.data import schedule as schedule_module
from repro.data.decomposition import BlockDecomposition
from repro.faults import FaultPlan

#: REGL tolerance of every DES workload's connection (the paper's 2.5).
TOLERANCE = 2.5
#: Framework planes the chaos workloads' fault plan targets.
CHAOS_PLANES = frozenset({"cpl", "rep"})
#: Chaos-workload seeds (1000 exports) that abort when the fault plan
#: also targets the ctl plane: the importer waits for data pieces that
#: never come, whatever the retry budget.
CTL_PLANE_DEFECT = (104, 107, 118, 130, 135, 137, 141, 142, 147, 148, 157)


def regl_oracle(export_ts: list[float], request_ts: float, tol: float = TOLERANCE) -> float | None:
    """The REGL match of *request_ts*: the latest export in ``[t - tol, t]``.

    Written from the policy's definition, independently of the match
    engines under test.
    """
    best = None
    for ts in export_ts:
        if request_ts - tol <= ts <= request_ts and (best is None or ts > best):
            best = ts
    return best


# -- Figure-4 runs -----------------------------------------------------------


@dataclass
class DesInputs:
    """Everything one coupled DES run needs, generated from the seed."""

    config: str
    programs: list[Program]
    options: repro.RunOptions
    export_ts: list[float]
    request_ts: list[float]
    #: Importer rank -> ``[(request_ts, matched_ts, block_ok)]``, filled by the run.
    imports: dict[int, list[tuple[float, float | None, bool]]]
    f_procs: int
    u_procs: int
    slow_rank: int
    payload: bool
    #: Bytes of one importer rank's local block (for ``data.bytes_moved``).
    u_block_bytes: int


def _first_ts(seed: int) -> float:
    # Paper: 1.6.  A seeded offset in [1.0, 2.0) moves every match.
    return 1.0 + random.Random(seed).randrange(1000) / 1000.0


def fig4_inputs(seed: int, u_procs: int, exports: int) -> DesInputs:
    """Figure 4 with *u_procs* importer ranks, cost-only, fault-free."""
    spec = Figure4Spec(
        u_procs=u_procs, exports=exports, first_ts=_first_ts(seed), seed=seed
    )
    return _des_inputs(spec, seed=seed, payload=False, fault_plan=None)


def chaos_inputs(
    seed: int,
    exports: int,
    provenance: str | None = None,
    planes: frozenset[str] = CHAOS_PLANES,
) -> DesInputs:
    """F=4 (2x2) -> U=16 (16x1) over 256x256 float64 with real payloads."""
    spec = Figure4Spec(
        u_procs=16,
        exports=exports,
        first_ts=_first_ts(seed),
        seed=seed,
        global_shape=(256, 256),
    )
    # The ctl plane (rep -> exporter forwards, buddy-help) stays fault-free:
    # drops there hit a liveness defect on about one seed in five (see
    # CTL_PLANE_DEFECT and perfbench/README.md).
    plan = FaultPlan(
        seed=seed, drop=0.1, dup=0.05, delay_jitter=2e-4, reorder=0.1, planes=planes
    )
    return _des_inputs(spec, seed=seed, payload=True, fault_plan=plan, provenance=provenance)


def _des_inputs(
    spec: Figure4Spec,
    *,
    seed: int,
    payload: bool,
    fault_plan: FaultPlan | None,
    provenance: str | None = None,
) -> DesInputs:
    export_ts = [spec.first_ts + k * spec.export_dt for k in range(spec.exports)]
    request_ts = [spec.request_period * j for j in range(1, spec.n_requests + 1)]
    shape = spec.global_shape
    f_decomp = BlockDecomposition(shape, (2, 2) if spec.f_procs == 4 else (spec.f_procs, 1))
    u_decomp = BlockDecomposition(shape, (spec.u_procs, 1))
    field_ = (
        np.random.default_rng(seed).standard_normal(shape) if payload else None
    )
    imports: dict[int, list[tuple[float, float | None, bool]]] = {}
    slow_rank = spec.slow_rank
    f_elements = spec.f_elements()
    u_elements = spec.u_elements()

    def f_main(ctx: Any) -> Generator[Any, Any, None]:
        scale = spec.slow_factor if ctx.rank == slow_rank else 1.0
        block = None
        if field_ is not None:
            block = field_[ctx.local_region("f").to_slices()]
        for ts in export_ts:
            data = None if block is None else block + ts
            yield from ctx.export("f", ts, data)
            yield from ctx.compute_elements(f_elements, scale=scale)

    def u_main(ctx: Any) -> Generator[Any, Any, None]:
        got = imports.setdefault(ctx.rank, [])
        sl = ctx.local_region("f").to_slices()
        for t in request_ts:
            yield from ctx.compute_elements(u_elements, scale=spec.u_compute_scale)
            m, block = yield from ctx.import_("f", t)
            ok = True
            if field_ is not None and m is not None:
                ok = block is not None and bool(np.array_equal(block, field_[sl] + m))
            got.append((t, m, ok))

    config = (
        f"F cluster0 /bin/F {spec.f_procs}\n"
        f"U cluster1 /bin/U {spec.u_procs}\n"
        "#\n"
        f"F.f U.f REGL {spec.tolerance}\n"
    )
    programs = [
        Program("F", main=f_main, regions={"f": RegionDef(f_decomp)}),
        Program("U", main=u_main, regions={"f": RegionDef(u_decomp)}),
    ]
    options = repro.RunOptions(
        preset=spec.preset(),
        buddy_help=True,
        seed=seed,
        fault_plan=fault_plan,
        provenance=provenance,
    )
    u_block = u_decomp.local_region(0)
    return DesInputs(
        config=config,
        programs=programs,
        options=options,
        export_ts=export_ts,
        request_ts=request_ts,
        imports=imports,
        f_procs=spec.f_procs,
        u_procs=spec.u_procs,
        slow_rank=slow_rank,
        payload=payload,
        u_block_bytes=int(u_block.size) * 8,
    )


def des_setup(inputs: DesInputs) -> Any:
    """``build()`` + ``start()``: generated inputs to a run ready to go.

    The schedule cache is emptied first so every set-up pays the
    ``CommSchedule`` construction a fresh process would.
    """
    schedule_module._SCHEDULE_CACHE.clear()
    sim = repro.build(inputs.config, inputs.programs, inputs.options)
    sim.start()
    return sim


def check_des(inputs: DesInputs, result: RunResult) -> list[str]:
    """Output checks of one DES run; returns the problems found.

    The oracle is looked up at call time, so a test can substitute a
    wrong one and watch the check fail.
    """
    problems: list[str] = []
    expected = {t: regl_oracle(inputs.export_ts, t) for t in inputs.request_ts}
    n_u = inputs.u_procs
    if sorted(inputs.imports) != list(range(n_u)):
        problems.append(f"imports recorded for ranks {sorted(inputs.imports)}, want {n_u}")
    for rank, got in sorted(inputs.imports.items()):
        if [t for t, _m, _ok in got] != inputs.request_ts:
            problems.append(f"U.{rank}: imported {len(got)} of {len(inputs.request_ts)} requests")
            continue
        for t, m, ok in got:
            if m != expected[t]:
                problems.append(f"U.{rank}: request {t:g} matched {m}, oracle says {expected[t]}")
                break
            if not ok:
                problems.append(f"U.{rank}: block at {m:g} differs from the exporter's")
                break
    for rank in range(inputs.f_procs):
        decisions = result.context("F", rank).stats.decisions()
        if sum(decisions.values()) != len(inputs.export_ts):
            problems.append(f"F.{rank}: decisions {decisions} do not sum to the exports")
        stats = result.buffer_stats("F", rank, "f")
        ledger = sum(stats.t_by_window.values())
        if not np.isclose(stats.t_ub, ledger, rtol=1e-9, atol=1e-15):
            problems.append(f"F.{rank}: T_ub {stats.t_ub!r} != window ledger sum {ledger!r}")
    return problems


# -- served sessions -----------------------------------------------------------


#: Pool workers of the served workload's server: one per core.
SERVE_WORKERS = 2


@dataclass
class ServeHarness:
    """An in-process :class:`~repro.serve.SessionServer` on its own loop thread."""

    loop: asyncio.AbstractEventLoop = field(default_factory=asyncio.new_event_loop)
    thread: threading.Thread | None = None
    server: Any = None

    def start(self) -> str:
        """Start the loop and the server; returns the URL once it accepts."""
        from repro.serve import ServeConfig, SessionServer

        self.thread = threading.Thread(target=self.loop.run_forever, daemon=True)
        self.thread.start()

        async def _start() -> Any:
            server = SessionServer(ServeConfig(workers=SERVE_WORKERS, drain_timeout=30.0))
            await server.start()
            return server

        self.server = asyncio.run_coroutine_threadsafe(_start(), self.loop).result(60)
        return f"http://127.0.0.1:{self.server.port}"

    def stop(self) -> None:
        """Drain the server, join its pool and stop the loop thread."""
        try:
            if self.server is not None:
                asyncio.run_coroutine_threadsafe(
                    self.server.shutdown(drain=True), self.loop
                ).result(60)
        finally:
            self.loop.call_soon_threadsafe(self.loop.stop)
            if self.thread is not None:
                self.thread.join(60)
            self.loop.close()


def session_spec(seed: int, index: int) -> Any:
    """The ``demo`` session a client submits as its *index*-th request."""
    from repro.serve import SessionSpec

    rng = random.Random(seed * 100_003 + index)
    return SessionSpec(
        scenario="demo",
        params={"exports": 46, "seed": rng.randrange(1 << 30)},
        label=f"bench-{index}",
    )


def run_session(client: Any, spec: Any) -> tuple[dict[str, Any], dict[str, Any], float]:
    """Submit, wait for the end of the telemetry stream, fetch the report.

    Returns ``(info, report, latency_s)`` with the latency as the client
    sees it: submit to report fetched.
    """
    from repro.serve import TERMINAL_STATES

    t0 = time.perf_counter()
    sid = client.submit(spec)["id"]
    for _record in client.telemetry(sid):
        pass
    info = client.session(sid)
    if info.get("state") not in TERMINAL_STATES:
        info = client.wait(sid, timeout=60.0, poll=0.005)
    report = client.report(sid) if info.get("state") == "done" else {}
    return info, report, time.perf_counter() - t0


def check_session(info: dict[str, Any], report: dict[str, Any]) -> list[str]:
    """Output checks of one served session."""
    from repro.obs.export import validate_report_payload

    if info.get("state") != "done":
        return [f"session {info.get('id')} ended {info.get('state')!r}: {info.get('error')}"]
    return [f"session {info.get('id')}: {p}" for p in validate_report_payload(report)]
