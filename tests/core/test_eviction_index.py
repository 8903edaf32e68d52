"""Incremental eviction vs. the from-scratch reference rule.

``RegionExportState.collect_evictions`` frees through the buffer's
sorted timestamp index and each connection's ``protects`` test; the
rule it must reproduce is the original set-based one, recomputed here
from ``keep_set()`` on every event.  The differential runs cover a
fault-free Figure-4 run, a seeded chaos run in relaxed order (re-asks
and buddy answers) and a short live-runtime run.  The bounded-state
test pins that the protected state does not grow with run length.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Callable, Generator

import pytest

import repro
from repro import Program, RunOptions
from repro.bench.figure4 import Figure4Spec, build_figure4_simulation
from repro.core.coupler import ProcessContext, RegionDef
from repro.core.exporter import RegionExportState
from repro.data.decomposition import BlockDecomposition
from repro.faults import FaultPlan


def reference_evictions(region: RegionExportState) -> list[float]:
    """The original rule: union of keep-sets minus sent entries, below
    the eviction threshold."""
    keep: set[float] = set()
    for conn in region.connections.values():
        keep |= conn.keep_set()
    buf = region.buffer
    keep = {ts for ts in keep if not (buf.has(ts) and buf.get(ts).sent)}
    threshold = region.evict_threshold()
    return [ts for ts in buf.timestamps() if ts < threshold and ts not in keep]


class DifferentialMonitor:
    """Wraps the exporter's event methods and checks, after each call,
    that ``protects`` agrees with ``keep_set`` on every buffered object
    and that eviction frees exactly what the reference rule would.

    Mismatches are collected rather than raised, so a live-runtime
    agent thread cannot swallow them.
    """

    EVENTS = ("on_export", "on_request", "on_buddy_answer", "close")

    def __init__(self, monkeypatch: pytest.MonkeyPatch) -> None:
        self.problems: list[str] = []
        self.calls: Counter[str] = Counter()
        self.reasks = 0
        self.freed = 0
        for name in self.EVENTS:
            monkeypatch.setattr(
                RegionExportState, name, self._after(getattr(RegionExportState, name))
            )
        evict = RegionExportState.collect_evictions

        def collect_evictions(region: RegionExportState) -> Any:
            expected = reference_evictions(region)
            freed = evict(region)
            self.calls["collect_evictions"] += 1
            self.freed += len(freed)
            got = [e.ts for e in freed]
            if got != expected:
                self.problems.append(f"evicted {got}, reference rule {expected}")
            self._check(region)
            return freed

        monkeypatch.setattr(RegionExportState, "collect_evictions", collect_evictions)

    def _after(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        def wrapper(region: RegionExportState, *args: Any, **kwargs: Any) -> Any:
            out = fn(region, *args, **kwargs)
            self.calls[fn.__name__] += 1
            if fn.__name__ == "on_request" and out.window < 0:
                self.reasks += 1
            self._check(region)
            return out

        return wrapper

    def _check(self, region: RegionExportState) -> None:
        for cid, conn in region.connections.items():
            keep = conn.keep_set()
            for ts in region.buffer.timestamps():
                if conn.protects(ts) != (ts in keep):
                    self.problems.append(
                        f"{cid}: protects({ts}) = {conn.protects(ts)}, "
                        f"keep_set says {ts in keep}"
                    )


def _two_program_config(f_procs: int, u_procs: int) -> str:
    return (
        f"F c0 /bin/F {f_procs}\n"
        f"U c1 /bin/U {u_procs}\n"
        "#\n"
        "F.f U.f REGL 2.5\n"
    )


def _regions(shape: tuple[int, int], grid: tuple[int, int]) -> dict[str, RegionDef]:
    return {"f": RegionDef(BlockDecomposition(shape, grid))}


class TestDifferential:
    def test_fault_free_figure4_run(self, monkeypatch):
        mon = DifferentialMonitor(monkeypatch)
        cs = build_figure4_simulation(Figure4Spec(u_procs=16, exports=401), seed=5)
        cs.run()
        assert not mon.problems, mon.problems[:5]
        assert mon.calls["on_buddy_answer"] > 0
        assert mon.freed > 0

    def test_seeded_chaos_run_in_relaxed_order(self, monkeypatch):
        mon = DifferentialMonitor(monkeypatch)
        shape = (16, 16)
        exports = [1.3 + k for k in range(160)]
        requests = [10.0 * j for j in range(1, 16)]

        def f_main(ctx: ProcessContext) -> Generator[Any, Any, None]:
            # The last rank is the slow one: buddy-help reaches it.
            step = 4e-3 if ctx.rank == 3 else 1e-3
            for ts in exports:
                yield from ctx.export("f", ts)
                yield from ctx.compute(step)

        def u_main(ctx: ProcessContext) -> Generator[Any, Any, None]:
            for t in requests:
                yield from ctx.compute(1.2e-2)
                yield from ctx.import_("f", t)

        plan = FaultPlan(seed=17, drop=0.15, dup=0.1, delay_jitter=2e-4, reorder=0.1)
        result = repro.run(
            _two_program_config(4, 4),
            [
                Program("F", main=f_main, regions=_regions(shape, (4, 1))),
                Program("U", main=u_main, regions=_regions(shape, (1, 4))),
            ],
            RunOptions(seed=3, fault_plan=plan),
        )
        assert result.sim_time > 0.0
        assert not mon.problems, mon.problems[:5]
        assert mon.reasks > 0, "no re-ask reached an exporter"
        assert mon.calls["on_buddy_answer"] > 0
        assert mon.freed > 0

    def test_short_live_runtime_run(self, monkeypatch):
        mon = DifferentialMonitor(monkeypatch)
        shape = (8, 8)

        def f_main(ctx: Any) -> None:
            for k in range(40):
                ctx.export("f", 1.5 + k)
                ctx.compute(1e-3)

        def u_main(ctx: Any) -> None:
            for j in range(1, 8):
                ctx.compute(2e-3)
                ctx.import_("f", 5.0 * j)

        repro.run(
            _two_program_config(2, 2),
            [
                Program("F", main=f_main, regions=_regions(shape, (2, 1))),
                Program("U", main=u_main, regions=_regions(shape, (1, 2))),
            ],
            RunOptions(runtime="live", time_scale=0.01),
        )
        assert not mon.problems, mon.problems[:5]
        assert mon.calls["on_export"] == 80
        assert mon.freed > 0


def _peaks(exports: int, monkeypatch: pytest.MonkeyPatch) -> list[tuple[int, ...]]:
    """Per F rank of a U=16 Figure-4 run: the largest matched-set size,
    index length and count of entries left below the eviction line,
    each sampled after every eviction."""
    peaks: dict[int, list[int]] = {}
    evict = RegionExportState.collect_evictions

    def collect_evictions(region: RegionExportState) -> Any:
        freed = evict(region)
        peak = peaks.setdefault(id(region), [0, 0, 0])
        sizes = (
            max(len(c.matched) for c in region.connections.values()),
            len(region.buffer.timestamps()),
            len(region.buffer.entries_below(region.evict_threshold())),
        )
        peaks[id(region)] = [max(a, b) for a, b in zip(peak, sizes)]
        return freed

    spec = Figure4Spec(u_procs=16, exports=exports)
    with monkeypatch.context() as mp:
        mp.setattr(RegionExportState, "collect_evictions", collect_evictions)
        cs = build_figure4_simulation(spec, seed=11)
        cs.run()
    return [
        tuple(peaks[id(cs.context("F", r).export_states["f"])])
        for r in range(spec.f_procs)
    ]


def test_protected_state_is_bounded_in_run_length(monkeypatch):
    """The matched sets and the protected residue below the eviction
    line do not grow with the run, on any rank; nor does ``p_s``'s
    index.  The fast ranks' index does grow: they run ahead of the
    slower importer, and every object above the line may still be
    requested (the paper's Figure 3, importer slower)."""
    short = _peaks(1001, monkeypatch)
    long = _peaks(4001, monkeypatch)
    slow = Figure4Spec().slow_rank
    for r, (a, b) in enumerate(zip(short, long)):
        assert (a[0], a[2]) == (b[0], b[2]), (r, a, b)
    assert short[slow] == long[slow]
    assert short[slow][0] >= 1 and short[slow][1] >= 1
