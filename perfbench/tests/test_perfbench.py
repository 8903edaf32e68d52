"""Self-tests of the end-to-end benchmark.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
Every test shrinks the workloads (module constants of ``run.py``) so the
suite takes well under a minute on two cores.
"""

from __future__ import annotations

import cProfile
import gc
import json
import pstats
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import repro  # noqa: E402
from perfbench import layers, run, workloads  # noqa: E402
from repro.core.exceptions import FrameworkError  # noqa: E402
from repro.faults.plan import FRAMEWORK_PLANES  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def small(monkeypatch: pytest.MonkeyPatch) -> None:
    monkeypatch.setattr(run, "FIG4_EXPORTS", 161)
    monkeypatch.setattr(run, "CHAOS_EXPORTS", 81)
    monkeypatch.setattr(run, "SETUPS_PER_OP", 2)
    monkeypatch.setattr(run, "ROUND_SESSIONS", 4)


def _main(capsys: pytest.CaptureFixture[str], *args: str) -> tuple[int, str, dict]:
    code = run.main(list(args))
    out = capsys.readouterr().out
    return code, out, json.loads(out.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_short_run_prints_every_metric(
    small: None, capsys: pytest.CaptureFixture[str], workload: str, trace: str
) -> None:
    code, out, result = _main(
        capsys, "--workload", workload, "--seed", "5", "--seconds", "0", "--trace", trace
    )
    assert code == 0, out
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    listed = BENCHMARK["end_to_end" if trace == "0" else "per_layer"]
    assert set(result["metrics"]) == {m["name"] for m in listed}
    for m in listed:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert f"\n{m['name']} " in "\n" + out  # the human-readable line
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_wrong_oracle_fails_the_output_check(
    small: None, capsys: pytest.CaptureFixture[str], monkeypatch: pytest.MonkeyPatch
) -> None:
    right = workloads.regl_oracle

    def one_export_early(export_ts: list[float], request_ts: float) -> float | None:
        m = right(export_ts, request_ts)
        return None if m is None else m - 1.0

    monkeypatch.setattr(workloads, "regl_oracle", one_export_early)
    code, _out, result = _main(
        capsys, "--workload", "fig4-catchup", "--seed", "5", "--seconds", "0", "--trace", "0"
    )
    assert code != 0
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 1


def test_oracle_agrees_with_the_policy_definition() -> None:
    exports = [1.6 + k for k in range(30)]
    assert workloads.regl_oracle(exports, 20.0) == pytest.approx(19.6)
    assert workloads.regl_oracle(exports, 0.5) is None


def test_exits_nonzero_without_the_program(tmp_path: Path) -> None:
    shutil.copytree(
        ROOT / "perfbench",
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fig4-catchup", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.xfail(
    strict=True,
    raises=FrameworkError,
    reason="liveness defect: with drops on the ctl plane an importer can wait "
    "forever for data pieces (see perfbench/README.md); when this passes, put "
    "the ctl plane back into workloads.CHAOS_PLANES",
)
def test_chaos_run_with_ctl_plane_faults_completes() -> None:
    seed = workloads.CTL_PLANE_DEFECT[0]
    inputs = workloads.chaos_inputs(seed, 1000, planes=FRAMEWORK_PLANES)
    repro.run(inputs.config, inputs.programs, inputs.options)


def _shares(
    op: Any, together: bool, repeats: int
) -> tuple[dict[str, tuple[float, float]], dict[str, int], float]:
    """Each entry point's inclusive share of *repeats* runs of *op*,
    traced and cProfiled.

    Returns ``({entry point: (traced share, cProfile share)}, {entry
    point: profiled calls}, traced wall seconds)``.  Every
    entry point gets its own span name here, so that each is compared
    with exactly one function's cumulative time (a layer's entry points
    can call each other, e.g. the legacy ``evaluate_batch`` calls
    ``evaluate``).  With *together* the wrappers and cProfile time the
    same runs; otherwise each times runs of its own.
    """
    points = [
        (owner, attr, f"{getattr(owner, '__name__', owner)}.{attr}", before, after)
        for owner, attr, _layer, before, after in layers.entry_points()
    ]
    tracer = layers.LayerTracer()
    tracer.op = 1
    profiler = cProfile.Profile()

    def timed(traced: bool, profiled: bool) -> float:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(layers, "entry_points", lambda: points)
            if traced:
                tracer.install()
            try:
                if profiled:
                    profiler.enable()
                t0 = time.perf_counter()
                for _ in range(repeats):
                    op()
                return time.perf_counter() - t0
            finally:
                profiler.disable()
                tracer.uninstall()

    op()  # warm imports and caches
    # Collector pauses land in whichever span allocates when they strike,
    # and the heap the earlier tests left behind makes them long: keep
    # them out of both measurements.
    gc.collect()
    gc.disable()
    try:
        traced_wall = timed(traced=True, profiled=together)
        profiled_wall = traced_wall if together else timed(traced=False, profiled=True)
    finally:
        gc.enable()
    assert abs(traced_wall - sum(tracer.self_times(1).values())) <= (
        run.COVERAGE_TOLERANCE * traced_wall
    )
    traced = tracer.inclusive_times(1)
    stats = pstats.Stats(profiler).stats  # type: ignore[attr-defined]
    out: dict[str, tuple[float, float]] = {}
    calls: dict[str, int] = {}
    for owner, attr, name, _before, _after in points:
        raw = owner.__dict__[attr]
        code = getattr(raw, "__func__", raw).__code__
        entry = stats.get((code.co_filename, code.co_firstlineno, code.co_name))
        cumulative = 0.0
        calls[name] = 0
        if entry is not None:
            # Count only the calls the wrappers see: those through the
            # wrapper when both run together, and otherwise, for a name
            # patched on a module, those from that module's own code
            # (``causal_payload`` is also called, unwrapped, from
            # ``repro.obs.prov``).
            caller_file = layers.__file__ if together else getattr(owner, "__file__", None)
            seen = [v for c, v in entry[4].items() if caller_file in (None, c[0])]
            cumulative = sum(v[3] for v in seen)
            calls[name] = sum(v[0] for v in seen)
        out[name] = (traced.get(name, 0.0) / traced_wall, cumulative / profiled_wall)
    return out, calls, traced_wall


def _fig4_op(u_procs: int) -> Any:
    inputs = workloads.fig4_inputs(7, u_procs, 801)

    def op() -> None:
        repro.run(inputs.config, inputs.programs, inputs.options)

    return op


def _chaos_op(tmp_path: Path) -> Any:
    wl = run.ChaosWorkload()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(run, "OUT_DIR", tmp_path)
        mp.setattr(run, "CHAOS_EXPORTS", 161)
        wl.prepare(7)

    def op() -> None:
        bench = run.Run()
        wl.op(bench, counts=False)
        assert bench.failed == 0, bench.problems

    return op


#: Per workload: whether the wrappers and cProfile time the same runs,
#: the tolerance ``(REL, ABS, PER_CALL)`` and the layers that must be
#: visible.  Shares ``a`` (traced) and ``b`` (cProfile) of an entry point
#: called ``n`` times in a traced wall time ``w`` must satisfy
#: ``|a - b| <= REL * max(a, b) + ABS + n * PER_CALL / w``.
#:
#: On the Figure-4 workloads each method times runs of its own, so the
#: check also covers what each method's own cost does to the split.
#: cProfile charges every Python call and the wrappers only the wrapped
#: ones, so the shares differ by more than timing noise (up to a quarter
#: of ``on_export``'s share measured).  A wrapper costs about a
#: microsecond a call, which lands in the enclosing span: the legacy
#: ``evaluate_batch`` calls the wrapped ``evaluate`` once per request and
#: reads twice its cProfile share.  Half a percentage point absorbs the
#: rest on the small layers; a layer of one percent or more still fails
#: with a share of 0 or three times too large.
#:
#: On ``chaos-payload`` both time the same runs: in a profiled run of
#: their own, cProfile's per-call cost makes the call-dense causal-report
#: and payload builders of the obs layer look two to four times as large.
#: There the check is of attribution: a span also holds the profiler's
#: hooks for the call it wraps (1.5-2.5 us a call measured), which
#: PER_CALL allows for, and the tolerance is otherwise tight enough to
#: check the api and rep layers, which stay below one percent of any
#: workload.
CASES = {
    "fig4-catchup": (
        False, (0.3, 0.005, 1e-6), ("des", "exporter", "match", "wire", "data")
    ),
    "fig4-buffer-all": (
        False, (0.3, 0.005, 1e-6), ("des", "exporter", "buffers", "wire")
    ),
    "chaos-payload": (
        True,
        (0.05, 0.001, 3e-6),
        ("des", "api", "exporter", "buffers", "match", "rep", "wire", "data", "obs"),
    ),
}


@pytest.mark.parametrize("workload", sorted(CASES))
def test_traced_split_agrees_with_cprofile(workload: str, tmp_path: Path) -> None:
    """The independent check of the layer timing: cProfile's cumulative
    time of each entry point, as a share of the operation, against the
    traced inclusive time of the same entry point (tolerance at
    ``CASES``).  The sampling profiler's phase attribution was off by 45
    points on the match layer."""
    together, (rel, abs_, per_call), visible_layers = CASES[workload]
    if workload == "chaos-payload":
        shares, calls, wall = _shares(_chaos_op(tmp_path), together, repeats=1)
    else:
        u_procs = 16 if workload == "fig4-catchup" else 4
        shares, calls, wall = _shares(_fig4_op(u_procs), together, repeats=3)
    disagree = {
        name: (round(traced, 4), round(profiled, 4), calls[name])
        for name, (traced, profiled) in shares.items()
        if abs(traced - profiled)
        > rel * max(traced, profiled) + abs_ + calls[name] * per_call / wall
    }
    assert not disagree, disagree
    # A layer is checked where a traced share of 0 would fail.
    layer_share: dict[str, float] = {}
    for owner, attr, layer, _before, _after in layers.entry_points():
        name = f"{getattr(owner, '__name__', owner)}.{attr}"
        key = layer.split(".")[0]
        layer_share[key] = layer_share.get(key, 0.0) + min(shares[name])
    visible = {key for key, share in layer_share.items() if share > 2 * abs_}
    assert set(visible_layers) <= visible, layer_share
