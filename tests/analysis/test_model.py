"""Tests for the control-plane model checker (``repro.analysis.model``).

The acceptance bar: exhaustively explore a bounded 2-program ×
2-process configuration through the *real* importer/exporter/rep/wire
implementations, visiting at least 10^4 distinct states, with zero
findings on the unmutated protocol.
"""

import dataclasses

import pytest

from repro.analysis.model import (
    SCHEMA,
    ModelConfig,
    check,
    check_suite,
    directed_worlds,
    plane_of_channel,
)

#: 2-program × 2-process world, faults directed at the rep plane only
#: (clean + drop-rep worlds; ~16k summed distinct states in a few
#: seconds — the full default suite is exercised by ``repro verify``).
FAST_BASE = ModelConfig(dup_budget=0, crash_budget=0, fault_planes=("rep",))

#: Minimal world for the POR-equality checks.
TINY = ModelConfig(
    requests=(2.0,),
    exports=(1.5,),
    drop_budget=0,
    dup_budget=0,
    crash_budget=0,
    retransmit_budget=0,
)


@pytest.fixture(scope="module")
def fast_suite():
    return check_suite(FAST_BASE)


class TestExhaustiveExploration:
    def test_clean_protocol_has_zero_findings(self, fast_suite):
        assert fast_suite.clean
        assert fast_suite.report.findings == []
        assert fast_suite.counterexamples == []

    def test_exploration_is_exhaustive_and_large(self, fast_suite):
        assert fast_suite.complete  # no world hit the state cap
        assert fast_suite.total_states >= 10_000
        for _name, result in fast_suite.worlds:
            assert result.stats["complete"]
            assert result.stats["states"] > 0
            assert result.stats["transitions"] >= result.stats["states"] - 1

    def test_world_shape_is_two_by_two(self):
        assert FAST_BASE.nimp == 2 and FAST_BASE.nexp == 2
        worlds = dict(directed_worlds(FAST_BASE))
        assert set(worlds) == {"clean", "drop-rep"}
        assert worlds["clean"].drop_budget == 0
        assert worlds["drop-rep"].drop_budget == 1

    def test_payload_schema(self, fast_suite):
        payload = fast_suite.to_payload()
        assert payload["schema"] == SCHEMA
        assert payload["mode"] == "model-suite"
        assert payload["stats"]["states"] == fast_suite.total_states
        assert payload["stats"]["complete"] is True
        assert [w["name"] for w in payload["worlds"]] == ["clean", "drop-rep"]
        # The state count the CLI reports is the one the acceptance
        # criterion quotes: distinct states actually visited.
        assert payload["stats"]["states"] >= 10_000


class TestPartialOrderReduction:
    def test_por_visits_every_reachable_state(self):
        """Sleep sets prune transitions, never states."""
        with_por = check(TINY, por=True)
        without = check(TINY, por=False)
        assert with_por.stats["states"] == without.stats["states"]
        assert with_por.stats["terminals"] == without.stats["terminals"]
        assert with_por.stats["transitions"] <= without.stats["transitions"]
        assert with_por.stats["sleep_skips"] > 0

    def test_truncated_run_is_flagged(self):
        result = check(TINY, max_states=10)
        assert not result.stats["complete"]
        assert result.stats["states"] == 10


class TestConfigValidation:
    def test_planes_are_validated(self):
        with pytest.raises(Exception, match="fault plane"):
            ModelConfig(fault_planes=("bogus",))

    def test_strict_mode_rejects_drops(self):
        with pytest.raises(Exception):
            ModelConfig(mode="strict", drop_budget=1)

    def test_describe_round_trips_planes(self):
        cfg = dataclasses.replace(FAST_BASE, fault_planes=("cpl",))
        assert tuple(cfg.describe()["fault_planes"]) == ("cpl",)

    def test_plane_of_channel(self):
        assert plane_of_channel("I0", "IR") == "cpl"
        assert plane_of_channel("IR", "ER") == "rep"
        assert plane_of_channel("ER", "E1") == "ctl"


class TestCloneIsolation:
    """``clone_working`` copies the exporter's derived indexes (the
    buffer's timestamp index, each connection's matched set), so a
    child state never mutates its parent's."""

    @staticmethod
    def _parent():
        from repro.analysis.model import ModelMachine
        from repro.match.result import FinalAnswer, MatchKind

        machine = ModelMachine(ModelConfig())
        w = machine.initial_working()
        region = w.exp[0].region
        region.on_export(1.5, 8, 1.0)
        region.on_export(2.5, 8, 1.0)
        region.on_buddy_answer(
            machine.cid,
            FinalAnswer(request_ts=2.0, kind=MatchKind.MATCH, matched_ts=1.5),
        )
        return machine, w

    def test_mutating_a_clone_leaves_the_parent_index_alone(self):
        from repro.analysis.model.machine import clone_working
        from repro.match.result import FinalAnswer, MatchKind

        machine, parent = self._parent()
        before = machine.encode(parent)
        region = parent.exp[0].region
        conn = region.connections[machine.cid]
        assert region.buffer.timestamps() == [1.5, 2.5]
        assert conn.matched == {1.5}

        child = clone_working(parent)
        c_region = child.exp[0].region
        c_conn = c_region.connections[machine.cid]
        c_region.buffer.buffer(0.5, 8, 1.0)  # out of order: insort
        c_region.buffer.free(2.5)
        c_region.buffer.free_below(1.0)
        c_conn.apply_answer(
            FinalAnswer(request_ts=4.0, kind=MatchKind.MATCH, matched_ts=2.5), "buddy"
        )
        c_conn.matched.discard(1.5)

        assert region.buffer.timestamps() == [1.5, 2.5]
        assert [region.buffer.get(ts).ts for ts in region.buffer.timestamps()] == [1.5, 2.5]
        assert conn.matched == {1.5}
        assert sorted(conn.answers) == [2.0]
        assert machine.encode(parent) == before
        assert c_region.buffer.timestamps() == [1.5]
        assert c_conn.matched == {2.5}

    def test_decode_rebuilds_the_derived_indexes(self):
        machine, parent = self._parent()
        decoded = machine.decode(machine.encode(parent))
        region = decoded.exp[0].region
        assert region.buffer.timestamps() == [1.5, 2.5]
        assert region.connections[machine.cid].matched == {1.5}
        assert machine.encode(decoded) == machine.encode(parent)
