"""The fabric's failure paths: misuse, a misbehaving cell, broken invariants.

A misbehaving cell is a ``cell_main`` stand-in (``scripted_cell``)
forked by the real broker over a real pipe, so the broker's own checks
are what reject it.  ``_enforce_invariants`` is driven on hand-built
run results, with no process at all.
"""

import dataclasses
import multiprocessing

import pytest

import repro.fabric.broker as broker_module
import repro.fabric.driver as driver_module
import repro.fabric.partition as partition_module
from repro.cli import main
from repro.fabric.broker import FabricBroker, FabricError
from repro.fabric.cell import CellWorker
from repro.fabric.driver import (
    TOTALS,
    ChaosSchedule,
    FabricConfig,
    FabricRunResult,
    _enforce_invariants,
    run_fabric,
)
from repro.fabric.messages import FabricRequest, RoundWork, Shutdown, SnapshotRequest
from repro.fabric.partition import FabricPartition
from repro.service.invariants import InvariantError


def one_cell():
    return FabricBroker(FabricPartition("omega", 8, 1), spill_after=4)


def scripted_cell(on_round=CellWorker.run_round, on_snapshot=CellWorker.snapshot_reply):
    """A ``cell_main`` whose reply to round work is ``on_round(worker,
    work)`` and to a snapshot request ``on_snapshot(worker)``; a reply
    of ``None`` ends the cell unanswered."""

    def main(conn, spec):
        worker = CellWorker(spec)
        try:
            while not isinstance(message := conn.recv(), Shutdown):
                if isinstance(message, SnapshotRequest):
                    reply = on_snapshot(worker)
                else:
                    reply = on_round(worker, message)
                if reply is None:
                    return
                conn.send(reply)
        finally:
            conn.close()

    return main


def silent_until(gone):
    """A reply that never comes: the cell waits for the test to set ``gone``."""
    return lambda worker, *message: gone.wait(30) and None


ONE_GRANT = [FabricRequest(req_id=1, cell=0, processor=0, hold_ticks=1, origin_cell=0)]


class TestCellSettingsAreCheckedInTheParent:
    @pytest.mark.parametrize(
        "setting, complaint",
        [({"queue_limit": 0}, "queue_limit must be >= 1"), ({"spill_after": 0}, "timeout must be")],
    )
    def test_a_setting_the_cell_service_refuses_raises_before_any_fork(self, setting, complaint):
        """``queue_limit=0`` used to pass the spec, kill every cell in
        ``CellWorker.__init__`` and surface only as a death per round."""
        broker = FabricBroker(FabricPartition("omega", 8, 2), **setting)
        with pytest.raises(ValueError, match=complaint):
            with broker:
                pass
        assert broker.live_cells == []


class TestBrokerMisuse:
    def test_before_start(self):
        broker = one_cell()
        with pytest.raises(FabricError, match="fabric not running"):
            broker.run_round([], ticks=1)
        with pytest.raises(FabricError, match="fabric not started"):
            broker.kill_cell(0)

    def test_while_running_and_after_close(self):
        with one_cell() as broker:
            with pytest.raises(FabricError, match="already started"):
                broker.start()
            with pytest.raises(FabricError, match="no cell 1"):
                broker.rejoin_cell(1)
        with pytest.raises(FabricError, match="fabric not running"):
            broker.run_round([], ticks=1)

    def test_round_work_needs_a_tick(self):
        with pytest.raises(ValueError, match="ticks must be >= 1"):
            RoundWork(round_no=1, ticks=0)


class TestMisbehavingCell:
    @pytest.mark.parametrize(
        "answer, error, complaint",
        [
            (lambda worker, work: "garbage", FabricError, "sent str, expected RoundResult"),
            (
                lambda worker, work: dataclasses.replace(worker.run_round(work), round_no=7),
                FabricError,
                "answered round 7 during round 1",
            ),
            (
                lambda worker, work: dataclasses.replace(
                    result := worker.run_round(work), granted=result.granted * 2
                ),
                InvariantError,
                "duplicate lease name",
            ),
        ],
        ids=["wrong-type", "wrong-round", "duplicate-grant"],
    )
    def test_a_bad_round_reply_raises(self, monkeypatch, answer, error, complaint):
        monkeypatch.setattr(broker_module, "cell_main", scripted_cell(on_round=answer))
        with one_cell() as broker:
            with pytest.raises(error, match=complaint):
                broker.run_round(ONE_GRANT, ticks=2)

    def test_a_bad_snapshot_reply_raises(self, monkeypatch):
        monkeypatch.setattr(broker_module, "cell_main", scripted_cell(on_snapshot=lambda worker: "garbage"))
        with one_cell() as broker:
            with pytest.raises(FabricError, match="sent str, expected SnapshotReply"):
                broker.snapshot()

    def test_a_silent_cell_is_declared_dead(self, monkeypatch):
        gone = multiprocessing.get_context("fork").Event()
        monkeypatch.setattr(broker_module, "ROUND_TIMEOUT_S", 0.1)
        monkeypatch.setattr(broker_module, "cell_main", scripted_cell(on_round=silent_until(gone)))
        with one_cell() as broker:
            outcome = broker.run_round(ONE_GRANT, ticks=2)
            gone.set()
        assert outcome.deaths == (0,) and outcome.escalated == 1
        assert broker.events[-1]["reason"] == "recv-failed"

    def test_a_cell_silent_on_snapshot_is_declared_dead(self, monkeypatch):
        gone = multiprocessing.get_context("fork").Event()
        monkeypatch.setattr(broker_module, "ROUND_TIMEOUT_S", 0.1)
        monkeypatch.setattr(broker_module, "cell_main", scripted_cell(on_snapshot=silent_until(gone)))
        with one_cell() as broker:
            broker.run_round([], ticks=1)
            broker.snapshot()
            gone.set()
            assert broker.live_cells == []
        assert broker.events[-1]["reason"] == "snapshot-failed"

    def test_the_cli_reports_a_broken_protocol_in_one_line(self, monkeypatch):
        monkeypatch.setattr(broker_module, "cell_main", scripted_cell(on_round=lambda worker, work: "garbage"))
        with pytest.raises(SystemExit, match="error: fabric failed: cell 0 sent str"):
            main(["fabric-serve", "--cells", "2", "--ports", "8", "--rounds", "1"])


class TestRunFabricChecks:
    @pytest.mark.parametrize(
        "field, value, complaint",
        [
            ("rounds", 0, "rounds must be >= 1"),
            ("ticks_per_round", 0, "ticks_per_round must be >= 1"),
            ("max_hold", 0, "max_hold must be >= 1"),
            ("queue_limit", -1, "queue_limit must be >= 0"),
        ],
    )
    def test_config_fields(self, field, value, complaint):
        with pytest.raises(ValueError, match=complaint):
            FabricConfig(**{field: value})

    @pytest.mark.parametrize(
        "kill_round, rejoin_round, complaint",
        [(0, None, "kill_round must be >= 1"), (5, 5, "rejoin_round 5 must come after kill_round 5")],
    )
    def test_chaos_schedule_fields(self, kill_round, rejoin_round, complaint):
        with pytest.raises(ValueError, match=complaint):
            ChaosSchedule(kill_round=kill_round, rejoin_round=rejoin_round)

    def test_a_cell_id_collision_is_refused(self, monkeypatch):
        monkeypatch.setattr(partition_module, "label_tag", lambda label: "0badc0de")
        with pytest.raises(ValueError, match="cell_id collision across 2 cells"):
            FabricPartition("omega", 8, 2)

    def test_a_fabric_that_does_not_drain_is_an_invariant_error(self, monkeypatch):
        monkeypatch.setattr(driver_module, "MAX_DRAIN_ROUNDS", 0)
        with pytest.raises(InvariantError, match="failed to drain within 0 rounds"):
            run_fabric(FabricConfig(ports=8, cells=1, rounds=1))


def chaos_result(**totals):
    """A consistent result of a run that killed cell ``c1`` at round 2
    and rejoined it at round 4, with ``totals`` overriding its counts."""
    counts = dict.fromkeys(TOTALS, 0)
    counts.update(
        offered=10, allocated=8, spill_failed=2, released=7, revoked_on_death=1,
        escalated=3, cells_killed=1, cells_rejoined=1,
    )
    counts.update(totals)
    return FabricRunResult(
        config=FabricConfig(ports=8, cells=2),
        totals=counts,
        per_round_granted=(2, 2, 2, 2),
        events=[{"event": "cell-death", "reason": "killed", "cell_id": "c1", "revoked": ["c1:5"]}],
        snapshot={"cells": {"c0": {"allocated": 8, "released": 7, "revoked": 1}}},
        rounds_run=4,
        drain_rounds=1,
        wall_s=0.1,
        revoked_lease_ids=("c1:5",),
        chaos=ChaosSchedule(cell=1, kill_round=2, rejoin_round=4),
    )


class TestEnforceInvariants:
    def test_the_consistent_result_passes(self):
        _enforce_invariants(chaos_result(), registry_size=0)

    @pytest.mark.parametrize(
        "result, registry_size, complaint",
        [
            (chaos_result(spill_failed=1), 0, "request conservation violated"),
            (chaos_result(), 1, "lease leak: 1 leases still in custody"),
            (chaos_result(released=8), 0, "lease conservation violated"),
            (
                dataclasses.replace(
                    chaos_result(),
                    snapshot={"cells": {"c0": {"allocated": 8, "released": 6, "revoked": 1}}},
                ),
                0,
                "cell c0 leaked 1 leases",
            ),
            (
                dataclasses.replace(chaos_result(), events=chaos_result().events * 2),
                0,
                "expected exactly one scheduled kill, saw 2",
            ),
            (
                dataclasses.replace(chaos_result(), revoked_lease_ids=("c1:5", "c0:3")),
                0,
                "revocation bled outside the killed cell",
            ),
            (chaos_result(revoked_on_death=2, released=6), 0, "revocation accounting mismatch"),
            (
                dataclasses.replace(chaos_result(), per_round_granted=(2, 0, 0, 0)),
                0,
                "stopped granting during the outage",
            ),
            (chaos_result(escalated=0), 0, "stranded no work"),
            (chaos_result(cells_rejoined=0), 0, "scheduled rejoin did not happen"),
        ],
    )
    def test_each_broken_invariant_raises(self, result, registry_size, complaint):
        with pytest.raises(InvariantError, match=complaint):
            _enforce_invariants(result, registry_size)
