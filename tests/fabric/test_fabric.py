"""End-to-end fabric tests: cell worker, broker rounds, chaos, merge.

The broker/driver tests spawn real cell processes (2-4 small cells,
seconds of work); the cell-worker tests drive the worker in-process
for exact control.
"""

import pytest

from repro.fabric.broker import FabricBroker, FabricError, LEASE_EPOCH_STRIDE
from repro.fabric.driver import ChaosSchedule, FabricConfig, run_fabric
from repro.fabric.messages import CellSpec, FabricRequest, RoundWork
from repro.fabric.cell import CellWorker
from repro.fabric.partition import FabricPartition
from repro.service.metrics import TICK_PHASES


def make_spec(**overrides):
    base = dict(
        index=0,
        cell_id="cell0tag",
        topology="omega",
        ports=8,
        queue_limit=32,
        spill_after=4,
        lease_base=0,
    )
    base.update(overrides)
    return CellSpec(**base)


def arrivals_for(cell, reqs):
    """Build FabricRequests: reqs is a list of (req_id, port, hold)."""
    return tuple(
        FabricRequest(
            req_id=req_id,
            cell=cell,
            processor=port,
            hold_ticks=hold,
            origin_cell=cell,
        )
        for req_id, port, hold in reqs
    )


class TestCellWorker:
    def test_round_grants_and_releases(self):
        worker = CellWorker(make_spec())
        work = RoundWork(
            round_no=1,
            ticks=8,
            arrivals=arrivals_for(0, [(1, 0, 2), (2, 3, 1)]),
        )
        result = worker.run_round(work)
        assert result.round_no == 1
        assert {g.req_id for g in result.granted} == {1, 2}
        assert all(g.lease_id.startswith("cell0tag:") for g in result.granted)
        assert len(result.released) == 2
        assert result.active_leases == 0
        assert result.queue_depth == 0
        assert result.unplaced == ()

    def test_lease_base_offsets_names(self):
        """A rejoined cell's epoch keeps names disjoint from epoch 0."""
        worker = CellWorker(make_spec(lease_base=LEASE_EPOCH_STRIDE))
        work = RoundWork(round_no=1, ticks=4, arrivals=arrivals_for(0, [(9, 2, 1)]))
        result = worker.run_round(work)
        (grant,) = result.granted
        local = int(grant.lease_id.split(":", 1)[1])
        assert local >= LEASE_EPOCH_STRIDE

    def test_overload_times_out_into_unplaced(self):
        """More requests on one port than ticks can serve: the excess
        escalates as timeouts after spill_after ticks, never vanishes."""
        worker = CellWorker(make_spec(ports=8, spill_after=2))
        # 20 requests all needing resources through the full network,
        # holds long enough that capacity runs out.
        work = RoundWork(
            round_no=1,
            ticks=6,
            arrivals=arrivals_for(0, [(i, i % 8, 6) for i in range(20)]),
        )
        result = worker.run_round(work)
        settled = len(result.granted) + len(result.unplaced)
        pending = result.queue_depth
        assert settled + pending == 20
        assert result.unplaced  # something escalated
        assert all(u.reason in ("timeout", "rejected") for u in result.unplaced)

    def test_leases_survive_round_boundary(self):
        """A lease held past the round's end releases in a later round
        on the same persistent state."""

        worker = CellWorker(make_spec())
        first = worker.run_round(
            RoundWork(round_no=1, ticks=2, arrivals=arrivals_for(0, [(1, 0, 6)]))
        )
        second = worker.run_round(RoundWork(round_no=2, ticks=8, arrivals=()))
        assert len(first.granted) == 1
        assert first.released == ()
        assert first.active_leases == 1
        assert len(second.released) == 1
        assert second.active_leases == 0

    def test_snapshot_reply_carries_mergeable_hists(self):
        worker = CellWorker(make_spec())
        worker.run_round(
            RoundWork(round_no=1, ticks=4, arrivals=arrivals_for(0, [(1, 0, 1)]))
        )
        reply = worker.snapshot_reply()
        assert reply.cell_id == "cell0tag"
        assert reply.hists["wait"].count == 1
        for phase in TICK_PHASES:
            assert reply.hists[f"tick_{phase}"].count == 4
        assert reply.snapshot["allocated"] == 1


class TestBrokerRounds:
    def test_spill_reroutes_overload_to_idle_cell(self):
        """Overload cell 0, leave cell 1 idle: timeouts escalate, the
        spill solve routes them to cell 1, and they are granted there
        under cell 1's namespace."""
        part = FabricPartition("omega", 8, 2)
        with FabricBroker(part, spill_after=2, queue_limit=64) as broker:
            flood = tuple(
                FabricRequest(
                    req_id=i,
                    cell=0,
                    processor=i % 8,
                    hold_ticks=6,
                    origin_cell=0,
                    arrive_tick=0,
                )
                for i in range(24)
            )
            first = broker.run_round(flood, ticks=8)
            assert first.escalated > 0
            assert first.spill_planned > 0
            second = broker.run_round([], ticks=8)
            spilled_grants = [g for g in second.granted if g.spilled]
            assert spilled_grants
            cell1 = part.cells[1].cell_id
            assert any(g.lease_id.startswith(f"{cell1}:") for g in spilled_grants)

    def test_kill_revokes_custody_and_rejoin_restores_service(self):
        part = FabricPartition("omega", 8, 2)
        with FabricBroker(part, spill_after=4) as broker:
            hold_forever = tuple(
                FabricRequest(
                    req_id=i, cell=1, processor=i, hold_ticks=50, origin_cell=1
                )
                for i in range(4)
            )
            outcome = broker.run_round(hold_forever, ticks=4)
            assert len(outcome.granted) == 4
            assert broker.registry_size == 4
            broker.kill_cell(1)
            assert broker.registry_size == 0
            assert broker.live_cells == [0]
            assert broker.counters["revoked_on_death"] == 4
            death = broker.events[-1]
            assert death["event"] == "cell-death"
            prefix = f"{part.cells[1].cell_id}:"
            assert all(lease.startswith(prefix) for lease in death["revoked"])
            with pytest.raises(FabricError):
                broker.kill_cell(1)
            broker.rejoin_cell(1)
            assert broker.live_cells == [0, 1]
            fresh = broker.run_round(
                arrivals_for(1, [(100, 0, 1)]), ticks=6
            )
            (grant,) = [g for g in fresh.granted if g.req_id == 100]
            local = int(grant.lease_id.split(":", 1)[1])
            assert local >= LEASE_EPOCH_STRIDE  # new epoch's namespace
            with pytest.raises(FabricError):
                broker.rejoin_cell(1)

    def test_arrivals_to_dead_cell_respill(self):
        part = FabricPartition("omega", 8, 2)
        with FabricBroker(part, spill_after=4) as broker:
            broker.run_round([], ticks=2)
            broker.kill_cell(0)
            outcome = broker.run_round(
                arrivals_for(0, [(1, 2, 1), (2, 5, 1)]), ticks=8
            )
            assert outcome.escalated == 2
            assert outcome.spill_planned == 2
            settle = broker.run_round([], ticks=8)
            assert {g.req_id for g in settle.granted} == {1, 2}
            assert all(g.spilled for g in settle.granted)


class TestRunFabric:
    CONFIG = FabricConfig(
        ports=8, cells=2, rounds=5, ticks_per_round=8, seed=11
    )

    def test_totals_conserve_and_drain(self):
        result = run_fabric(self.CONFIG)
        totals = result.totals
        assert totals["offered"] > 0
        assert totals["allocated"] + totals["spill_failed"] == totals["offered"]
        assert totals["released"] == totals["allocated"]
        assert result.drain_rounds >= 1

    def test_deterministic_across_real_processes(self):
        first = run_fabric(self.CONFIG)
        second = run_fabric(self.CONFIG)
        assert first.totals == second.totals
        assert first.per_round_granted == second.per_round_granted

    def test_merged_snapshot_is_exact(self):
        result = run_fabric(self.CONFIG)
        merged = result.snapshot["merged"]
        per_cell = [
            cell["allocated"] for cell in result.snapshot["cells"].values()
        ]
        assert merged["allocated"] == sum(per_cell)
        assert set(merged["tick_timing"]) == set(TICK_PHASES)
        assert merged["wait_percentiles"]["p50"] >= 0


class TestFabricChaos:
    def test_kill_and_rejoin_invariants(self):
        # max_hold > ticks_per_round so leases span round boundaries
        # and the kill actually revokes custody.
        config = FabricConfig(
            ports=8, cells=3, rounds=12, ticks_per_round=6,
            max_hold=10, seed=5,
        )
        schedule = ChaosSchedule(cell=1, kill_round=4, rejoin_round=8)
        result = run_fabric(config, chaos=schedule)
        rerun = run_fabric(config, chaos=schedule)
        assert rerun.totals == result.totals
        assert rerun.revoked_lease_ids == result.revoked_lease_ids
        assert rerun.per_round_granted == result.per_round_granted
        assert len(result.revoked_lease_ids) > 0
        assert result.granted_during_outage > 0
        assert result.granted_during_outage == sum(result.per_round_granted[3:8])
        totals = result.totals
        assert totals["cells_killed"] == 1
        assert totals["cells_rejoined"] == 1
        assert totals["allocated"] + totals["spill_failed"] == totals["offered"]
        assert totals["released"] == totals["allocated"] - totals["revoked_on_death"]
        prefix = f"{FabricPartition('omega', 8, 3).cells[1].cell_id}:"
        assert all(
            lease.startswith(prefix) for lease in result.revoked_lease_ids
        )
        table = result.render()
        assert "kill cell 1 @ round 4" in table
        assert "grants during outage" in table and "leases revoked at kill" in table
        assert "grants during outage" not in run_fabric(TestRunFabric.CONFIG).render()

    def test_rejects_undersized_fabric(self):
        with pytest.raises(ValueError, match="cells must be >= 2"):
            run_fabric(
                FabricConfig(ports=8, cells=1, rounds=4),
                chaos=ChaosSchedule(cell=0, kill_round=2, rejoin_round=None),
            )

    @pytest.mark.parametrize(
        "schedule,complaint",
        [
            (ChaosSchedule(kill_round=13, rejoin_round=None), "kill_round 13 beyond"),
            (ChaosSchedule(kill_round=4, rejoin_round=20), "rejoin_round 20 beyond"),
            (ChaosSchedule(cell=2, kill_round=4, rejoin_round=8), "cell 2 outside"),
        ],
    )
    def test_a_schedule_the_run_cannot_play_is_refused_before_any_spawn(
        self, schedule, complaint, monkeypatch
    ):
        """These used to run the whole workload and then report a usage
        error as ``fabric invariant violated: scheduled rejoin did not
        happen``; ``run_fabric(chaos=)`` itself checked only the cell."""
        def no_spawn(self):
            raise AssertionError("a cell process was about to be spawned")

        monkeypatch.setattr(FabricBroker, "start", no_spawn)
        with pytest.raises(ValueError, match=complaint):
            run_fabric(FabricConfig(ports=8, cells=2, rounds=12), chaos=schedule)

    @pytest.mark.parametrize("rate", [float("inf"), float("nan"), 0.0, -1.0])
    def test_config_rate_must_be_positive_and_finite(self, rate):
        with pytest.raises(ValueError, match="rate must be positive and finite"):
            FabricConfig(rate=rate)
