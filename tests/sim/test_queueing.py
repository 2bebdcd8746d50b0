"""Tests for the discrete-event queueing model."""

import pytest

from repro.core.model import MRSIN
from repro.networks import crossbar, omega
from repro.sim.queueing import simulate_queueing
from tests.helpers import checked_switch_settings


class TestQueueing:
    def test_light_load_low_utilization(self):
        m = MRSIN(crossbar(4, 4))
        res = simulate_queueing(
            m, arrival_rate=0.1, mean_service=1.0, horizon=300.0, seed=0
        )
        assert 0.0 < res.utilization < 0.3
        assert res.completed > 0
        assert res.offered_load == pytest.approx(0.1)

    def test_heavy_load_high_utilization(self):
        m = MRSIN(crossbar(4, 4))
        res = simulate_queueing(
            m, arrival_rate=2.0, mean_service=1.0, horizon=300.0, seed=0
        )
        assert res.utilization > 0.8
        assert res.mean_queue > 1.0

    def test_response_time_grows_with_load(self):
        light = simulate_queueing(
            MRSIN(omega(8)), arrival_rate=0.2, horizon=400.0, seed=1
        )
        heavy = simulate_queueing(
            MRSIN(omega(8)), arrival_rate=0.9, horizon=400.0, seed=1
        )
        assert heavy.mean_response > light.mean_response

    def test_policies_comparable(self):
        """Optimal scheduling should never complete fewer tasks than
        blind random binding at moderate load."""
        opt = simulate_queueing(
            MRSIN(omega(8)), policy="optimal", arrival_rate=0.8, horizon=300.0, seed=2
        )
        blind = simulate_queueing(
            MRSIN(omega(8)), policy="random_binding", arrival_rate=0.8, horizon=300.0, seed=2
        )
        assert opt.completed >= 0.95 * blind.completed

    def test_unknown_policy(self):
        with pytest.raises(ValueError, match="unknown policy"):
            simulate_queueing(MRSIN(omega(8)), policy="psychic")

    @pytest.mark.parametrize(
        "knob,value",
        [
            ("arrival_rate", float("nan")), ("arrival_rate", float("inf")),
            ("horizon", float("nan")), ("horizon", float("inf")),
            ("mean_service", float("nan")),
            ("transmission_time", float("nan")), ("transmission_time", -1.0),
        ],
    )
    def test_rejects_nan_inf_and_negative(self, knob, value):
        """``arrival_rate=nan`` used to die mid-run on an internal
        "no transmitting circuit" error; an infinite horizon never ends."""
        with pytest.raises(ValueError, match=knob):
            simulate_queueing(MRSIN(omega(8)), **{knob: value})

    def test_network_state_consistent_after_run(self):
        m = MRSIN(omega(8))
        simulate_queueing(m, arrival_rate=0.5, horizon=100.0, seed=3)
        # Every derived switch setting must still be a partial matching.
        checked_switch_settings(m.network)

    def test_determinism(self):
        a = simulate_queueing(MRSIN(omega(8)), arrival_rate=0.5, horizon=100.0, seed=9)
        b = simulate_queueing(MRSIN(omega(8)), arrival_rate=0.5, horizon=100.0, seed=9)
        assert a.completed == b.completed
        assert a.utilization == pytest.approx(b.utilization)


class TestBatching:
    def test_min_batch_validation(self):
        with pytest.raises(ValueError, match="min_batch"):
            simulate_queueing(MRSIN(omega(8)), min_batch=0)

    def test_batching_adds_queueing_delay(self):
        eager = simulate_queueing(MRSIN(omega(8)), arrival_rate=0.5,
                                  horizon=300.0, min_batch=1, seed=6)
        batched = simulate_queueing(MRSIN(omega(8)), arrival_rate=0.5,
                                    horizon=300.0, min_batch=6, seed=6)
        assert batched.mean_queue > eager.mean_queue
        assert batched.mean_response > eager.mean_response


class TestHeterogeneousWorkload:
    def test_typed_arrivals_served_on_typed_pool(self):
        m = MRSIN(omega(8), resource_types=["fft", "conv"] * 4)
        res = simulate_queueing(
            m, arrival_rate=0.4, horizon=150.0, seed=7,
            type_weights={"fft": 2.0, "conv": 1.0},
        )
        assert res.completed > 0

    def test_unknown_type_rejected(self):
        m = MRSIN(omega(8), resource_types=["fft", "conv"] * 4)
        with pytest.raises(ValueError, match="no resources of type"):
            simulate_queueing(m, type_weights={"gpu": 1.0})

    def test_homogeneous_default_unchanged(self):
        a = simulate_queueing(MRSIN(omega(8)), arrival_rate=0.5,
                              horizon=100.0, seed=9)
        b = simulate_queueing(MRSIN(omega(8)), arrival_rate=0.5,
                              horizon=100.0, seed=9, type_weights=None)
        assert a.completed == b.completed
