"""Cross-topology structural tests: every builder, every invariant."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.networks import (
    baseline,
    benes,
    clos,
    crossbar,
    cube,
    delta,
    extra_stage_omega,
    flip,
    omega,
)
from repro.networks.routing import reachable_resources
from tests.helpers import checked_switch_settings

SQUARE_BUILDERS = [omega, flip, cube, delta, baseline, benes]


@pytest.mark.parametrize("builder", SQUARE_BUILDERS)
@pytest.mark.parametrize("n", [2, 4, 8, 16])
class TestSquareTopologies:
    def test_full_access(self, builder, n):
        """Every processor reaches every resource in a free network."""
        net = builder(n)
        for p in range(n):
            assert reachable_resources(net, p) == frozenset(range(n))

    def test_shapes(self, builder, n):
        net = builder(n)
        assert net.n_processors == n and net.n_resources == n
        for box in net.boxes():
            assert (box.n_in, box.n_out) == (2, 2)

    def test_find_path_everywhere(self, builder, n):
        net = builder(n)
        for p in range(n):
            path = net.find_free_path(p, (p + 1) % n)
            assert path is not None
            assert len(path) == net.n_stages + 1


@pytest.mark.parametrize("builder", [omega, flip, cube, delta, baseline])
def test_unique_path_networks(builder):
    """The log-stage networks have exactly one path per (p, r) pair."""
    net = builder(8)
    assert net.n_stages == 3
    for p in range(8):
        for r in range(8):
            assert net.count_paths(p, r) == 1


def test_benes_path_multiplicity():
    """Benes(N) has 2^(log N - 1) = N/2 paths per pair."""
    net = benes(8)
    assert net.n_stages == 5
    for p in range(8):
        for r in range(8):
            assert net.count_paths(p, r) == 4


def test_extra_stage_doubles_paths():
    for extra in (0, 1, 2):
        net = extra_stage_omega(8, extra)
        assert net.n_stages == 3 + extra
        assert net.count_paths(0, 5) == 2 ** extra
    with pytest.raises(ValueError):
        extra_stage_omega(8, -1)


class TestClos:
    def test_shapes(self):
        net = clos(m=3, n=2, r=4)
        assert net.n_processors == 8 and net.n_resources == 8
        assert [len(stage) for stage in net.stages] == [4, 3, 4]
        assert (net.box(0, 0).n_in, net.box(0, 0).n_out) == (2, 3)
        assert (net.box(1, 0).n_in, net.box(1, 0).n_out) == (4, 4)
        assert (net.box(2, 0).n_in, net.box(2, 0).n_out) == (3, 2)

    def test_full_access(self):
        net = clos(m=2, n=2, r=3)
        for p in range(6):
            assert reachable_resources(net, p) == frozenset(range(6))

    def test_path_count_equals_middle_boxes(self):
        net = clos(m=3, n=2, r=2)
        for p in range(4):
            for r in range(4):
                assert net.count_paths(p, r) == 3

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            clos(0, 2, 2)


class TestCrossbar:
    def test_rectangular(self):
        net = crossbar(3, 5)
        assert net.n_processors == 3 and net.n_resources == 5
        for p in range(3):
            assert reachable_resources(net, p) == frozenset(range(5))

    def test_square_default(self):
        net = crossbar(4)
        assert net.n_resources == 4

    def test_nonblocking(self):
        """Any free processor can reach any free resource regardless of
        existing circuits — the crossbar control case."""
        net = crossbar(4, 4)
        net.establish_circuit(net.find_free_path(0, 1))
        net.establish_circuit(net.find_free_path(1, 0))
        for p in (2, 3):
            for r in (2, 3):
                assert net.find_free_path(p, r) is not None

    def test_bad_shape(self):
        with pytest.raises(ValueError):
            crossbar(0)


@given(
    builder=st.sampled_from(SQUARE_BUILDERS),
    n_log=st.integers(1, 4),
    pairs=st.lists(st.tuples(st.integers(0, 15), st.integers(0, 15)), max_size=8),
)
@settings(max_examples=40, deadline=None)
def test_property_circuits_never_violate_switch_invariants(builder, n_log, pairs):
    """Property: establishing any sequence of free paths keeps every
    switchbox a partial matching, and releasing everything restores a
    pristine network."""
    n = 1 << n_log
    net = builder(n)
    established = 0
    for p, r in pairs:
        path = net.find_free_path(p % n, r % n)
        if path is None:
            continue
        net.establish_circuit(path)
        established += 1
    checked_switch_settings(net)
    assert len(net.circuits) == established
    net.release_all()
    assert net.occupancy() == 0.0
    assert net.switch_settings() == {}
