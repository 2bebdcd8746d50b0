"""Tests for the generic MultistageNetwork model and circuit switching."""

import copy
import pickle

import pytest

from repro.networks.omega import omega
from repro.networks.crossbar import crossbar
from repro.networks.permutations import identity
from repro.networks.topology import MultistageNetwork, PortRef, assemble
from tests.helpers import checked_switch_settings


def tiny() -> MultistageNetwork:
    """A 2x2 single-box network."""
    return assemble("tiny", 2, 2, [[(2, 2)]], [identity, identity])


class TestAssembly:
    def test_counts(self):
        net = omega(8)
        assert net.n_stages == 3
        assert len(net.stages[0]) == 4
        # 8 proc links + 2*8 interstage + 8 resource links.
        assert len(net.links) == 32

    def test_boundary_count_enforced(self):
        with pytest.raises(ValueError, match="boundaries"):
            assemble("bad", 2, 2, [[(2, 2)]], [identity])

    def test_wire_count_mismatch_detected(self):
        with pytest.raises(ValueError, match="source wires"):
            assemble("bad", 4, 2, [[(2, 2)]], [identity, identity])

    def test_every_port_wired_once(self):
        net = omega(8)
        srcs = [link.src for link in net.links]
        dsts = [link.dst for link in net.links]
        assert len(set(srcs)) == len(srcs)
        assert len(set(dsts)) == len(dsts)

    def test_duplicate_wiring_rejected(self):
        net = MultistageNetwork("x", 1, 1)
        net.add_stage([(1, 1)])
        net.add_link(PortRef.processor(0), PortRef.box_in(0, 0, 0))
        with pytest.raises(ValueError, match="already wired"):
            net.add_link(PortRef.processor(0), PortRef.box_in(0, 0, 0))

    def test_terminal_links(self):
        net = omega(8)
        for p in range(8):
            assert net.processor_link(p).src == PortRef.processor(p)
        for r in range(8):
            assert net.resource_link(r).dst == PortRef.resource(r)

    def test_flow_node_table(self):
        # s, t, u; processors 3..10; resources 11..18; then the twelve
        # boxes stage by stage: one id per link end, fixed at wiring.
        net = omega(8)
        assert net.n_flow_nodes == 3 + 8 + 8 + 12
        ids = {}
        for i, link in enumerate(net.links):
            for ref, node in zip((link.src, link.dst), net.flow_ends[2 * i:2 * i + 2]):
                key = ref.kind.split("_")[0], ref.stage, ref.box
                assert ids.setdefault(key, node) == node
        assert sorted(ids.values()) == list(range(3, net.n_flow_nodes))
        assert ids["proc", -1, 5] == 8 and ids["res", -1, 0] == 11
        assert ids["box", 0, 0] == 19 and ids["box", 2, 3] == 30

    def test_flow_level_table(self):
        # s 0, processors 1, stage k boxes k + 2, resources 5, t 6; u -1.
        net = omega(8)
        levels = net.flow_levels
        assert levels[:3] == [0, 6, -1]
        assert levels[3:11] == [1] * 8 and levels[11:19] == [5] * 8
        assert levels[19:] == [2] * 4 + [3] * 4 + [4] * 4
        assert net.flow_levels is levels  # computed once, on first read

    def test_flow_level_table_reset_by_wiring(self):
        # p0 -> box (0, 0) -> r0 skips a stage; box (1, 0) -> r1 is
        # wired from nowhere, so r1 is unreached until a link feeds it.
        # Ids: s t u, p0 3, r0 4, r1 5, box (0, 0) 6, box (1, 0) 7.
        net = MultistageNetwork("x", 1, 2)
        net.add_stage([(1, 2)])
        net.add_link(PortRef.processor(0), PortRef.box_in(0, 0, 0))
        net.add_link(PortRef.box_out(0, 0, 0), PortRef.resource(0))
        assert net.flow_levels == [0, 4, -1, 1, 3, -1, 2]
        net.add_stage([(1, 1)])
        net.add_link(PortRef.box_out(1, 0, 0), PortRef.resource(1))
        assert net.flow_levels == [0, 4, -1, 1, 3, -1, 2, -1]
        net.add_link(PortRef.box_out(0, 0, 1), PortRef.box_in(1, 0, 0))
        assert net.flow_levels == [0, 4, -1, 1, 3, 4, 2, 3]

    def test_terminal_outside_the_network_rejected_at_wiring_time(self):
        net = MultistageNetwork("x", 1, 1)
        net.add_stage([(1, 1)])
        with pytest.raises(ValueError, match="names no processor"):
            net.add_link(PortRef.processor(1), PortRef.box_in(0, 0, 0))
        with pytest.raises(ValueError, match="names no processor"):
            net.add_link(PortRef.box_out(0, 0, 0), PortRef.resource(1))
        assert net.links == [] and net.flow_ends == []


class TestCircuits:
    def test_establish_sets_switches_and_occupancy(self):
        net = tiny()
        path = net.find_free_path(0, 1)
        assert path is not None
        circuit = net.establish_circuit(path)
        assert circuit.processor == 0 and circuit.resource == 1
        assert all(link.occupied for link in path)
        assert net.switch_settings() == {net.box(0, 0): {0: 1}}

    def test_conflicting_circuit_rejected(self):
        net = tiny()
        net.establish_circuit(net.find_free_path(0, 1))
        # Processor 1 can still reach resource 0 ...
        path = net.find_free_path(1, 0)
        assert path is not None
        net.establish_circuit(path)
        # ... but nothing else remains.
        assert net.find_free_path(0, 0) is None

    def test_occupied_link_rejected(self):
        net = tiny()
        path = net.find_free_path(0, 0)
        net.establish_circuit(path)
        with pytest.raises(ValueError, match="occupied"):
            net.establish_circuit(path)

    def test_busy_switch_port_rejected(self):
        net = crossbar(2, 2)
        p0 = net.find_free_path(0, 0)
        net.establish_circuit(p0)
        # The illegal path 1 -> 0 needs the box's busy output 0.  Each
        # port carries one link, so the busy port is an occupied link,
        # and the link error is what the path meets.
        path = [net.processor_link(1), net.resource_link(0)]
        busy = net.resource_link(0).index
        with pytest.raises(ValueError, match=f"^link {busy} already occupied$"):
            net.establish_circuit(path)
        assert net.switch_settings() == {net.box(0, 0): {0: 0}}

    def test_release_restores_state(self):
        net = tiny()
        circuit = net.establish_circuit(net.find_free_path(0, 1))
        net.release_circuit(circuit)
        assert net.occupancy() == 0.0
        assert net.switch_settings() == {}
        assert net.find_free_path(0, 1) is not None

    def test_release_unknown_circuit(self):
        net = tiny()
        circuit = net.establish_circuit(net.find_free_path(0, 1))
        net.release_circuit(circuit)
        with pytest.raises(ValueError):
            net.release_circuit(circuit)

    @pytest.mark.parametrize("clone", [copy.deepcopy, lambda c: pickle.loads(pickle.dumps(c))])
    def test_release_by_equal_copy_frees_the_networks_own_links(self, clone):
        # Regression: the equality fallback used to drop the registry
        # entry and the switch settings but flip ``occupied`` on the
        # *copy's* links, leaving four links occupied by no circuit and
        # processor 0 cut off from resource 3 forever.
        net = omega(8)
        circuit = net.establish_circuit(net.find_free_path(0, 3))
        net.release_circuit(clone(circuit))
        assert net.circuits == []
        assert net.occupancy() == 0.0
        assert net.switch_settings() == {}
        assert net.find_free_path(0, 3) is not None
        with pytest.raises(ValueError, match="not active"):
            net.release_circuit(circuit)

    def test_circuits_is_a_snapshot_in_establish_order(self):
        net = omega(8)
        first = net.establish_circuit(net.find_free_path(0, 3))
        second = net.establish_circuit(net.find_free_path(1, 5))
        snapshot = net.circuits
        assert snapshot == [first, second] and snapshot[0] is first
        snapshot.clear()  # a copy: the registry is untouched
        net.release_circuit(first)
        third = net.establish_circuit(net.find_free_path(0, 2))
        assert [c.processor for c in net.circuits] == [1, 0] and net.circuits[1] is third
        settings = checked_switch_settings(net)
        assert sum(len(s) for s in settings.values()) == 6  # three boxes per circuit

    def test_link_to_a_missing_box_or_port_rejected_at_wiring_time(self):
        net = MultistageNetwork("x", 1, 1)
        net.add_stage([(1, 1)])
        with pytest.raises(ValueError, match="names no switchbox port"):
            net.add_link(PortRef.processor(0), PortRef.box_in(0, 1, 0))
        with pytest.raises(ValueError, match="names no switchbox port"):
            net.add_link(PortRef.box_out(0, 0, 1), PortRef.resource(0))
        assert net.links == []

    def test_release_all(self):
        net = omega(8)
        net.establish_circuit(net.find_free_path(0, 3))
        net.establish_circuit(net.find_free_path(1, 5))
        net.release_all()
        assert net.occupancy() == 0.0
        assert net.circuits == []

    def test_path_validation_rejects_garbage(self):
        net = omega(8)
        with pytest.raises(ValueError, match="empty"):
            net.establish_circuit([])
        with pytest.raises(ValueError, match="start at a processor"):
            net.establish_circuit([net.resource_link(0)])
        # Two links that do not meet at a box.
        with pytest.raises(ValueError):
            net.establish_circuit([net.processor_link(0), net.resource_link(0)])


class TestPathSearch:
    def test_full_access_when_free(self):
        net = omega(8)
        for p in range(8):
            for r in range(8):
                assert net.find_free_path(p, r) is not None

    def test_blocked_when_processor_link_used(self):
        net = omega(8)
        net.establish_circuit(net.find_free_path(0, 0))
        assert net.find_free_path(0, 1) is None

    def test_unique_path_count_in_omega(self):
        net = omega(8)
        for p in range(8):
            for r in range(8):
                assert net.count_paths(p, r) == 1

    def test_occupancy_metric(self):
        net = tiny()
        assert net.occupancy() == 0.0
        net.establish_circuit(net.find_free_path(0, 0))
        assert net.occupancy() == pytest.approx(2 / 4)

    def test_paper_fig2_blocking_example(self):
        """Fig. 2(a): with p2->r6 and p4->r4 circuits up, the mapping
        {(p1,r1),(p3,r5),(p5,r3),(p7,r7)} blocks p8 from r8, while an
        optimal mapping serves all five requesters.  Here we verify the
        structural fact that established circuits can block a later
        request in an Omega network."""
        net = omega(8)
        blocked_somewhere = False
        # Occupy two circuits, then check some pair became unreachable.
        net.establish_circuit(net.find_free_path(1, 5))
        net.establish_circuit(net.find_free_path(3, 3))
        for p in (0, 2, 4, 6, 7):
            for r in (0, 2, 4, 6, 7):
                if net.find_free_path(p, r) is None:
                    blocked_somewhere = True
        assert blocked_somewhere
