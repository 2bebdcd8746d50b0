"""The shared wiring: bulk assembly, content-keyed reuse, per-network state.

``assemble`` builds each topology's :class:`~repro.networks.topology.Wiring`
in one bulk pass and shares it between every network of the same
content; each network keeps only its own boxes, links and circuits.
These tests hold the bulk pass to the link-by-link wiring it replaced
on every registry topology, the cache to the content it is keyed by,
and each network's state to itself.
"""

import importlib

import pytest

from repro.core.model import MRSIN
from repro.networks import TOPOLOGIES, benes, omega
from repro.networks.permutations import identity, perfect_shuffle
from repro.networks.topology import MultistageNetwork, PortRef, assemble

#: Every module whose builders call ``assemble``.
BUILDER_MODULES = ["baseline", "benes", "clos", "crossbar", "cube", "gamma", "omega"]


def hand_wired(name, n_processors, n_resources, stage_shapes, boundaries) -> MultistageNetwork:
    """``assemble`` as it was: every link through ``add_link``, boundary by
    boundary, each side in box-major port order."""
    net = MultistageNetwork(name, n_processors, n_resources)
    for shapes in stage_shapes:
        net.add_stage(shapes)
    for k, boundary in enumerate(boundaries):
        if k == 0:
            srcs = [PortRef.processor(i) for i in range(n_processors)]
        else:
            srcs = [
                PortRef.box_out(k - 1, box.index, port)
                for box in net.stages[k - 1] for port in range(box.n_out)
            ]
        if k == len(stage_shapes):
            dsts = [PortRef.resource(i) for i in range(n_resources)]
        else:
            dsts = [
                PortRef.box_in(k, box.index, port)
                for box in net.stages[k] for port in range(box.n_in)
            ]
        for i, src in enumerate(srcs):
            net.add_link(src, dsts[boundary(i, len(srcs))])
    return net


@pytest.fixture
def assemble_calls(monkeypatch):
    """Record every builder's ``assemble`` arguments."""
    calls = []

    def recording(*args):
        calls.append(args)
        return assemble(*args)

    for name in BUILDER_MODULES:
        monkeypatch.setattr(importlib.import_module(f"repro.networks.{name}"), "assemble", recording)
    return calls


def wiring_view(net: MultistageNetwork) -> dict:
    """Everything the wiring fixes, in comparable form."""
    layouts = {}
    for bypass in (False, True):
        layout = net.flow_layout(bypass)
        kernel = layout.kernel
        layouts[bypass] = (
            kernel.n_nodes, kernel.to, kernel.head, kernel.next_arc, kernel.cap,
            layout.first_link, layout.sinks,
        )
    return {
        "boxes": [(b.stage, b.index, b.n_in, b.n_out) for b in net.boxes()],
        "links": [(link.index, link.src, link.dst) for link in net.links],
        "flow_ends": net.wiring.flow_ends,
        "hops": net.wiring.hops,
        "processor_link": [net.processor_link(p).index for p in range(net.n_processors)],
        "resource_link": [net.resource_link(r).index for r in range(net.n_resources)],
        "flow_levels": net.flow_levels,
        "layouts": layouts,
    }


@pytest.mark.parametrize("ports", [4, 8, 16, 64])
@pytest.mark.parametrize("name", sorted(TOPOLOGIES))
def test_the_bulk_wiring_is_the_link_by_link_one(name, ports, assemble_calls):
    net = TOPOLOGIES[name](ports)
    (args,) = assemble_calls
    hand = hand_wired(*args)
    assert net.wiring.shared and not hand.wiring.shared
    assert wiring_view(net) == wiring_view(hand)
    # The hop table reads as the same boxes on both networks.
    for link, twin in zip(net.links, hand.links):
        ends = [net._node_box[v] for v in net.wiring.hops[link.index]]
        twin_ends = [hand._node_box[v] for v in hand.wiring.hops[twin.index]]
        assert [b and (b.stage, b.index) for b in ends] == [b and (b.stage, b.index) for b in twin_ends]


def test_a_bad_boundary_fails_as_add_link_reports_it():
    with pytest.raises(ValueError, match=r"kind='box_in'.* already wired"):
        assemble("bad", 2, 2, [[(2, 2)]], [lambda i, size: 0, identity])
    with pytest.raises(ValueError, match=r"kind='res'.* already wired"):
        assemble("bad", 2, 2, [[(2, 2)]], [identity, lambda i, size: 1])


class TestCache:
    SHAPES = [[(2, 2)] * 2, [(2, 2)] * 2]

    def test_the_same_name_with_other_tables_is_another_wiring(self):
        shuffled = assemble("x", 4, 4, self.SHAPES, [perfect_shuffle] * 2 + [identity])
        straight = assemble("x", 4, 4, self.SHAPES, [identity] * 3)
        assert shuffled.wiring is not straight.wiring
        assert [link.dst for link in shuffled.links] != [link.dst for link in straight.links]
        assert shuffled.flow_layout().kernel.to != straight.flow_layout().kernel.to

    def test_other_names_with_the_same_tables_share_one_wiring(self):
        a = assemble("a", 4, 4, self.SHAPES, [perfect_shuffle] * 2 + [identity])
        b = assemble("b", 4, 4, self.SHAPES, [perfect_shuffle] * 2 + [identity])
        assert a.wiring is b.wiring and (a.name, b.name) == ("a", "b")
        assert a.wiring is omega(4).wiring
        # Benes wires each call with fresh closures: equal tables still hit.
        assert benes(16).wiring is benes(16).wiring

    def test_one_layout_and_level_table_per_wiring(self):
        assert omega(64).flow_layout() is omega(64).flow_layout()
        assert omega(64).flow_layout(True) is omega(64).flow_layout(True)
        assert omega(64).flow_levels is omega(64).flow_levels


def _pristine(net: MultistageNetwork) -> tuple:
    return (
        [(link.occupied, link.failed) for link in net.links],
        [box.failed for box in net.boxes()],
        net.circuits,
        len(net.links),
        net.n_stages,
    )


class TestIsolation:
    """Two networks of one wiring: nothing done to one shows on the other."""

    def test_circuits_faults_and_release(self):
        mine, other = MRSIN(omega(16)), omega(16)
        assert mine.network.wiring is other.wiring
        before = _pristine(other)
        net = mine.network
        net.establish_circuits([net.find_free_path(0, 3), net.find_free_path(5, 9)])
        mine.set_failed("link", 40)
        mine.set_failed("switchbox", (1, 2))
        assert _pristine(other) == before
        assert other.find_free_path(0, 3) is not None
        assert all(other.link_usable(link) for link in other.links)
        net.release_all()
        mine.set_failed("link", 40, False)
        assert _pristine(other) == before

    def test_rewiring_one_network_copies_the_wiring(self):
        mine, other = omega(8), omega(8)
        shared = other.wiring
        view, layout = wiring_view(other), other.flow_layout()
        mine.add_stage([(1, 1)])
        assert mine.wiring is not shared and not mine.wiring.shared
        assert mine.flow_layout().kernel.n_nodes == layout.kernel.n_nodes + 1
        mine.add_stage([(1, 1)])
        mine.add_link(PortRef.box_out(3, 0, 0), PortRef.box_in(4, 0, 0))
        assert mine.flow_layout().kernel.n_arcs == layout.kernel.n_arcs + 2
        assert other.wiring is shared and omega(8).wiring is shared
        assert other.flow_layout() is layout and wiring_view(other) == view
        assert len(other.links) == 32 and len(mine.links) == 33
