"""Exhaustive verification of Theorem 1 on small switchboxes.

Theorem 1: *"For any MRSIN, there exists a flow network for which a
legal integral flow is equivalent to a valid request-resource
mapping"* — built on the observation that a non-broadcast switch
setting corresponds exactly to a legal integral flow assignment at a
unit-capacity node.

These tests enumerate *every* partial setting of small crossbars and
*every* legal integral flow at the corresponding node and verify the
two sets correspond: each setting induces a legal flow, and each legal
flow is realised by at least one setting (``k!`` of them — the flow
does not record the pairing, which is why any path decomposition
yields valid switch settings).
"""

from itertools import combinations, permutations

import pytest

from repro.flows.graph import FlowNetwork
from repro.flows.validate import check_flow
from repro.networks.permutations import identity
from repro.networks.topology import assemble
from tests.helpers import checked_switch_settings


def all_partial_settings(n_in: int, n_out: int):
    """Every injective partial map from inputs to outputs."""
    for k in range(min(n_in, n_out) + 1):
        for ins in combinations(range(n_in), k):
            for outs in permutations(range(n_out), k):
                yield dict(zip(ins, outs))


def node_flow_network(n_in: int, n_out: int) -> FlowNetwork:
    """One node ``u`` with unit in/out arcs, as in the Theorem 1 proof."""
    net = FlowNetwork()
    for i in range(n_in):
        net.add_arc(("in", i), "u", 1)
    for o in range(n_out):
        net.add_arc("u", ("out", o), 1)
    return net


def legal_integral_flows(n_in: int, n_out: int):
    """Every legal 0/1 flow at the node: equal-size in/out subsets."""
    for k in range(min(n_in, n_out) + 1):
        for ins in combinations(range(n_in), k):
            for outs in combinations(range(n_out), k):
                yield frozenset(ins), frozenset(outs)


SHAPES = [(2, 2), (2, 3), (3, 2), (3, 3)]


@pytest.mark.parametrize("n_in,n_out", SHAPES)
class TestTheorem1:
    def test_every_setting_is_a_legal_flow(self, n_in, n_out):
        """Direction 1: switch setting → legal integral flow."""
        for setting in all_partial_settings(n_in, n_out):
            net = node_flow_network(n_in, n_out)
            for i, o in setting.items():
                net.find_arcs(("in", i), "u")[0].flow = 1.0
                net.find_arcs("u", ("out", o))[0].flow = 1.0
            # Conservation at u holds by the matching property; the
            # terminals are the leaf nodes.
            for node in net.nodes:
                if node == "u":
                    assert net.net_outflow("u") == 0.0

    def test_every_legal_flow_has_a_realising_setting(self, n_in, n_out):
        """Direction 2: legal integral flow → >= 1 switch setting."""
        settings_by_flow: dict = {}
        for setting in all_partial_settings(n_in, n_out):
            key = (frozenset(setting.keys()), frozenset(setting.values()))
            settings_by_flow.setdefault(key, []).append(setting)
        for flow in legal_integral_flows(n_in, n_out):
            assert flow in settings_by_flow, f"flow {flow} has no setting"
            k = len(flow[0])
            # Exactly k! settings realise a given flow (the pairings).
            expected = 1
            for j in range(2, k + 1):
                expected *= j
            assert len(settings_by_flow[flow]) == expected

    def test_counts_match_closed_forms(self, n_in, n_out):
        """#flows = sum_k C(n,k)C(m,k); #settings adds the k! pairings."""
        from math import comb, factorial

        n_flows = sum(
            comb(n_in, k) * comb(n_out, k) for k in range(min(n_in, n_out) + 1)
        )
        n_settings = sum(
            comb(n_in, k) * comb(n_out, k) * factorial(k)
            for k in range(min(n_in, n_out) + 1)
        )
        assert len(list(legal_integral_flows(n_in, n_out))) == n_flows
        assert len(list(all_partial_settings(n_in, n_out))) == n_settings

    def test_settings_install_on_real_switchbox(self, n_in, n_out):
        """Every enumerated setting installs as circuits through one
        real box, and the network reads exactly that setting back off
        the circuits' links."""
        net = assemble("box", n_in, n_out, [[(n_in, n_out)]], [identity, identity])
        box = net.box(0, 0)
        for setting in all_partial_settings(n_in, n_out):
            net.establish_circuits(
                [[net.processor_link(i), net.resource_link(o)] for i, o in setting.items()]
            )
            assert net.switch_settings() == ({box: setting} if setting else {})
            checked_switch_settings(net)
            net.release_all()
            assert net.switch_settings() == {}


def test_theorem1_end_to_end_on_a_two_box_network():
    """A concrete two-switch MRSIN-like flow network: every integral
    max flow decomposes into paths whose per-box port usage is a legal
    setting (the Theorem 2 corollary the scheduler relies on)."""
    net = FlowNetwork()
    net.add_arc("s", ("p", 0), 1)
    net.add_arc("s", ("p", 1), 1)
    net.add_arc(("p", 0), "x0", 1)
    net.add_arc(("p", 1), "x0", 1)
    net.add_arc("x0", "x1", 1)
    net.add_arc("x0", "x1", 1)  # parallel links: 2x2 box to 2x2 box
    net.add_arc("x1", ("r", 0), 1)
    net.add_arc("x1", ("r", 1), 1)
    net.add_arc(("r", 0), "t", 1)
    net.add_arc(("r", 1), "t", 1)
    from repro.flows.dinic import dinic

    assert dinic(net, "s", "t").value == 2
    check_flow(net, "s", "t")
    paths = net.decompose_paths("s", "t")
    assert len(paths) == 2
    # Port-disjointness: no arc shared between the two paths.
    used = [arc.index for path in paths for arc in path]
    assert len(used) == len(set(used))
