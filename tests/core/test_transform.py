"""Tests for Transformations 1 and 2 and the flow→mapping inverse."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import MRSIN, Request
from repro.core.transform import (
    bypass_cost,
    extract_mapping,
    heterogeneous_max_problem,
    transformation1,
    transformation2,
)
from repro.flows.dinic import dinic
from repro.flows.mincost import min_cost_flow
from repro.networks import crossbar, omega
from tests.helpers import nx_max_flow


def omega_mrsin(occupied_pairs=(), busy_resources=(), requesters=()):
    """8x8 Omega MRSIN with given circuits, busy resources, requests."""
    net = omega(8)
    m = MRSIN(net)
    for p, r in occupied_pairs:
        net.establish_circuit(net.find_free_path(p, r))
        m.resources[r].busy = True
    for r in busy_resources:
        m.resources[r].busy = True
    for p in requesters:
        m.submit(Request(p))
    return m


class TestTransformation1Structure:
    def test_node_sets(self):
        m = omega_mrsin(requesters=[0, 1])
        problem = transformation1(m)
        nodes = set(problem.net.nodes)
        assert "s" in nodes and "t" in nodes
        assert ("p", 0) in nodes and ("p", 1) in nodes
        assert ("x", 0, 0) in nodes
        assert ("r", 0) in nodes

    def test_all_arcs_unit_capacity(self):
        m = omega_mrsin(requesters=[0, 1, 2])
        problem = transformation1(m)
        assert all(arc.capacity == 1 for arc in problem.net.arcs)
        assert {type(arc.capacity) for arc in problem.net.arcs} == {int}

    def test_occupied_links_excluded(self):
        """Step T3/T4: occupied links get no arc."""
        free = omega_mrsin(requesters=[0])
        n_free_arcs = transformation1(free).net.n_arcs
        occupied = omega_mrsin(occupied_pairs=[(1, 5)], requesters=[0])
        problem = transformation1(occupied)
        # The occupied circuit removes stages+1 = 4 link arcs, and the
        # busy resource r5 loses its sink arc.
        assert problem.net.n_arcs == n_free_arcs - 4 - 1
        assert not any(link.occupied for link in problem.arc_link.values())

    def test_busy_resources_get_no_sink_arc(self):
        m = omega_mrsin(busy_resources=[3], requesters=[0])
        problem = transformation1(m)
        assert not problem.net.find_arcs(("r", 3), "t")

    def test_non_requesting_processors_get_no_source_arc(self):
        m = omega_mrsin(requesters=[2])
        problem = transformation1(m)
        assert problem.net.find_arcs("s", ("p", 2))
        assert not problem.net.find_arcs("s", ("p", 0))

    def test_duplicate_processor_requests_rejected(self):
        m = omega_mrsin()
        with pytest.raises(ValueError, match="one request per processor"):
            transformation1(m, [Request(0), Request(0)])


class TestTheorem2:
    """Max flow value == max number of allocatable resources."""

    def test_fig2_all_five_allocated(self):
        """The paper's Fig. 2 situation (0-based): two circuits up,
        five requesters, five free resources — optimal allocates 5."""
        m = omega_mrsin(occupied_pairs=[(2, 1), (4, 6)], requesters=[0, 3, 5, 6, 7])
        problem = transformation1(m)
        value = dinic(problem.net, "s", "t").value
        assert value == 5
        mapping = extract_mapping(problem, m)
        assert len(mapping) == 5
        mapping.validate(m)

    def test_mapping_size_equals_flow_value(self):
        rng = np.random.default_rng(1)
        for _ in range(15):
            m = omega_mrsin()
            # Random occupancy.
            for _ in range(int(rng.integers(0, 4))):
                p, r = int(rng.integers(0, 8)), int(rng.integers(0, 8))
                path = m.network.find_free_path(p, r)
                if path:
                    m.network.establish_circuit(path)
                    m.resources[r].busy = True
            for p in range(8):
                if rng.random() < 0.6 and not m.network.processor_link(p).occupied:
                    m.submit(Request(p))
            problem = transformation1(m)
            value = dinic(problem.net, "s", "t").value
            mapping = extract_mapping(problem, m)
            assert len(mapping) == value
            mapping.validate(m)

    def test_flow_value_matches_oracle(self):
        m = omega_mrsin(occupied_pairs=[(0, 0)], requesters=[1, 2, 3])
        problem = transformation1(m)
        expected = nx_max_flow(problem.net, "s", "t")
        assert dinic(problem.net, "s", "t").value == expected

    def test_extracted_paths_are_establishable(self):
        m = omega_mrsin(requesters=list(range(8)))
        problem = transformation1(m)
        dinic(problem.net, "s", "t")
        mapping = extract_mapping(problem, m)
        m.apply_mapping(mapping)  # must not raise
        assert m.utilization() == 1.0


class TestTransformation2:
    def test_bypass_structure(self):
        m = omega_mrsin(requesters=[0, 1])
        problem = transformation2(m)
        assert problem.bypass == "u"
        assert problem.required_flow == 2
        assert problem.net.find_arcs(("p", 0), "u")
        (ut,) = problem.net.find_arcs("u", "t")
        assert ut.capacity == 2

    def test_cost_assignment(self):
        net = crossbar(2, 2)
        m = MRSIN(net, preferences=[4, 1], max_priority=10, max_preference=10)
        m.submit(Request(0, priority=7))
        problem = transformation2(m)
        (sp,) = problem.net.find_arcs("s", ("p", 0))
        assert sp.cost == 10 - 7
        (rt,) = problem.net.find_arcs(("r", 0), "t")
        assert rt.cost == 10 - 4
        penalty = bypass_cost(m)
        assert penalty == 11
        (pu,) = problem.net.find_arcs(("p", 0), "u")
        assert pu.cost == penalty + 7  # priority surcharge (see bypass_cost)
        (ut,) = problem.net.find_arcs("u", "t")
        assert ut.cost == penalty

    def test_out_of_scale_priority_rejected(self):
        # Admission refuses the request (MRSIN.check_request), so it is
        # handed to the transformation directly to reach its own guard.
        m = MRSIN(crossbar(2, 2), max_priority=5)
        with pytest.raises(ValueError, match="exceeds ymax"):
            transformation2(m, [Request(0, priority=7)])

    def test_out_of_scale_preference_rejected(self):
        # The constructor refuses the scale, so the preference is raised
        # afterwards to reach the transformation's own guard.
        m = MRSIN(crossbar(2, 2), max_preference=10)
        m.resources[0].preference = 11
        m.submit(Request(0))
        with pytest.raises(ValueError, match="exceeds qmax"):
            transformation2(m)

    def test_feasible_even_when_nothing_allocatable(self):
        """Theorem 3: a feasible flow always exists via the bypass."""
        m = omega_mrsin(busy_resources=range(8), requesters=[0, 1, 2])
        problem = transformation2(m)
        res = min_cost_flow(problem.net, "s", "t", target_flow=problem.required_flow)
        assert res.value == 3
        mapping = extract_mapping(problem, m)
        assert len(mapping) == 0  # everything bypassed

    def test_bypass_dearer_than_any_real_path(self):
        """2*penalty > worst real allocation cost, for any scales."""
        for ymax, qmax in [(10, 10), (1, 1), (3, 17)]:
            m = MRSIN(crossbar(2, 2), max_priority=ymax, max_preference=qmax)
            worst_real = (ymax - 1) + (qmax - 1)
            assert 2 * bypass_cost(m) > worst_real


class TestHeterogeneousProblem:
    def test_one_commodity_per_requested_type(self):
        net = crossbar(3, 3)
        m = MRSIN(net, resource_types=["a", "a", "b"])
        m.submit(Request(0, resource_type="a"))
        m.submit(Request(1, resource_type="b"))
        problem, meta = heterogeneous_max_problem(m)
        assert [c.name for c in problem.commodities] == ["a", "b"]
        assert problem.net.find_arcs(("s", "a"), ("p", 0))
        assert not problem.net.find_arcs(("s", "b"), ("p", 0))

    def test_typed_sink_arcs(self):
        net = crossbar(2, 3)
        m = MRSIN(net, resource_types=["a", "b", "a"])
        m.submit(Request(0, resource_type="a"))
        problem, _ = heterogeneous_max_problem(m)
        assert problem.net.find_arcs(("r", 0), ("t", "a"))
        assert problem.net.find_arcs(("r", 2), ("t", "a"))
        assert not problem.net.find_arcs(("r", 1), ("t", "a"))


@given(
    seed=st.integers(0, 100_000),
    n_requesters=st.integers(0, 8),
    n_busy=st.integers(0, 8),
)
@settings(max_examples=40, deadline=None)
def test_property_theorem2_on_random_states(seed, n_requesters, n_busy):
    """Property (Theorem 2): extracted mapping size == max-flow value ==
    oracle value, and the mapping is always realisable."""
    rng = np.random.default_rng(seed)
    m = omega_mrsin()
    for r in rng.choice(8, size=n_busy, replace=False):
        m.resources[int(r)].busy = True
    for p in rng.choice(8, size=n_requesters, replace=False):
        m.submit(Request(int(p)))
    problem = transformation1(m)
    value = dinic(problem.net, "s", "t").value
    assert value == nx_max_flow(problem.net, "s", "t")
    mapping = extract_mapping(problem, m)
    assert len(mapping) == value
    mapping.validate(m)
    m.apply_mapping(mapping)


class TestHeterogeneousMinCostExtraction:
    def test_end_to_end_extraction(self):
        """heterogeneous_min_cost_problem -> simplex -> mapping, with
        bypassed (unservable) requests skipped correctly."""
        from repro.core.transform import (
            extract_multicommodity_mapping,
            heterogeneous_min_cost_problem,
        )
        from repro.flows.multicommodity import solve_min_cost_multicommodity

        net = crossbar(3, 3)
        m = MRSIN(net, resource_types=["a", "a", "b"], preferences=[7, 2, 5])
        m.resources[1].busy = True  # only one "a" resource left
        m.submit(Request(0, resource_type="a", priority=3))
        m.submit(Request(1, resource_type="a", priority=8))
        m.submit(Request(2, resource_type="b", priority=1))
        problem, meta = heterogeneous_min_cost_problem(m)
        result = solve_min_cost_multicommodity(problem)
        assert result.integral
        mapping = extract_multicommodity_mapping(result, problem, meta, m)
        mapping.validate(m)
        # Two served (urgent "a" + the "b"); one "a" request bypassed.
        assert len(mapping) == 2
        served_a = [x for x in mapping if x.request.resource_type == "a"]
        assert served_a[0].request.priority == 8

    def test_fractional_result_rejected(self):
        from repro.core.transform import extract_multicommodity_mapping
        from repro.flows.lp import LPStatus
        from repro.flows.multicommodity import MultiCommodityResult

        m = MRSIN(crossbar(2, 2))
        fake = MultiCommodityResult(
            status=LPStatus.OPTIMAL, flow_values=[0.5], total_flow=0.5,
            cost=0.0, arc_flows={(0, 0): 0.5}, integral=False,
        )
        from repro.core.transform import heterogeneous_max_problem

        problem, meta = heterogeneous_max_problem(m, [Request(0)])
        with pytest.raises(ValueError, match="fractional"):
            extract_multicommodity_mapping(fake, problem, meta, m)
