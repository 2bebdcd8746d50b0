"""Tests for Mapping/Assignment validation and cost accounting."""

import pytest

from repro.core import MRSIN, OptimalScheduler, Request
from repro.core.mapping import Assignment, Mapping
from repro.core.requests import Resource
from repro.networks import crossbar, omega


def make_assignment(m: MRSIN, p: int, r: int) -> Assignment:
    path = m.network.find_free_path(p, r)
    return Assignment(request=Request(p), resource=m.resources[r], path=tuple(path))


class TestAssignment:
    def test_endpoint_consistency_checked(self):
        m = MRSIN(crossbar(2, 2))
        path = tuple(m.network.find_free_path(0, 1))
        with pytest.raises(ValueError, match="starts at processor"):
            Assignment(request=Request(1), resource=m.resources[1], path=path)
        with pytest.raises(ValueError, match="ends at resource"):
            Assignment(request=Request(0), resource=m.resources[0], path=path)


class TestValidation:
    def test_duplicate_processor(self):
        m = MRSIN(crossbar(2, 2))
        mapping = Mapping([make_assignment(m, 0, 0), make_assignment(m, 0, 1)])
        with pytest.raises(ValueError, match="share a processor"):
            mapping.validate(m)

    def test_duplicate_resource(self):
        m = MRSIN(crossbar(2, 2))
        mapping = Mapping([make_assignment(m, 0, 0), make_assignment(m, 1, 0)])
        with pytest.raises(ValueError, match="share a resource"):
            mapping.validate(m)

    def test_busy_resource(self):
        m = MRSIN(crossbar(2, 2))
        mapping = Mapping([make_assignment(m, 0, 0)])
        m.resources[0].busy = True
        with pytest.raises(ValueError, match="busy"):
            mapping.validate(m)

    def test_failed_resource(self):
        m = MRSIN(crossbar(2, 2))
        mapping = Mapping([make_assignment(m, 0, 0)])
        m.set_failed("resource", 0)
        with pytest.raises(ValueError, match="resource 0 has failed"):
            mapping.validate(m)

    def test_type_mismatch(self):
        m = MRSIN(crossbar(2, 2), resource_types=["a", "b"])
        path = tuple(m.network.find_free_path(0, 0))
        mapping = Mapping([
            Assignment(
                request=Request(0, resource_type="b"),
                resource=Resource(0, resource_type="b"),
                path=path,
            )
        ])
        with pytest.raises(ValueError, match="type mismatch"):
            mapping.validate(m)

    def test_occupied_link(self):
        m = MRSIN(omega(8))
        mapping = Mapping([make_assignment(m, 0, 0)])
        m.network.establish_circuit(m.network.find_free_path(0, 0))
        with pytest.raises(ValueError, match="occupied"):
            mapping.validate(m)

    def test_shared_link(self):
        """Find two omega paths (distinct endpoints) sharing an
        internal link; the mapping must be rejected."""
        m = MRSIN(omega(8))
        found = None
        for p2 in range(1, 8):
            for r2 in range(1, 8):
                a1 = make_assignment(m, 0, 0)
                a2 = make_assignment(m, p2, r2)
                if {l.index for l in a1.path} & {l.index for l in a2.path}:
                    found = (a1, a2)
                    break
            if found:
                break
        assert found is not None, "omega(8) must have link-sharing paths"
        with pytest.raises(ValueError, match="share link"):
            Mapping(list(found)).validate(m)


class TestCost:
    def test_allocation_cost(self):
        m = MRSIN(crossbar(2, 2), preferences=[4, 1])
        mapping = Mapping([
            Assignment(Request(0, priority=7), m.resources[0],
                       tuple(m.network.find_free_path(0, 0))),
            Assignment(Request(1, priority=2), m.resources[1],
                       tuple(m.network.find_free_path(1, 1))),
        ])
        # (10-7)+(10-4) + (10-2)+(10-1) = 3+6+8+9 = 26
        assert mapping.allocation_cost(10, 10) == 26

    def test_scheduler_cost_matches_mapping_cost_plus_bypass(self):
        """The flow cost decomposes exactly:
        sum_served [(ymax-y_p) + (qmax-q_w)]
        + sum_bypassed [(ymax-y_p) + 2*penalty + y_p]."""
        from repro.core.transform import bypass_cost

        m = MRSIN(crossbar(2, 2))
        m.resources[1].busy = True
        m.submit(Request(0, priority=3))
        m.submit(Request(1, priority=8))
        sched = OptimalScheduler(mincost="ssp")
        mapping = sched.schedule(m)
        assert mapping.pairs == {(1, 0)}  # urgent request served
        served_cost = mapping.allocation_cost(m.max_priority, m.max_preference)
        bypassed = (m.max_priority - 3) + 2 * bypass_cost(m) + 3  # request p0
        assert sched.stats.flow_cost == pytest.approx(served_cost + bypassed)


class TestDunder:
    def test_len_iter_pairs(self):
        m = MRSIN(crossbar(2, 2))
        mapping = Mapping([make_assignment(m, 0, 1), make_assignment(m, 1, 0)])
        assert len(mapping) == 2
        assert {a.request.processor for a in mapping} == {0, 1}
        assert mapping.pairs == {(0, 1), (1, 0)}
