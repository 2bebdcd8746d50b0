"""Partition and namespace tests: stable ids, gateway ports."""

import pytest

from repro.fabric.partition import FabricPartition, gateway_port
from repro.util.labels import label_tag


class TestPartition:
    def test_cell_ids_are_stable_label_tags(self):
        """Cell ids must be stable hashes of the label, not enumeration
        order or builtin hash() — every cell process must agree."""
        part = FabricPartition("omega", 16, 2)
        assert part.cells[0].cell_id == label_tag("omega-16#0")
        assert part.cells[1].cell_id == label_tag("omega-16#1")
        again = FabricPartition("omega", 16, 2)
        assert [p.cell_id for p in again.cells] == [
            p.cell_id for p in part.cells
        ]

    def test_cell_ids_distinct_across_shape(self):
        """Different topology/radix/index always means a different id."""
        ids = {
            p.cell_id
            for topology in ("omega", "benes")
            for ports in (8, 16)
            for p in FabricPartition(topology, ports, 4).cells
        }
        assert len(ids) == 16

    def test_build_network_matches_radix(self):
        part = FabricPartition("omega", 8, 2)
        net = part.build_network()
        assert net.n_processors == 8
        assert net.n_resources == 8

    def test_validation(self):
        with pytest.raises(ValueError):
            FabricPartition("nope", 8, 2)
        with pytest.raises(ValueError):
            FabricPartition("omega", 1, 2)
        with pytest.raises(ValueError):
            FabricPartition("omega", 8, 0)

    @pytest.mark.parametrize(
        "topology,ports,complaint",
        [("omega", 6, "power of two"), ("clos", 7, "6x6")],
    )
    def test_rejects_a_size_the_topology_cannot_build(self, topology, ports, complaint):
        """omega-6 raises in the builder and clos-7 silently builds 6x6
        (the first request for port 6 would kill the cell process):
        both must fail at partition time, before anything is spawned."""
        with pytest.raises(ValueError, match=complaint):
            FabricPartition(topology, ports, 2)


class TestGatewayPort:
    def test_stable_and_in_range(self):
        ports = [gateway_port(req_id, 16) for req_id in range(200)]
        assert all(0 <= p < 16 for p in ports)
        assert ports == [gateway_port(req_id, 16) for req_id in range(200)]

    def test_spreads_over_ports(self):
        """The gateway hash must not funnel all spills into one port."""
        ports = {gateway_port(req_id, 16) for req_id in range(200)}
        assert len(ports) >= 12

    def test_rejects_empty_cell(self):
        with pytest.raises(ValueError):
            gateway_port(1, 0)
