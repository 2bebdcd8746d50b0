"""Deterministic cell placement and the fabric-wide name space.

A fabric partitions ``cells * ports`` processors (and as many
resources) into ``cells`` equal shards.  Each shard gets a stable
**cell id** derived from its label with
:func:`repro.util.labels.label_tag` — a SHA-256 tag, *never* builtin
``hash``, which is salted per process and would give every cell
process a different idea of the namespace.  Fabric-wide lease names
are ``"{cell_id}:{local_id}"``; spilled requests enter their host cell
on a **gateway port** chosen by the same stable hash so routing is
reproducible across runs and across processes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.networks import build_network
from repro.networks.topology import MultistageNetwork
from repro.util.labels import label_hash, label_tag

__all__ = ["CellPlacement", "FabricPartition", "gateway_port"]


def gateway_port(req_id: int, ports: int) -> int:
    """The local input port a spilled request enters its host cell on.

    Derived from the fabric-wide request id with a stable hash, so the
    broker (which picks the port) and any replay of the run agree.
    """
    if ports < 1:
        raise ValueError(f"ports must be >= 1, got {ports}")
    return label_hash(f"spill:{req_id}", bits=32) % ports


@dataclass(frozen=True)
class CellPlacement:
    """One cell's place in the fabric.

    Attributes
    ----------
    index:
        Dense cell index ``0..n_cells-1`` (wire-protocol addressing).
    label:
        Human-readable label, e.g. ``"omega-32#3"``.
    cell_id:
        Stable hex tag of the label — the lease-namespace prefix.
    """

    index: int
    label: str
    cell_id: str


class FabricPartition:
    """An equal split of a large installation into identical cells.

    Every cell runs the same topology at the same radix, so the spill
    tier may treat spare capacity as fungible across cells.  Requests
    are addressed by ``(cell, local port)``: the fabric never names a
    processor fabric-wide.
    """

    def __init__(self, topology: str, ports: int, n_cells: int) -> None:
        if ports < 2:
            raise ValueError(f"ports must be >= 2, got {ports}")
        if n_cells < 1:
            raise ValueError(f"n_cells must be >= 1, got {n_cells}")
        self.topology = topology
        self.ports = ports
        self.n_cells = n_cells
        # Not every topology realises every size, and a cell process
        # dying on its first out-of-range port is the wrong place to
        # learn it: probe-build one cell network here.
        self.build_network()
        self.cells: tuple[CellPlacement, ...] = tuple(
            CellPlacement(
                index=i,
                label=f"{topology}-{ports}#{i}",
                cell_id=label_tag(f"{topology}-{ports}#{i}"),
            )
            for i in range(n_cells)
        )
        ids = {placement.cell_id for placement in self.cells}
        if len(ids) != n_cells:  # 8-hex-char tag collision: astronomically rare
            raise ValueError(
                f"cell_id collision across {n_cells} cells of {topology}-{ports}"
            )

    def build_network(self) -> MultistageNetwork:
        """A fresh intra-cell network instance (one per cell process)."""
        return build_network(self.topology, self.ports)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FabricPartition({self.topology}-{self.ports} x {self.n_cells})"
        )
