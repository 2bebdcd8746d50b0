"""The monitor architecture (Fig. 6): centralized software scheduling.

*"A dedicated monitor is responsible for resource scheduling ... In a
scheduling cycle, a flow network is generated according to the status
of the network.  The optimal request-resource mapping is derived by
the monitor using a flow algorithm implemented in software ... The
implementation is sequential, and the overhead is measured by the
number of instructions executed in the algorithm."*

:class:`MonitorScheduler` wraps the software pipeline
(Transformation 1 → Dinic → mapping extraction) with an
:class:`~repro.util.counters.OpCounter` and converts abstract
operations to an instruction estimate via :data:`INSTRUCTION_WEIGHTS`.
The DIST benchmark compares this against the distributed
architecture's clock count (Section IV's two speedup factors: parallel
path search, and gate delays instead of instruction cycles).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.mapping import Mapping
from repro.core.model import MRSIN
from repro.core.requests import Request
from repro.core.scheduler import OptimalScheduler
from repro.util.counters import OpCounter

__all__ = ["INSTRUCTION_WEIGHTS", "MonitorOutcome", "MonitorScheduler"]

# Instructions charged per abstract flow-algorithm operation.  The
# values are deliberately conservative (small) estimates for a simple
# in-order machine: scanning an arc is a few loads and a compare;
# visiting a node touches queue bookkeeping; augmenting updates flow
# fields along a path.
INSTRUCTION_WEIGHTS: dict[str, float] = {
    "arc_scan": 6.0,
    "node_visit": 8.0,
    "arc_update": 4.0,
    "augmentation": 12.0,
    "backtrack": 4.0,
    "transform_arc": 5.0,   # building the flow network from status
    "extract": 6.0,         # reading the mapping back out
}


@dataclass
class MonitorOutcome:
    """Result of one monitor scheduling cycle.

    Attributes
    ----------
    mapping:
        The optimal mapping (identical in size to the distributed
        architecture's — both are exact).
    operations:
        Raw operation counts by category.
    instructions:
        Weighted instruction estimate (the paper's cost unit for the
        monitor architecture).
    """

    mapping: Mapping
    operations: OpCounter
    instructions: float


class MonitorScheduler:
    """Centralized monitor running the flow algorithm in software.

    The algorithms are the paper's, Dinic and out-of-kilter on the
    object graph, named rather than inherited from
    :class:`OptimalScheduler`'s defaults (the flat-array kernel) — the
    instruction estimate is a statement about those, not a knob.
    """

    def schedule(
        self, mrsin: MRSIN, requests: Sequence[Request] | None = None
    ) -> MonitorOutcome:
        """Run one scheduling cycle, charging an instruction budget.

        The transformation and extraction steps are charged too: the
        monitor must serially read network status and write switch
        settings, work the distributed architecture gets for free.
        """
        counter = OpCounter()
        scheduler = OptimalScheduler(maxflow="dinic", mincost="out_of_kilter", counter=counter)
        mapping = scheduler.schedule(mrsin, requests)
        # Charge the serial transformation (one op per link scanned)
        # and extraction (one op per path link written back).
        counter.charge("transform_arc", len(mrsin.network.links))
        counter.charge("extract", sum(len(a.path) for a in mapping.assignments))
        return MonitorOutcome(
            mapping=mapping,
            operations=counter,
            instructions=counter.total(INSTRUCTION_WEIGHTS),
        )
