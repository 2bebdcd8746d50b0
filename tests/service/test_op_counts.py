"""The allocation-trace streams' solver steps, pinned per OpCounter category.

``tests/service/test_allocation_trace.py`` pins *which* grants its three
seeded streams (transient faults, two-phase leases, cancels, deadlines)
make; the driver digests pin ``repro serve`` output.  Neither pins how
much work the tick's solve did.  This runs the same streams and asserts
every final category of the service's :class:`~repro.util.counters.OpCounter`,
recorded before the tick solve stopped carrying a flow from one cycle
to the next: the per-cycle lowering must take the same Dinic steps
(node visits, arc scans, augmentations, arc updates) on streams with
many fault and repair events.
"""

import asyncio

import pytest

from repro.service.server import AllocationService
from tests.service import test_allocation_trace as trace

#: stream name -> final ``service.counter.counts``.
GOLDEN_OPS = {
    "benes-16": {
        "arc_scan": 168885, "arc_update": 16014, "augmentation": 1600,
        "extract": 12800, "node_visit": 68530, "transform_arc": 40960,
    },
    "clos-16": {
        "arc_scan": 190256, "arc_update": 9312, "augmentation": 1552,
        "extract": 6208, "node_visit": 41059, "transform_arc": 51200,
    },
    "omega-64": {
        "arc_scan": 712368, "arc_update": 61369, "augmentation": 6805,
        "extract": 47635, "node_visit": 284358, "transform_arc": 143360,
    },
}


@pytest.mark.parametrize("name", sorted(GOLDEN_OPS))
def test_trace_stream_op_counts_are_pinned(name, monkeypatch):
    services = []

    class Recording(AllocationService):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            services.append(self)

    monkeypatch.setattr(trace, "AllocationService", Recording)
    builder, seed, *_ = trace.GOLDEN[name]
    asyncio.run(trace._trace(builder(), seed))
    (service,) = services
    assert dict(service.counter.counts) == GOLDEN_OPS[name]
