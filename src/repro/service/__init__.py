"""Online batched allocation service — monitor-as-a-service.

The paper's monitor architecture (Fig. 6) runs one flow solve per
scheduling cycle over a static snapshot.  This subpackage serves the
same optimal scheduling *online*: requests arrive, queue, batch into
one solve per tick, receive leases, and release — the sustained-load
regime the ROADMAP's production north-star calls for.

- :mod:`repro.service.server` — :class:`AllocationService` with
  ``acquire``/``submit``/``release``, batching loop, admission control
  and backpressure;
- :mod:`repro.service.clock` — wall-time and deterministic virtual
  clocks;
- :mod:`repro.service.metrics` — queue/wait/batch/solver-cost
  counters;
- :mod:`repro.service.driver` — seeded finite-horizon runs
  (``python -m repro serve`` is a thin wrapper).
"""

from repro.service.clock import Clock, MonotonicClock, VirtualClock
from repro.service.driver import ServiceRunResult, run_service
from repro.service.metrics import ServiceMetrics
from repro.service.server import (
    AllocationError,
    AllocationRejected,
    AllocationService,
    AllocationTimeout,
    Lease,
    LeaseRevoked,
    ServiceClosed,
    ServiceConfig,
    ServiceFaulted,
    Ticket,
)

__all__ = [
    "AllocationError",
    "AllocationRejected",
    "AllocationService",
    "AllocationTimeout",
    "Clock",
    "Lease",
    "LeaseRevoked",
    "MonotonicClock",
    "ServiceClosed",
    "ServiceConfig",
    "ServiceFaulted",
    "ServiceMetrics",
    "ServiceRunResult",
    "Ticket",
    "VirtualClock",
    "run_service",
]
