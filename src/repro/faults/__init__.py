"""Fault injection and chaos testing for the MRSIN stack.

The paper's monitor assumes a healthy network; this subpackage asks
what happens when it isn't.  Components (links, switchboxes,
resources) fail and get repaired; the flow transformations exclude
failed components at capacity 0, so every solve is optimal for the
*surviving* subnetwork, and the allocation service revokes leases
whose circuits a fault severed (see :mod:`repro.service.server`).

- :mod:`repro.faults.injector` — :class:`FaultInjector`: a seeded,
  deterministic Poisson source of permanent and transient
  fault/repair events, driven by the service clock;
- :mod:`repro.faults.chaos` — :func:`run_chaos`: thousands of ticks
  of random fault/repair churn against a live allocation service,
  with the shared invariant set of :mod:`repro.service.invariants`
  (no circuit over a failed link, no lease leak, no lost request,
  warm-start == cold allocation counts) enforced every tick.
  ``python -m repro chaos`` is the CLI wrapper.
"""

from repro.faults.chaos import ChaosReport, run_chaos
from repro.faults.injector import FaultEvent, FaultInjector, apply_event

__all__ = [
    "ChaosReport",
    "FaultEvent",
    "FaultInjector",
    "apply_event",
    "run_chaos",
]
