"""Fault injection for the MRSIN stack.

The paper's monitor assumes a healthy network; this subpackage asks
what happens when it isn't.  Components (links, switchboxes,
resources) fail and get repaired; the flow transformations exclude
failed components at capacity 0, so every solve is optimal for the
*surviving* subnetwork, and the allocation service revokes leases
whose circuits a fault severed (see :mod:`repro.service.server`).

- :mod:`repro.faults.injector` — :class:`FaultInjector`: a seeded,
  deterministic Poisson source of permanent and transient
  fault/repair events, driven by the service clock.  Churn against a
  live service is ``run_service(spec, fault_rate=...)``
  (:mod:`repro.service.driver`; ``python -m repro serve --fault-rate``).
"""

from repro.faults.injector import FaultEvent, FaultInjector, apply_event

__all__ = [
    "FaultEvent",
    "FaultInjector",
    "apply_event",
]
