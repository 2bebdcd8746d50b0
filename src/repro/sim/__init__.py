"""Monte Carlo evaluation substrate for the paper's simulation claims.

The paper quotes simulation results ([22], [44], [45]) — blocking
probability *"as low as 2 percent"* for optimal scheduling on an 8x8
cube MRSIN, *"less than 5 percent"* on the Omega, *"around 20
percent"* for heuristic routing.  The authors' exact workloads are not
published in this paper, so this subpackage rebuilds the experiment:

- :mod:`repro.sim.workload` — random request/free-resource patterns,
  pre-occupied circuits, priority and type samplers (the system
  builder and request draw the service driver shares);
- :mod:`repro.sim.blocking` — blocking-probability estimation for any
  scheduler policy, with sweep drivers;
- :mod:`repro.sim.queueing` — a discrete-event model of the Section II
  task lifecycle (queue → transmit → serve) for utilization and
  response-time experiments;
- :mod:`repro.sim.metrics` — summary statistics and binomial
  confidence intervals;
- :mod:`repro.sim.runner` — parameter sweeps rendered as paper-style
  tables.
"""

from repro.sim.workload import (
    WorkloadSpec,
    build_mrsin,
    draw_request,
    sample_instance,
    occupy_random_circuits,
)
from repro.sim.blocking import BlockingEstimate, estimate_blocking, POLICIES
from repro.sim.metrics import wilson_interval
from repro.sim.queueing import QueueingResult, simulate_queueing
from repro.sim.runner import sweep, SweepResult

__all__ = [
    "WorkloadSpec",
    "build_mrsin",
    "draw_request",
    "sample_instance",
    "occupy_random_circuits",
    "BlockingEstimate",
    "estimate_blocking",
    "POLICIES",
    "wilson_interval",
    "QueueingResult",
    "simulate_queueing",
    "sweep",
    "SweepResult",
]
