"""Blocking-probability estimation — the SIM-BLOCK experiment engine.

Blocking probability follows the paper's notion: of the
``min(#requests, #free resources)`` allocations an ideal nonblocking
network could make, the fraction a policy fails to make because of
circuit blockages.  Policies:

- ``"optimal"`` — the flow-based :class:`~repro.core.scheduler.OptimalScheduler`;
- ``"distributed"`` — the token-propagation architecture (identical
  optimum; included to cross-check the hardware path end to end);
- ``"greedy"`` — address-mapped first-fit with retry over free
  resources;
- ``"random_binding"`` — pure address mapping: random binding, no
  retry (the paper's ~20% heuristic);
- ``"arbitrary"`` — i-th request to i-th free resource (the paper's
  "arbitrary mapping", used in the extra-stage experiment).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.core.heuristic import arbitrary_schedule, greedy_schedule, random_binding_schedule
from repro.core.mapping import Mapping
from repro.core.model import MRSIN
from repro.core.scheduler import OptimalScheduler
from repro.distributed.simulator import DistributedScheduler
from repro.sim.metrics import wilson_interval
from repro.sim.workload import WorkloadSpec, sample_instance
from repro.util.rng import spawn_rngs

__all__ = ["POLICIES", "BlockingEstimate", "estimate_blocking"]


#: ``name -> policy(mrsin, rng) -> Mapping``: the one scheduling-policy
#: dispatch.  ``repro schedule`` / ``blocking`` / ``sweep`` and
#: :func:`~repro.sim.queueing.simulate_queueing` all resolve names here;
#: the deterministic policies ignore ``rng``.
POLICIES: dict[str, Callable[[MRSIN, np.random.Generator], Mapping]] = {
    "optimal": lambda mrsin, rng: OptimalScheduler().schedule(mrsin),
    "distributed": lambda mrsin, rng: DistributedScheduler().schedule(mrsin).mapping,
    "greedy": lambda mrsin, rng: greedy_schedule(mrsin, order="random", rng=rng),
    "random_binding": lambda mrsin, rng: random_binding_schedule(mrsin, rng=rng),
    "arbitrary": lambda mrsin, rng: arbitrary_schedule(mrsin),
}


def _ideal_allocations(mrsin: MRSIN) -> int:
    """Allocations an ideal nonblocking network could make:
    ``sum over types of min(#requests, #free resources)``."""
    reqs_by_type: dict = {}
    for req in mrsin.schedulable_requests():
        reqs_by_type[req.resource_type] = reqs_by_type.get(req.resource_type, 0) + 1
    total = 0
    for rtype, n_req in reqs_by_type.items():
        total += min(n_req, len(mrsin.free_resources(rtype)))
    return total


@dataclass
class BlockingEstimate:
    """Monte Carlo estimate of a policy's blocking probability.

    Attributes
    ----------
    policy:
        Policy name (a :data:`POLICIES` key).
    blocked, possible:
        Total blocked allocations over total possible allocations.
    trials:
        Number of instances sampled.
    """

    policy: str
    blocked: int
    possible: int
    trials: int

    @property
    def probability(self) -> float:
        """Point estimate of the blocking probability."""
        return self.blocked / self.possible if self.possible else 0.0

    @property
    def ci95(self) -> tuple[float, float]:
        """Wilson 95% interval for the blocking probability."""
        if self.possible == 0:
            return (0.0, 0.0)
        return wilson_interval(self.blocked, self.possible)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        lo, hi = self.ci95
        return (
            f"BlockingEstimate({self.policy}: {self.probability:.3f} "
            f"[{lo:.3f}, {hi:.3f}], n={self.trials})"
        )


def estimate_blocking(
    spec: WorkloadSpec,
    policy: str,
    *,
    trials: int = 100,
    seed: int | np.random.Generator | None = None,
) -> BlockingEstimate:
    """Estimate a policy's blocking probability under ``spec``.

    Each trial samples a fresh instance (instance randomness and
    policy randomness drawn from independent child streams so policies
    can be compared on identical instance sequences by fixing
    ``seed``).
    """
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}; choose from {sorted(POLICIES)}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    run = POLICIES[policy]
    instance_rngs = spawn_rngs(seed, trials)
    blocked = 0
    possible = 0
    for i in range(trials):
        instance_seed, policy_rng = spawn_rngs(instance_rngs[i], 2)
        mrsin = sample_instance(spec, instance_seed)
        ideal = _ideal_allocations(mrsin)
        if ideal == 0:
            continue
        blocked += ideal - len(run(mrsin, policy_rng))
        possible += ideal
    return BlockingEstimate(policy=policy, blocked=blocked, possible=possible, trials=trials)
