"""The paper's core contribution: optimal resource scheduling in MRSINs.

This subpackage turns the scheduling disciplines of Section III into
code:

- :mod:`repro.core.requests` — requests, resources, priorities and
  preferences (the model of Section II);
- :mod:`repro.core.model` — the :class:`MRSIN` state machine binding a
  :class:`~repro.networks.topology.MultistageNetwork` to a resource
  pool and a request queue;
- :mod:`repro.core.transform` — Transformations 1 and 2 and the
  heterogeneous (multicommodity) superposition, plus the inverse map
  from integral flows back to circuits (Theorems 1–3);
- :mod:`repro.core.scheduler` — the :class:`OptimalScheduler` facade
  dispatching per Table II;
- :mod:`repro.core.incremental` — the warm-start
  :class:`KernelFlowEngine` persisting one Transformation-1 network,
  lowered onto the flat-array kernel, across scheduling cycles;
- :mod:`repro.core.heuristic` — address-mapped greedy comparators
  (the paper's "heuristic routing", ~20% blocking);
- :mod:`repro.core.mapping` — request→resource mappings with their
  circuit paths.
"""

from repro.core.requests import DEFAULT_TYPE, Request, Resource
from repro.core.model import MRSIN
from repro.core.mapping import Assignment, Mapping
from repro.core.transform import (
    TransformedProblem,
    transformation1,
    transformation2,
    heterogeneous_max_problem,
    heterogeneous_min_cost_problem,
    extract_mapping,
    extract_multicommodity_mapping,
)
from repro.core.incremental import KernelFlowEngine
from repro.core.scheduler import Discipline, OptimalScheduler
from repro.core.heuristic import greedy_schedule, arbitrary_schedule, random_binding_schedule
from repro.core.exhaustive import exhaustive_schedule, count_candidate_mappings

__all__ = [
    "DEFAULT_TYPE",
    "Request",
    "Resource",
    "MRSIN",
    "Assignment",
    "Mapping",
    "TransformedProblem",
    "transformation1",
    "transformation2",
    "heterogeneous_max_problem",
    "heterogeneous_min_cost_problem",
    "extract_mapping",
    "extract_multicommodity_mapping",
    "Discipline",
    "KernelFlowEngine",
    "OptimalScheduler",
    "greedy_schedule",
    "arbitrary_schedule",
    "random_binding_schedule",
    "exhaustive_schedule",
    "count_candidate_mappings",
]
