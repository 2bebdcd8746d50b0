"""Network-flow substrate built from scratch for the RSIN reproduction.

The paper reduces every resource-scheduling discipline to a network
flow problem (its Table II):

=====================================  =================================
Scheduling discipline                  Flow problem / algorithm
=====================================  =================================
Homogeneous, no priority               Max flow — Ford–Fulkerson, Dinic
Homogeneous, priority & preference     Min-cost flow — out-of-kilter
Heterogeneous, restricted topology     Multicommodity LP — Simplex
Heterogeneous, general topology        Integer multicommodity (NP-hard)
=====================================  =================================

This subpackage implements all of those solvers natively (NetworkX is
used only as a cross-check oracle in the test suite).  Each solver
kept has a named job — the paper's method for a Table II row, the
production kernel, or the structurally independent check another one
is tested against:

- :mod:`repro.flows.graph` — the :class:`FlowNetwork` digraph.
- :mod:`repro.flows.maxflow` — Ford–Fulkerson labeling (BFS/DFS),
  Table II's named method and the tests' max-flow oracle.
- :mod:`repro.flows.dinic` — Dinic's algorithm with explicit layered
  networks (the object realized in hardware by Section IV).
- :mod:`repro.flows.kernel` — the flat-int-array CSR kernel, the
  production path for both homogeneous rows and the certified
  heterogeneous one: Dinic max flow (the serving hot path, and one
  solve per type for typed requests) and primal-dual min-cost flow
  (the default for priority scheduling), and the fabric's spill
  solve.  Its callers build it directly: the scheduler and the tick
  engine copy a network's wiring-time layout
  (``repro.core.transform.lower_to_kernel``), the spill tier wires its
  own (``repro.fabric.spill.build_spill_network``); the object solvers
  remain the teaching/differential oracle, and
  ``FlowNetwork.compile()`` is left only for a benchmark stage.
- :mod:`repro.flows.push_relabel` — preflow-push, the max-flow method
  that shares no augmenting-path logic with the others (``bench/``'s
  independent check).
- :mod:`repro.flows.mincut` — min-cut extraction / optimality proof.
- :mod:`repro.flows.out_of_kilter` — Fulkerson's out-of-kilter method,
  the algorithm the paper names for priority scheduling: the kernel's
  differential oracle and what the monitor cost model counts.
- :mod:`repro.flows.mincost` — object-graph successive shortest
  paths, the independent solver ``bench/`` checks the default's
  count and cost against; also the entries' shared call contract.
- :mod:`repro.flows.lp` / :mod:`repro.flows.simplex` — a
  bounded-variable primal Simplex solver.
- :mod:`repro.flows.multicommodity` — multicommodity max-flow and
  min-cost-flow via the LP formulations of Section III-D, with a
  branch-and-bound fallback for integral solutions.
"""

from repro.flows.graph import Arc, FlowNetwork
from repro.flows.kernel import CompiledNetwork, FlowKernel
from repro.flows.maxflow import MaxFlowResult, edmonds_karp, ford_fulkerson
from repro.flows.push_relabel import push_relabel
from repro.flows.dinic import LayeredNetwork, DinicResult, build_layered_network, dinic
from repro.flows.mincut import MinCut, min_cut
from repro.flows.mincost import MinCostResult, min_cost_flow
from repro.flows.out_of_kilter import out_of_kilter
from repro.flows.lp import LinearProgram, LPResult, LPStatus
from repro.flows.simplex import simplex_solve
from repro.flows.multicommodity import (
    Commodity,
    MultiCommodityProblem,
    MultiCommodityResult,
    solve_max_multicommodity,
    solve_min_cost_multicommodity,
    solve_integral_multicommodity,
)
from repro.flows.validate import check_flow, is_integral

__all__ = [
    "Arc",
    "FlowNetwork",
    "CompiledNetwork",
    "FlowKernel",
    "MaxFlowResult",
    "edmonds_karp",
    "ford_fulkerson",
    "push_relabel",
    "LayeredNetwork",
    "DinicResult",
    "build_layered_network",
    "dinic",
    "MinCut",
    "min_cut",
    "MinCostResult",
    "min_cost_flow",
    "out_of_kilter",
    "LinearProgram",
    "LPResult",
    "LPStatus",
    "simplex_solve",
    "Commodity",
    "MultiCommodityProblem",
    "MultiCommodityResult",
    "solve_max_multicommodity",
    "solve_min_cost_multicommodity",
    "solve_integral_multicommodity",
    "check_flow",
    "is_integral",
]
