"""Invariant-aware static analysis for the repro codebase.

The paper's correctness story is a set of *static* facts — flows are
integral (Theorem 2), scheduling is a deterministic function of the
seed, validation survives ``python -O`` — but until this subsystem
they were only enforced dynamically (property tests, a 2000-tick
chaos run).  ``repro.analysis`` moves enforcement to lint time:

- :mod:`repro.analysis.engine` — file walking, AST parsing, the
  ``# repro: noqa RXXX -- justification`` suppression protocol, text
  and JSON reporting;
- :mod:`repro.analysis.rules` — the syntactic rule catalog
  (R001–R005), one class per invariant;
- :mod:`repro.analysis.cfg` — per-function control-flow graphs with
  await points and exception edges, plus a forward-dataflow fixpoint
  solver, reusable by any flow-sensitive rule;
- :mod:`repro.analysis.asyncsafe` — the flow-sensitive async-safety
  rules (R006 await-interleaving races, R008 wire-protocol
  conformance);
- :mod:`repro.analysis.typing_gate` — the strict-mypy configuration
  (strict packages, permissive allowlist that may only shrink) and a
  gated runner for environments without mypy.

``python -m repro lint`` and ``python -m repro typecheck`` are the
CLI wrappers; ``docs/static-analysis.md`` is the human-facing rule
catalog and suppression policy.
"""

from repro.analysis.asyncsafe import (
    AwaitInterleavingRaces,
    WireConformance,
)
from repro.analysis.cfg import CFG, CFGEdge, CFGNode, build_cfg, forward_dataflow
from repro.analysis.engine import (
    Finding,
    LintEngine,
    LintError,
    LintReport,
    META_RULE,
    Suppression,
)
from repro.analysis.rules import Rule, default_rules
from repro.analysis.typing_gate import (
    EXIT_UNAVAILABLE,
    PERMISSIVE_ALLOWLIST,
    STRICT_PACKAGES,
    TypecheckResult,
    mypy_available,
    run_typecheck,
)

__all__ = [
    "AwaitInterleavingRaces",
    "CFG",
    "CFGEdge",
    "CFGNode",
    "EXIT_UNAVAILABLE",
    "Finding",
    "WireConformance",
    "build_cfg",
    "forward_dataflow",
    "LintEngine",
    "LintError",
    "LintReport",
    "META_RULE",
    "PERMISSIVE_ALLOWLIST",
    "Rule",
    "STRICT_PACKAGES",
    "Suppression",
    "TypecheckResult",
    "default_rules",
    "mypy_available",
    "run_typecheck",
]
