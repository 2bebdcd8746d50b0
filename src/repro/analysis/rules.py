"""The repo-specific lint rules, one class per invariant.

Each rule guards an invariant the paper (and the PR history) showed to
be load-bearing.  Rules are pure AST visitors: no imports of the
checked code, no type inference — every check is decidable from the
source text alone, so ``repro lint`` is fast and has no false
"works on my machine" modes.

==== =====================================================================
Id   Invariant
==== =====================================================================
R001 validation must survive ``python -O`` (no ``assert`` in ``src/``)
R002 scheduling is deterministic (no wall clock, no unseeded RNG,
     no iteration over unordered sets)
R003 flows stay integral — Theorem 2 (no float literals/coercions
     touching ``flow``/``capacity``/``lower`` in flow arithmetic)
R004 module encapsulation (no cross-module ``_private`` reach-ins)
R005 asyncio hygiene in ``service/`` and ``wire/`` (no blocking calls /
     solver loops without a yield point inside ``async def``)
R006 no shared-state read-modify-write spanning an ``await``
     (flow-sensitive; see :mod:`repro.analysis.asyncsafe`)
R008 ``wire/server.py`` conforms to the request→reply state machine
     declared by ``wire/protocol.py`` (see
     :mod:`repro.analysis.asyncsafe`)
==== =====================================================================

R001–R005 are single-function syntactic visitors defined below;
R006 and R008 are flow-sensitive and live in
:mod:`repro.analysis.asyncsafe`, built on the CFG/dataflow core in
:mod:`repro.analysis.cfg`.  The rule catalog with rationale and
examples lives in ``docs/static-analysis.md``.
"""

from __future__ import annotations

import ast
from typing import Iterator, Sequence

from repro.analysis.engine import Finding, ModuleContext

__all__ = [
    "Rule",
    "AssertIsNotValidation",
    "DeterministicScheduling",
    "IntegralFlows",
    "ModuleEncapsulation",
    "AsyncioHygiene",
    "default_rules",
]

#: Packages whose coroutines share the service's event loop (R005, R006).
ASYNC_SCOPE = ("service/", "wire/", "fabric/")


class Rule:
    """Base class: a stable id, a scope predicate, and a checker."""

    id: str = "R999"
    title: str = ""

    def applies(self, modpath: str) -> bool:
        """Whether this rule runs on the module at ``modpath``."""
        return True

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        """Yield findings for ``ctx``; must not mutate the context."""
        raise NotImplementedError

    def finding(self, ctx: ModuleContext, node: ast.AST, message: str) -> Finding:
        """A :class:`Finding` anchored at ``node``."""
        return Finding(
            self.id, ctx.path,
            getattr(node, "lineno", 1), getattr(node, "col_offset", 0),
            message,
        )


class AssertIsNotValidation(Rule):
    """R001 — ``assert`` is stripped by ``python -O``; raise instead.

    PR 2's bug class: scheduler integrality checks written as asserts
    silently vanished under ``-O``, so the ``-O`` CI tier validated
    nothing.  Library code must use real raises with descriptive
    messages; tests (which never run under ``-O`` in this repo's CI
    tiers that matter) are out of scope because they live outside
    ``src/``.
    """

    id = "R001"
    title = "no bare assert for runtime validation"

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Assert):
                yield self.finding(
                    ctx, node,
                    "bare assert is stripped under 'python -O'; raise a real "
                    "exception with a descriptive message instead",
                )


def _call_chain(node: ast.AST) -> str:
    """Dotted name of a call target (``np.random.default_rng``), or ''."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


class DeterministicScheduling(Rule):
    """R002 — scheduling decisions must be reproducible from the seed.

    Every benchmark, differential test (warm vs cold), and chaos run
    relies on byte-identical reruns.  Flagged:

    - ``import random`` / ``from random import ...`` (global,
      unseedable-per-run state);
    - wall-clock reads: ``time.time()``, ``time.time_ns()``,
      ``datetime.now()/utcnow()/today()``, ``date.today()``;
    - numpy legacy global RNG (``np.random.rand`` etc.) and unseeded
      ``np.random.default_rng()``;
    - iteration over syntactically-certain unordered containers (set
      literals, set comprehensions, ``set(...)``/``frozenset(...)``
      calls) in ``for`` statements and comprehensions — hash order
      feeding a scheduling decision is a heisenbug factory.

    ``util/rng.py`` (the sanctioned seed funnel) and
    ``service/clock.py`` (the sanctioned clock) are exempt.
    """

    id = "R002"
    title = "deterministic scheduling (seeded RNG, no wall clock)"

    EXEMPT = ("util/rng.py", "service/clock.py")
    WALL_CLOCK = {
        "time.time", "time.time_ns",
        "datetime.now", "datetime.utcnow", "datetime.today",
        "datetime.datetime.now", "datetime.datetime.utcnow",
        "datetime.date.today", "date.today",
    }

    def applies(self, modpath: str) -> bool:
        return modpath not in self.EXEMPT

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "random" or alias.name.startswith("random."):
                        yield self.finding(
                            ctx, node,
                            "stdlib 'random' uses hidden global state; take a "
                            "seed and go through repro.util.rng.make_rng",
                        )
            elif isinstance(node, ast.ImportFrom):
                if node.module == "random":
                    yield self.finding(
                        ctx, node,
                        "stdlib 'random' uses hidden global state; take a "
                        "seed and go through repro.util.rng.make_rng",
                    )
            elif isinstance(node, ast.Call):
                chain = _call_chain(node.func)
                if chain in self.WALL_CLOCK:
                    yield self.finding(
                        ctx, node,
                        f"wall-clock read '{chain}()' makes runs "
                        "unreproducible; thread the service Clock (or a "
                        "virtual tick) instead",
                    )
                elif chain.startswith(("np.random.", "numpy.random.")):
                    tail = chain.rsplit(".", 1)[1]
                    if tail == "default_rng" and not (node.args or node.keywords):
                        yield self.finding(
                            ctx, node,
                            "unseeded np.random.default_rng(); pass a seed or "
                            "use repro.util.rng.make_rng",
                        )
                    elif tail not in {"default_rng", "Generator", "SeedSequence"}:
                        yield self.finding(
                            ctx, node,
                            f"numpy legacy global RNG 'np.random.{tail}'; use "
                            "a seeded Generator from repro.util.rng",
                        )
            for iter_node in self._iteration_targets(node):
                if self._is_unordered(iter_node):
                    yield self.finding(
                        ctx, iter_node,
                        "iteration over an unordered set: hash order leaks "
                        "into scheduling decisions; sort it or keep a list",
                    )

    @staticmethod
    def _iteration_targets(node: ast.AST) -> Sequence[ast.expr]:
        if isinstance(node, ast.For):
            return [node.iter]
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
            return [gen.iter for gen in node.generators]
        return ()

    @staticmethod
    def _is_unordered(expr: ast.expr) -> bool:
        if isinstance(expr, (ast.Set, ast.SetComp)):
            return True
        if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Name):
            return expr.func.id in {"set", "frozenset"}
        return False


class IntegralFlows(Rule):
    """R003 — Theorem 2 needs *exact* integer flows end to end.

    Max-flow = max-allocation only holds when augmentation is exact:
    one float rounding error and ``decompose_paths`` either invents or
    drops a circuit.  Within the flow-arithmetic modules (``flows/``,
    ``core/transform.py``, ``core/incremental.py``) this rule flags:

    - ``float`` annotations (or float-literal defaults) on the
      flow-carrying names ``flow`` / ``capacity`` / ``lower`` /
      ``target_flow`` / ``flow_limit``;
    - assignments (plain or augmented) to ``.flow`` / ``.capacity`` /
      ``.lower`` attributes whose right-hand side contains a float
      literal or a ``float(...)`` call;
    - ``float(...)`` coercion of any flow-carrying name or attribute;
    - flow-valued functions (name contains ``flow`` but not ``cost``)
      annotated ``-> float`` or returning a float literal — the bug
      class behind the PR-7 sweep: ``blocking_flow(...) -> float`` and
      ``return 0.0`` quietly re-floated values the arc fields kept
      integral.

    Cost arithmetic is deliberately out of scope: min-cost runs on
    float costs/potentials (the paper's ``w(e)``), and the LP modules
    (``flows/lp.py``, ``flows/multicommodity.py``) are a relaxation
    whose extraction step re-establishes integrality — they are exempt
    from the return-type checks.
    """

    id = "R003"
    title = "integral flow arithmetic (Theorem 2)"

    SCOPE_PREFIX = "flows/"
    SCOPE_FILES = {"core/transform.py", "core/incremental.py"}
    # The LP relaxation legitimately traffics in fractional flows.
    RELAXATION_FILES = {"flows/lp.py", "flows/multicommodity.py"}
    FLOW_ATTRS = {"flow", "capacity", "lower"}
    FLOW_NAMES = FLOW_ATTRS | {"target_flow", "flow_limit"}

    def applies(self, modpath: str) -> bool:
        return modpath.startswith(self.SCOPE_PREFIX) or modpath in self.SCOPE_FILES

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            yield from self._check_annotations(ctx, node)
            if ctx.modpath not in self.RELAXATION_FILES:
                yield from self._check_flow_returns(ctx, node)
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                if any(
                    isinstance(t, ast.Attribute) and t.attr in self.FLOW_ATTRS
                    for t in targets
                ) and self._has_float(node.value):
                    yield self.finding(
                        ctx, node,
                        "float value assigned to a flow-carrying attribute; "
                        "flows/capacities/lower bounds must stay int "
                        "(Theorem 2 integrality)",
                    )
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "float"
                and len(node.args) == 1
                and self._is_flow_name(node.args[0])
            ):
                yield self.finding(
                    ctx, node,
                    "float(...) coercion of a flow quantity; keep it int "
                    "(Theorem 2 integrality)",
                )

    def _check_annotations(self, ctx: ModuleContext, node: ast.AST) -> Iterator[Finding]:
        if isinstance(node, ast.AnnAssign):
            name = self._target_name(node.target)
            if name in self.FLOW_NAMES and self._annotates_float(node.annotation):
                yield self.finding(
                    ctx, node,
                    f"'{name}' annotated float; flow-carrying fields are int "
                    "(Theorem 2 integrality)",
                )
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            a = node.args
            for arg in [*a.posonlyargs, *a.args, *a.kwonlyargs]:
                if arg.arg in self.FLOW_NAMES and self._annotates_float(arg.annotation):
                    yield Finding(
                        self.id, ctx.path, arg.lineno, arg.col_offset,
                        f"parameter '{arg.arg}' annotated float; flow "
                        "quantities are int (Theorem 2 integrality)",
                    )

    def _check_flow_returns(self, ctx: ModuleContext, node: ast.AST) -> Iterator[Finding]:
        """Flag float leaks at the return boundary of flow functions.

        A function whose name mentions ``flow`` (and not ``cost``)
        computes a flow value; annotating it ``-> float`` or returning
        a float literal re-floats a quantity the arc fields keep
        integral, and the coercion survives every downstream ``==``
        check right up until a half unit appears.
        """
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return
        name = node.name.lower()
        if "flow" not in name or "cost" in name:
            return
        if self._annotates_float(node.returns):
            yield self.finding(
                ctx, node,
                f"flow-valued function '{node.name}' annotated '-> float'; "
                "flow values are int (Theorem 2 integrality)",
            )
        for sub in self._walk_own_body(node):
            if (
                isinstance(sub, ast.Return)
                and sub.value is not None
                and self._has_float(sub.value)
            ):
                yield self.finding(
                    ctx, sub,
                    f"float literal returned from flow-valued function "
                    f"'{node.name}'; return an int (Theorem 2 integrality)",
                )

    @staticmethod
    def _walk_own_body(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> Iterator[ast.AST]:
        """Walk ``fn`` without descending into nested function defs."""
        stack: list[ast.AST] = list(fn.body)
        while stack:
            node = stack.pop()
            yield node
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                stack.extend(ast.iter_child_nodes(node))

    @staticmethod
    def _target_name(target: ast.expr) -> str:
        if isinstance(target, ast.Name):
            return target.id
        if isinstance(target, ast.Attribute):
            return target.attr
        return ""

    @staticmethod
    def _annotates_float(ann: ast.expr | None) -> bool:
        """True when the annotation is or contains bare ``float``.

        ``float | None`` counts; ``int | float`` counts too — a flow
        field that *may* be float is one rounding away from fractional.
        """
        if ann is None:
            return False
        return any(
            isinstance(sub, ast.Name) and sub.id == "float"
            for sub in ast.walk(ann)
        )

    @classmethod
    def _has_float(cls, expr: ast.expr) -> bool:
        for sub in ast.walk(expr):
            if isinstance(sub, ast.Constant) and isinstance(sub.value, float):
                return True
            if (
                isinstance(sub, ast.Call)
                and isinstance(sub.func, ast.Name)
                and sub.func.id == "float"
            ):
                return True
        return False

    @classmethod
    def _is_flow_name(cls, expr: ast.expr) -> bool:
        if isinstance(expr, ast.Name):
            return expr.id in cls.FLOW_NAMES
        if isinstance(expr, ast.Attribute):
            return expr.attr in cls.FLOW_ATTRS
        return False


class ModuleEncapsulation(Rule):
    """R004 — ``_private`` state is module-private, not repo-private.

    The warm-start engine's O(E) sync scan assumes nothing outside
    :mod:`repro.flows.graph` / :mod:`repro.core.incremental` /
    :mod:`repro.core.model` mutates their internals behind their
    backs; a cross-module ``obj._attr`` reach-in is exactly such a
    back door (PR 3's leaked-lease bug rode one).  Accessing ``_x``
    on ``self``/``cls``, or on another instance *inside the module
    that owns the attribute* (Rust-style module privacy — e.g.
    ``copy()`` wiring up a sibling), is fine; everything else must go
    through a sanctioned public API.
    """

    id = "R004"
    title = "no cross-module private-attribute access"

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Attribute):
                continue
            attr = node.attr
            if not attr.startswith("_") or attr.startswith("__"):
                continue
            base = node.value
            if isinstance(base, ast.Name) and base.id in {"self", "cls"}:
                continue
            if attr in ctx.own_private_attrs:
                continue
            yield self.finding(
                ctx, node,
                f"cross-module access to private attribute '{attr}'; go "
                "through the owning class's public API (or add one)",
            )


class AsyncioHygiene(Rule):
    """R005 — the service event loop must never be silently starved.

    One blocked coroutine stalls *every* lease in flight.  Inside
    ``async def`` in ``service/``, ``wire/``, or ``fabric/`` (the TCP
    front-end runs on the same loop as the tick loop; fabric cells are
    synchronous, and ``fabric/`` stays in scope so a coroutine added
    there later is checked from its first line) this rule flags:

    - known blocking calls (``time.sleep``, ``os.system``,
      ``subprocess.*``, ``socket.*``, ``urllib.request.*``);
    - a sync ``for``/``while`` loop that calls a solver entry point
      (``schedule``, ``dinic``, ``min_cost_flow``, ...) but contains
      no ``await`` / ``async for`` / ``async with`` — a batched solve
      per tick is by design, an unbounded solver loop between yield
      points is not.
    """

    id = "R005"
    title = "asyncio hygiene in service/, wire/, and fabric/"

    BLOCKING = {
        "time.sleep", "os.system", "os.wait", "input",
    }
    BLOCKING_PREFIXES = ("subprocess.", "socket.", "urllib.request.")
    # Must cover every MAXFLOW_ALGORITHMS / MINCOST_ALGORITHMS entry and
    # the FlowKernel solves schedule() calls on its lowered networks
    # (tests/analysis/test_rules.py checks; this package imports
    # nothing from the rest of repro, so the names are spelled out).
    SOLVER_NAMES = {
        "schedule", "schedule_incremental", "dinic", "edmonds_karp",
        "ford_fulkerson", "push_relabel", "max_flow", "unit_paths",
        "out_of_kilter", "min_cost_flow", "min_cost_circulation",
        "greedy_schedule", "random_binding_schedule",
        "estimate_blocking", "simulate_queueing", "solve",
    }

    def applies(self, modpath: str) -> bool:
        return modpath.startswith(ASYNC_SCOPE)

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.AsyncFunctionDef):
                yield from self._check_async(ctx, node)

    def _check_async(self, ctx: ModuleContext, fn: ast.AsyncFunctionDef) -> Iterator[Finding]:
        for node in self._walk_same_function(fn):
            if isinstance(node, ast.Call):
                chain = _call_chain(node.func)
                if chain in self.BLOCKING or chain.startswith(self.BLOCKING_PREFIXES):
                    yield self.finding(
                        ctx, node,
                        f"blocking call '{chain}' inside 'async def "
                        f"{fn.name}' starves the event loop; await the "
                        "async equivalent (e.g. clock.sleep)",
                    )
            elif isinstance(node, (ast.For, ast.While)):
                if self._solver_loop_without_yield(node):
                    yield self.finding(
                        ctx, node,
                        f"sync solver loop inside 'async def {fn.name}' has "
                        "no yield point; await between solves (one batched "
                        "solve per tick is the contract)",
                    )

    @classmethod
    def _walk_same_function(cls, fn: ast.AsyncFunctionDef) -> Iterator[ast.AST]:
        """Walk ``fn`` without descending into nested function defs."""
        stack: list[ast.AST] = list(ast.iter_child_nodes(fn))
        while stack:
            node = stack.pop()
            yield node
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                stack.extend(ast.iter_child_nodes(node))
        return

    @classmethod
    def _solver_loop_without_yield(cls, loop: ast.For | ast.While) -> bool:
        calls_solver = False
        for node in ast.walk(loop):
            if isinstance(node, (ast.Await, ast.AsyncFor, ast.AsyncWith)):
                return False
            if isinstance(node, ast.Call):
                chain = _call_chain(node.func)
                if chain.rsplit(".", 1)[-1] in cls.SOLVER_NAMES:
                    calls_solver = True
        return calls_solver


def default_rules() -> list[Rule]:
    """The shipped rule set, in id order."""
    # Imported here, not at module top: asyncsafe builds on the Rule
    # base class from this module, so a top-level import would cycle.
    from repro.analysis.asyncsafe import (
        AwaitInterleavingRaces,
        WireConformance,
    )

    return [
        AssertIsNotValidation(),
        DeterministicScheduling(),
        IntegralFlows(),
        ModuleEncapsulation(),
        AsyncioHygiene(),
        AwaitInterleavingRaces(),
        WireConformance(),
    ]
