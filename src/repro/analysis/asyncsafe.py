"""Flow-sensitive async-safety rules: R006, R007, R008.

These rules run on the CFGs from :mod:`repro.analysis.cfg` and guard
the bug classes PRs 2-6 fixed by hand in the service/wire stack:

==== =================================================================
Id   Invariant
==== =================================================================
R006 no read-modify-write on shared mutable state (``self.*`` or
     module globals) spanning an ``await`` without re-reading or a
     lock guard — the canonical asyncio data race
R007 every path that acquires a tracked resource (a lease grant)
     releases it or hands off custody on **all** exits, including
     exception and cancellation edges; wrapping an acquire in
     ``asyncio.wait_for`` (which strands late grants — the PR-6
     late-LEASE leak) is flagged outright
R008 ``wire/server.py`` conforms to the request→reply state machine
     declared in ``wire/protocol.py``: every request kind dispatched,
     every handler path sends exactly one correlated reply, no reply
     kind a request cannot receive, pushes only from push-capable
     kinds
==== =================================================================

Conservatism is asymmetric by design.  R007 treats passing a held
name as a call argument, storing it into an attribute/subscript,
returning it, or calling ``.release()``/``.close()`` on it as a
custody handoff — so a helper that merely *inspects* the lease will
mask a leak (a false negative), but the rule never cries wolf about
the repo's sanctioned custody patterns.  R006 only reports writes
whose right-hand side provably uses a value read before a suspension
point.  All three anchor findings at real statements so the standard
``# repro: noqa RXXX -- why`` machinery applies unchanged.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator, Mapping, Sequence

from repro.analysis.cfg import (
    CFG,
    CFGNode,
    EXCEPTION,
    build_cfg,
    forward_dataflow,
    iter_function_defs,
    module_coroutine_names,
)
from repro.analysis.engine import Finding, ModuleContext
from repro.analysis.rules import Rule

__all__ = [
    "AwaitInterleavingRaces",
    "ResourceEscape",
    "WireConformance",
]

#: Modules whose coroutines mutate shared service state.
ASYNC_SCOPE = ("service/", "wire/", "faults/", "fabric/")


def _module_globals(tree: ast.AST) -> frozenset[str]:
    """Names assigned at module level (the shared-global universe)."""
    if not isinstance(tree, ast.Module):
        return frozenset()
    names: set[str] = set()
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
        elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
            if isinstance(stmt.target, ast.Name):
                names.add(stmt.target.id)
    return frozenset(names)


def _shared_reads(expr: ast.AST, globals_: frozenset[str]) -> frozenset[str]:
    """Shared locations (``self.x`` / module globals) read under ``expr``."""
    reads: set[str] = set()
    for sub in ast.walk(expr):
        if (
            isinstance(sub, ast.Attribute)
            and isinstance(sub.value, ast.Name)
            and sub.value.id == "self"
            and isinstance(sub.ctx, ast.Load)
        ):
            reads.add(f"self.{sub.attr}")
        elif (
            isinstance(sub, ast.Name)
            and sub.id in globals_
            and isinstance(sub.ctx, ast.Load)
        ):
            reads.add(f"global {sub.id}")
    return frozenset(reads)


def _written_shared_locs(target: ast.expr, globals_: frozenset[str]) -> frozenset[str]:
    """Shared locations a store target writes (``self.x``, ``self.x[k]``)."""
    if isinstance(target, ast.Name):
        if target.id in globals_:
            return frozenset({f"global {target.id}"})
        return frozenset()
    node: ast.expr = target
    while isinstance(node, (ast.Subscript, ast.Attribute)):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            return frozenset({f"self.{node.attr}"})
        node = node.value
    return frozenset()


def _name_loads(expr: ast.AST) -> frozenset[str]:
    """Plain names read under ``expr``."""
    return frozenset(
        sub.id
        for sub in ast.walk(expr)
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)
    )


def _contains_await(expr: ast.AST) -> bool:
    return any(isinstance(sub, ast.Await) for sub in ast.walk(expr))


def _analysis_roots(node: CFGNode) -> tuple[ast.AST, ...]:
    """The AST roots this node actually evaluates.

    Compound statements (``if``/``while``/``for``/``with``/``match``)
    appear in the CFG as header nodes whose ``stmt`` is the full
    compound AST; walking that would double-count body statements,
    which belong to their own nodes.  Header nodes evaluate only their
    condition/iterable/context expressions.
    """
    stmt = node.stmt
    if stmt is None:
        return ()
    if node.kind == "stmt":
        return (stmt,)
    if node.kind == "branch":
        if isinstance(stmt, ast.If):
            return (stmt.test,)
        if isinstance(stmt, ast.Match):
            return (stmt.subject,)
    if node.kind == "loop":
        if isinstance(stmt, ast.While):
            return (stmt.test,)
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            return (stmt.iter,)
    if node.kind == "with" and isinstance(stmt, (ast.With, ast.AsyncWith)):
        return tuple(item.context_expr for item in stmt.items)
    return ()


def _assign_parts(
    stmt: ast.AST,
) -> tuple[list[ast.expr], ast.expr | None]:
    """``(store_targets, value)`` for assignment-like statements."""
    if isinstance(stmt, ast.Assign):
        return list(stmt.targets), stmt.value
    if isinstance(stmt, ast.AnnAssign):
        return [stmt.target], stmt.value
    if isinstance(stmt, ast.AugAssign):
        return [stmt.target], stmt.value
    return [], None


def _target_names(targets: Sequence[ast.expr]) -> list[str]:
    """Plain local names bound by assignment targets (incl. tuples)."""
    names: list[str] = []
    for target in targets:
        if isinstance(target, ast.Name):
            names.append(target.id)
        elif isinstance(target, (ast.Tuple, ast.List)):
            names.extend(
                elt.id for elt in target.elts if isinstance(elt, ast.Name)
            )
    return names


class AwaitInterleavingRaces(Rule):
    """R006 — shared-state read-modify-write must not span an await.

    While a coroutine is suspended, any other task on the loop may
    mutate ``self.*`` or module globals; writing back a value derived
    from a pre-suspension read silently undoes the interleaved update
    (the lost-update race the asyncio docs warn about).  The dataflow
    taints every local with the shared locations it was derived from,
    marks the taint *stale* at each suspension point — an ``await``,
    an ``async for``/``async with`` boundary, or (interprocedurally) a
    direct call to a same-module coroutine — and reports a write to a
    shared location whose right-hand side uses a local stale-derived
    from that same location.  Suspension points inside an ``async
    with`` over a lock-ish context manager do not mark taint stale:
    the region is mutually exclusive, which is the sanctioned guard.
    Re-reading the location after the last ``await`` is the other
    sanctioned fix and clears the taint naturally.
    """

    id = "R006"
    title = "await-interleaving race on shared state"

    def applies(self, modpath: str) -> bool:
        return modpath.startswith(ASYNC_SCOPE)

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        globals_ = _module_globals(ctx.tree)
        coroutines = module_coroutine_names(ctx.tree)
        for fn in iter_function_defs(ctx.tree):
            if not isinstance(fn, ast.AsyncFunctionDef):
                continue
            cfg = build_cfg(fn, coroutine_names=coroutines)
            yield from self._check_function(ctx, cfg, globals_)

    # ------------------------------------------------------------------
    def _check_function(
        self, ctx: ModuleContext, cfg: CFG, globals_: frozenset[str]
    ) -> Iterator[Finding]:
        def transfer(
            node: CFGNode, state: frozenset
        ) -> tuple[frozenset, frozenset]:
            out: set[tuple[str, str, bool]] = set(state)
            stmt = node.stmt
            targets, value = _assign_parts(stmt) if stmt is not None else ([], None)
            if value is not None and not isinstance(stmt, ast.AugAssign):
                names = _target_names(targets)
                if names:
                    bound = frozenset(names)
                    reads = _shared_reads(value, globals_)
                    out = {e for e in out if e[0] not in bound}
                    for name in names:
                        for loc in sorted(reads):
                            out.add((name, loc, False))
            elif (
                node.kind == "loop"
                and isinstance(stmt, (ast.For, ast.AsyncFor))
            ):
                names = _target_names([stmt.target])
                if names:
                    bound = frozenset(names)
                    reads = _shared_reads(stmt.iter, globals_)
                    out = {e for e in out if e[0] not in bound}
                    for name in names:
                        for loc in sorted(reads):
                            out.add((name, loc, False))
            if node.suspends and not node.guarded:
                out = {(var, loc, True) for (var, loc, _stale) in out}
            result = frozenset(out)
            return result, result

        states = forward_dataflow(cfg, init=frozenset(), transfer=transfer)
        for node in cfg.nodes:
            stmt = node.stmt
            if node.index not in states or stmt is None:
                continue
            targets, value = _assign_parts(stmt)
            if value is None:
                continue
            written: set[str] = set()
            for target in targets:
                written |= _written_shared_locs(target, globals_)
            if not written:
                continue
            in_state = states[node.index]
            value_names = _name_loads(value)
            value_reads = _shared_reads(value, globals_)
            spans_await = _contains_await(value)
            for loc in sorted(written):
                stale = sorted(
                    var
                    for (var, derived_loc, is_stale) in in_state
                    if is_stale and derived_loc == loc and var in value_names
                )
                if stale:
                    yield self.finding(
                        ctx, stmt,
                        f"'{loc}' is rewritten using '{stale[0]}', which was "
                        "read before an await; another task may have updated "
                        "it while this coroutine was suspended — re-read it "
                        "after resuming or guard the region with a lock",
                    )
                elif spans_await and (
                    loc in value_reads or isinstance(stmt, ast.AugAssign)
                ):
                    yield self.finding(
                        ctx, stmt,
                        f"read-modify-write of '{loc}' spans an await in one "
                        "statement: the old value is read before the "
                        "suspension and written back after it; split the "
                        "statement and re-read, or guard with a lock",
                    )


class ResourceEscape(Rule):
    """R007 — acquired resources must be released or handed off on
    every exit, including cancellation edges.

    The static generalisation of the leak bugs fixed by hand in PRs 2,
    5 and 6: a lease acquired into a local is *held*; custody ends
    when the local is passed to any call, stored into an attribute or
    subscript, returned, or has ``.release()``/``.close()`` called on
    it.  A held local reaching the function's normal exit leaks; a
    suspension point (where ``CancelledError`` is delivered) or a
    ``raise`` whose exception edge escapes the function while a local
    is held leaks under cancellation — the PR-2 cancelled-acquire
    shape.  The acquiring statement's own exception edge is exempt:
    the service guarantees a failed or cancelled ``acquire`` grants
    nothing (that is precisely PR 2's server-side fix).

    ``asyncio.wait_for(<...>.acquire(...), t)`` is flagged outright:
    the timeout cancels the local waiter but the grant can still land
    (the PR-6 late-LEASE leak); pass ``timeout=`` to the acquire call
    so the granting side owns the deadline.
    """

    id = "R007"
    title = "resource custody must not escape"

    #: Call-name tails that produce a tracked resource.
    ACQUIRE_TAILS = frozenset({"acquire", "checkout"})
    #: Methods on the resource itself that end custody.
    RELEASE_METHODS = frozenset({"release", "close"})

    def applies(self, modpath: str) -> bool:
        return modpath.startswith(ASYNC_SCOPE)

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        coroutines = module_coroutine_names(ctx.tree)
        for fn in iter_function_defs(ctx.tree):
            if not isinstance(fn, ast.AsyncFunctionDef):
                continue
            yield from self._check_wait_for(ctx, fn)
            cfg = build_cfg(fn, coroutine_names=coroutines)
            yield from self._check_function(ctx, cfg)

    # ------------------------------------------------------------------
    def _acquire_call(self, expr: ast.AST) -> ast.Call | None:
        """The acquire-producing call under ``expr``, if any."""
        for sub in ast.walk(expr):
            if isinstance(sub, ast.Call):
                tail = self._call_tail(sub)
                if tail in self.ACQUIRE_TAILS:
                    return sub
        return None

    @staticmethod
    def _call_tail(call: ast.Call) -> str:
        func = call.func
        if isinstance(func, ast.Attribute):
            return func.attr
        if isinstance(func, ast.Name):
            return func.id
        return ""

    def _check_wait_for(
        self, ctx: ModuleContext, fn: ast.AsyncFunctionDef
    ) -> Iterator[Finding]:
        for sub in ast.walk(fn):
            if (
                isinstance(sub, ast.Call)
                and self._call_tail(sub) == "wait_for"
                and sub.args
                and self._acquire_call(sub.args[0]) is not None
            ):
                yield self.finding(
                    ctx, sub,
                    "asyncio.wait_for around an acquire: the timeout cancels "
                    "the local waiter but the grant can still land with no "
                    "holder (the PR-6 late-LEASE leak); pass timeout= to the "
                    "acquire call instead so the granting side owns the "
                    "deadline",
                )

    def _acquired_name(self, stmt: ast.AST | None) -> str | None:
        """Local bound to a fresh acquire by this statement, if any."""
        if not isinstance(stmt, ast.Assign) or len(stmt.targets) != 1:
            return None
        target = stmt.targets[0]
        if not isinstance(target, ast.Name):
            return None
        if self._acquire_call(stmt.value) is None:
            return None
        return target.id

    def _custody_sinks(self, stmt: ast.AST) -> frozenset[str]:
        """Local names whose custody this statement hands off."""
        sinks: set[str] = set()
        for sub in ast.walk(stmt):
            if isinstance(sub, ast.Call):
                for arg in sub.args:
                    if isinstance(arg, ast.Name):
                        sinks.add(arg.id)
                    elif isinstance(arg, ast.Starred) and isinstance(
                        arg.value, ast.Name
                    ):
                        sinks.add(arg.value.id)
                for keyword in sub.keywords:
                    if isinstance(keyword.value, ast.Name):
                        sinks.add(keyword.value.id)
                if (
                    isinstance(sub.func, ast.Attribute)
                    and sub.func.attr in self.RELEASE_METHODS
                    and isinstance(sub.func.value, ast.Name)
                ):
                    sinks.add(sub.func.value.id)
            elif isinstance(sub, ast.Assign):
                stored = any(
                    isinstance(target, (ast.Attribute, ast.Subscript))
                    for target in sub.targets
                )
                if stored:
                    sinks |= _name_loads(sub.value)
            elif isinstance(sub, ast.Return) and sub.value is not None:
                sinks |= _name_loads(sub.value)
            elif isinstance(sub, (ast.Yield, ast.YieldFrom)) and sub.value is not None:
                sinks |= _name_loads(sub.value)
        return frozenset(sinks)

    def _check_function(self, ctx: ModuleContext, cfg: CFG) -> Iterator[Finding]:
        acquires = [
            node for node in cfg.nodes if self._acquired_name(node.stmt) is not None
        ]
        if not acquires:
            return

        def transfer(
            node: CFGNode, state: frozenset
        ) -> tuple[frozenset, frozenset]:
            roots = _analysis_roots(node)
            if not roots:
                return state, state
            sinks: frozenset[str] = frozenset()
            for root in roots:
                sinks |= self._custody_sinks(root)
            base = state - sinks
            acquired = self._acquired_name(node.stmt)
            if acquired is not None:
                # The acquiring await's own exception edge grants
                # nothing (PR 2's service-side guarantee): exc out is
                # the pre-acquisition state.
                return base | {acquired}, state
            return base, base

        def follow(edge: object) -> bool:
            kind = getattr(edge, "kind", "")
            can_cancel = getattr(edge, "can_cancel", False)
            return kind != EXCEPTION or bool(can_cancel)

        states = forward_dataflow(
            cfg, init=frozenset(), transfer=transfer, follow=follow
        )
        seen: set[tuple[int, str, str]] = set()
        for node in cfg.nodes:
            if node.index not in states:
                continue
            normal_out, exc_out = transfer(node, states[node.index])
            for edge in node.succ:
                if not follow(edge):
                    continue
                out = exc_out if edge.kind == EXCEPTION else normal_out
                if edge.dst == cfg.exit:
                    held, flavour = out, "leaves"
                elif edge.dst == cfg.error:
                    held, flavour = out, "escapes"
                else:
                    continue
                anchor = node.stmt if node.stmt is not None else cfg.func
                for var in sorted(held):
                    key = (
                        getattr(anchor, "lineno", 0),
                        var,
                        flavour,
                    )
                    if key in seen:
                        continue
                    seen.add(key)
                    if flavour == "leaves":
                        yield self.finding(
                            ctx, anchor,
                            f"'{var}' still holds its resource on a path "
                            f"leaving '{cfg.func.name}'; release it or hand "
                            "off custody before every exit",
                        )
                    else:
                        yield self.finding(
                            ctx, anchor,
                            f"a cancellation or exception here escapes "
                            f"'{cfg.func.name}' while '{var}' still holds "
                            "its resource (the PR-2 cancelled-acquire leak "
                            "shape); release it in a finally or except "
                            "block",
                        )


class WireConformance(Rule):
    """R008 — the wire server must implement the protocol state machine.

    The request→reply state machine is *derived from the protocol
    module itself*: ``REQUEST_KINDS``, ``REPLY_SCHEMA`` (request kind
    → admissible correlated reply kinds), ``PUSH_KINDS`` (kinds the
    server may send unprompted under ``PUSH_ID``), and the
    ``make_*`` constructor → frame-kind map recovered from their
    ``return Frame("KIND", ...)`` bodies.  Checks, in order:

    - **exhaustiveness** — every request kind appears in a
      ``frame.kind == "KIND"`` dispatch comparison somewhere;
    - **admissible replies** — a handler bound to kind K (called from
      K's dispatch branch with the frame as a direct argument) may
      only send correlated replies in ``REPLY_SCHEMA[K]``; pushes
      (``make_*(PUSH_ID, ...)`` anywhere in the module) must use a
      kind in ``PUSH_KINDS``;
    - **exactly one correlated reply per path** — over each handler's
      CFG, every path that completes normally (including handled
      exceptions) sends exactly one correlated reply; paths that
      abort by raising are exempt (the connection teardown owns
      those).  A path may *defer* its reply through ``submit(...,
      on_done=partial(self.<method>, ..., frame.request_id))``: that
      counts as the one reply, and ``<method>`` is checked as the
      handler's continuation, correlated to its bound id parameter.
    """

    id = "R008"
    title = "wire protocol conformance"

    SERVER_MODPATH = "wire/server.py"

    def applies(self, modpath: str) -> bool:
        return modpath == self.SERVER_MODPATH

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        schema = self._load_protocol(ctx)
        if isinstance(schema, Finding):
            yield schema
            return
        request_kinds, reply_schema, push_kinds, ctor_kinds = schema
        dispatch_fn, comparisons = self._find_dispatch(ctx.tree, request_kinds)
        if dispatch_fn is None:
            yield Finding(
                self.id, ctx.path, 1, 0,
                "no request dispatch found: expected frame.kind == "
                "\"<REQUEST_KIND>\" comparisons somewhere in this module",
            )
            return
        handled = frozenset(kind for kind, _fv, _body in comparisons)
        for kind in request_kinds:
            if kind not in handled:
                yield self.finding(
                    ctx, dispatch_fn,
                    f"request kind '{kind}' is never dispatched: every "
                    "kind in protocol.REQUEST_KINDS needs a handler branch",
                )
        coroutines = module_coroutine_names(ctx.tree)
        yield from self._check_push_sends(ctx, push_kinds, ctor_kinds)
        bindings, inline_findings = self._bind_handlers(
            ctx, comparisons, reply_schema, ctor_kinds
        )
        yield from inline_findings
        # (function, request kinds, parameter slot, how the slot's value
        # names the request id: a frame's attribute, or the id itself).
        work: list[tuple[str, frozenset[str], str, str]] = [
            (name, frozenset(kinds), slot, ".request_id")
            for name, (kinds, slot) in sorted(bindings.items())
        ]
        checked: set[str] = set()
        while work:
            handler_name, kinds, slot, suffix = work.pop(0)
            fn = self._find_function(ctx.tree, handler_name)
            param = None if fn is None else self._resolve_frame_param(fn, slot)
            if fn is None or param is None or handler_name in checked:
                continue
            checked.add(handler_name)
            allowed: set[str] = set()
            for kind in kinds:
                allowed |= set(reply_schema.get(kind, ()))
            cfg = build_cfg(fn, coroutine_names=coroutines)
            key = param + suffix
            yield from self._check_handler(
                ctx, cfg, key, frozenset(allowed), sorted(kinds), ctor_kinds,
            )
            for method, index in self._deferred_replies(fn, key):
                work.append((method, kinds, f"@{index}", ""))

    # ------------------------------------------------------------------
    # Protocol extraction
    # ------------------------------------------------------------------
    def _load_protocol(
        self, ctx: ModuleContext
    ) -> (
        tuple[
            tuple[str, ...],
            Mapping[str, tuple[str, ...]],
            tuple[str, ...],
            Mapping[str, str],
        ]
        | Finding
    ):
        protocol_path = Path(ctx.path).parent / "protocol.py"
        try:
            source = protocol_path.read_text(encoding="utf-8")
            tree = ast.parse(source, filename=str(protocol_path))
        except (OSError, SyntaxError):
            return Finding(
                self.id, ctx.path, 1, 0,
                "cannot derive the request→reply state machine: no "
                "parseable protocol.py next to this module",
            )
        constants = self._module_literals(tree)
        request_kinds = constants.get("REQUEST_KINDS")
        reply_schema = constants.get("REPLY_SCHEMA")
        push_kinds = constants.get("PUSH_KINDS")
        if not isinstance(request_kinds, tuple) or not isinstance(
            reply_schema, dict
        ):
            return Finding(
                self.id, ctx.path, 1, 0,
                "protocol.py must declare REQUEST_KINDS (tuple) and "
                "REPLY_SCHEMA (dict of request kind -> reply kinds) for "
                "conformance checking",
            )
        if not isinstance(push_kinds, tuple):
            push_kinds = ()
        ctor_kinds: dict[str, str] = {}
        for node in ast.walk(tree):
            if not isinstance(node, ast.FunctionDef):
                continue
            if not node.name.startswith("make_"):
                continue
            for sub in ast.walk(node):
                if (
                    isinstance(sub, ast.Return)
                    and isinstance(sub.value, ast.Call)
                    and isinstance(sub.value.func, ast.Name)
                    and sub.value.func.id == "Frame"
                    and sub.value.args
                    and isinstance(sub.value.args[0], ast.Constant)
                    and isinstance(sub.value.args[0].value, str)
                ):
                    ctor_kinds[node.name] = sub.value.args[0].value
        return request_kinds, reply_schema, push_kinds, ctor_kinds

    @staticmethod
    def _module_literals(tree: ast.Module) -> dict[str, object]:
        values: dict[str, object] = {}
        for stmt in tree.body:
            target: ast.expr | None = None
            value: ast.expr | None = None
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                target, value = stmt.targets[0], stmt.value
            elif isinstance(stmt, ast.AnnAssign):
                target, value = stmt.target, stmt.value
            if not isinstance(target, ast.Name) or value is None:
                continue
            try:
                values[target.id] = ast.literal_eval(value)
            except (ValueError, SyntaxError):
                continue
        return values

    # ------------------------------------------------------------------
    # Dispatch discovery
    # ------------------------------------------------------------------
    @staticmethod
    def _kind_test(test: ast.expr, request_kinds: tuple[str, ...]) -> tuple[str, str] | None:
        """``(kind, frame_var)`` for a ``<var>.kind == "KIND"`` test."""
        if not (
            isinstance(test, ast.Compare)
            and len(test.ops) == 1
            and isinstance(test.ops[0], ast.Eq)
            and isinstance(test.left, ast.Attribute)
            and test.left.attr == "kind"
            and isinstance(test.left.value, ast.Name)
            and isinstance(test.comparators[0], ast.Constant)
            and isinstance(test.comparators[0].value, str)
        ):
            return None
        kind = test.comparators[0].value
        if kind not in request_kinds:
            return None
        return kind, test.left.value.id

    def _find_dispatch(
        self, tree: ast.AST, request_kinds: tuple[str, ...]
    ) -> tuple[
        ast.FunctionDef | ast.AsyncFunctionDef | None,
        list[tuple[str, str, list[ast.stmt]]],
    ]:
        """The function holding the dispatch chain, plus its branches.

        Branches are ``(kind, frame_var, body)``; the dispatch function
        is the one containing the most request-kind comparisons.
        """
        best: ast.FunctionDef | ast.AsyncFunctionDef | None = None
        best_branches: list[tuple[str, str, list[ast.stmt]]] = []
        for fn in iter_function_defs(tree):
            branches: list[tuple[str, str, list[ast.stmt]]] = []
            for node in ast.walk(fn):
                if isinstance(node, ast.If):
                    match = self._kind_test(node.test, request_kinds)
                    if match is not None:
                        branches.append((match[0], match[1], node.body))
            if len(branches) > len(best_branches):
                best, best_branches = fn, branches
        return best, best_branches

    # ------------------------------------------------------------------
    # Branch and handler checks
    # ------------------------------------------------------------------
    def _correlated_sends(
        self, stmt: ast.AST, key: str, ctor_kinds: Mapping[str, str]
    ) -> list[tuple[ast.Call, str]]:
        """``make_*`` calls whose request id is the expression ``key``
        (``frame.request_id`` in a handler, the bound parameter in a
        continuation)."""
        sends: list[tuple[ast.Call, str]] = []
        for sub in ast.walk(stmt):
            if not (isinstance(sub, ast.Call) and sub.args):
                continue
            name = self._ctor_name(sub)
            if name in ctor_kinds and ast.unparse(sub.args[0]) == key:
                sends.append((sub, ctor_kinds[name]))
        return sends

    def _deferred_replies(self, stmt: ast.AST, key: str) -> list[tuple[str, int]]:
        """``on_done=partial(self.<method>, ..., <key>, ...)`` arguments:
        ``(method, index of the key among the bound arguments)`` —
        ``<method>`` owes the reply and gets the request id in that slot."""
        deferred: list[tuple[str, int]] = []
        for sub in ast.walk(stmt):
            for keyword in sub.keywords if isinstance(sub, ast.Call) else ():
                bound = keyword.value
                if (
                    keyword.arg == "on_done"
                    and isinstance(bound, ast.Call)
                    and self._ctor_name(bound) == "partial"
                    and bound.args
                    and isinstance(bound.args[0], ast.Attribute)
                    and ast.unparse(bound.args[0].value) == "self"
                ):
                    deferred += [
                        (bound.args[0].attr, index)
                        for index, arg in enumerate(bound.args[1:])
                        if ast.unparse(arg) == key
                    ]
        return deferred

    @staticmethod
    def _ctor_name(call: ast.Call) -> str:
        if isinstance(call.func, ast.Name):
            return call.func.id
        if isinstance(call.func, ast.Attribute):
            return call.func.attr
        return ""

    def _check_push_sends(
        self,
        ctx: ModuleContext,
        push_kinds: tuple[str, ...],
        ctor_kinds: Mapping[str, str],
    ) -> Iterator[Finding]:
        for sub in ast.walk(ctx.tree):
            if not (isinstance(sub, ast.Call) and sub.args):
                continue
            name = self._ctor_name(sub)
            if name not in ctor_kinds:
                continue
            first = sub.args[0]
            if isinstance(first, ast.Name) and first.id == "PUSH_ID":
                kind = ctor_kinds[name]
                if kind not in push_kinds:
                    yield self.finding(
                        ctx, sub,
                        f"'{kind}' frame sent under PUSH_ID, but only "
                        f"{list(push_kinds)} may be pushed unprompted",
                    )

    def _bind_handlers(
        self,
        ctx: ModuleContext,
        comparisons: list[tuple[str, str, list[ast.stmt]]],
        reply_schema: Mapping[str, tuple[str, ...]],
        ctor_kinds: Mapping[str, str],
    ) -> tuple[dict[str, tuple[set[str], str]], list[Finding]]:
        """Map handler name → (request kinds, frame param slot).

        Also validates inline branches (those that reply directly in
        the dispatch body instead of delegating): their sends must be
        admissible for the branch's kind, and a branch with neither a
        handler call nor a reply leaves the client hanging.  Returns
        the bindings plus any findings from those inline checks.
        """
        bindings: dict[str, tuple[set[str], str]] = {}
        inline_findings: list[Finding] = []
        for kind, frame_var, body in comparisons:
            bound_here = False
            sent_here = False
            for stmt in body:
                for sub in ast.walk(stmt):
                    if not isinstance(sub, ast.Call):
                        continue
                    func = sub.func
                    if (
                        isinstance(func, ast.Attribute)
                        and isinstance(func.value, ast.Name)
                        and func.value.id == "self"
                        and any(
                            isinstance(arg, ast.Name) and arg.id == frame_var
                            for arg in sub.args
                        )
                    ):
                        index = next(
                            i
                            for i, arg in enumerate(sub.args)
                            if isinstance(arg, ast.Name) and arg.id == frame_var
                        )
                        kinds, param = bindings.setdefault(
                            func.attr, (set(), "")
                        )
                        kinds.add(kind)
                        bindings[func.attr] = (kinds, param or f"@{index}")
                        bound_here = True
                for call, reply_kind in self._correlated_sends(
                    stmt, f"{frame_var}.request_id", ctor_kinds
                ):
                    sent_here = True
                    if reply_kind not in reply_schema.get(kind, ()):
                        inline_findings.append(self.finding(
                            ctx, call,
                            f"'{reply_kind}' reply sent for a '{kind}' "
                            "request, which only admits "
                            f"{list(reply_schema.get(kind, ()))}",
                        ))
            if not bound_here and not sent_here:
                inline_findings.append(Finding(
                    self.id, ctx.path,
                    body[0].lineno if body else 1,
                    body[0].col_offset if body else 0,
                    f"dispatch branch for '{kind}' neither delegates to a "
                    "handler nor sends a reply; the client will hang",
                ))
        return bindings, inline_findings

    @staticmethod
    def _find_function(
        tree: ast.AST, name: str
    ) -> ast.FunctionDef | ast.AsyncFunctionDef | None:
        for fn in iter_function_defs(tree):
            if fn.name == name:
                return fn
        return None

    def _check_handler(
        self,
        ctx: ModuleContext,
        cfg: CFG,
        key: str,
        allowed: frozenset[str],
        kinds: list[str],
        ctor_kinds: Mapping[str, str],
    ) -> Iterator[Finding]:
        def sends_in(node: CFGNode) -> list[tuple[ast.Call, str]]:
            sends: list[tuple[ast.Call, str]] = []
            for root in _analysis_roots(node):
                sends.extend(self._correlated_sends(root, key, ctor_kinds))
            return sends

        def replies_in(node: CFGNode) -> int:
            """Replies sent here plus replies deferred to a continuation."""
            return len(sends_in(node)) + sum(
                len(self._deferred_replies(root, key))
                for root in _analysis_roots(node)
            )

        # Admissible reply kinds, anywhere in the handler.
        for node in cfg.nodes:
            for call, reply_kind in sends_in(node):
                if reply_kind not in allowed:
                    yield self.finding(
                        ctx, call,
                        f"handler '{cfg.func.name}' sends '{reply_kind}' "
                        f"for request kind(s) {kinds}, which only admit "
                        f"{sorted(allowed)}",
                    )

        # Exactly one correlated reply per normally-completing path.
        def transfer(
            node: CFGNode, state: frozenset
        ) -> tuple[frozenset, frozenset]:
            count = replies_in(node)
            if count == 0:
                return state, state
            # The exception edge carries the pre-send state: a raise
            # mid-statement means the reply may not have gone out.
            normal = frozenset(min(c + count, 2) for c in state)
            return normal, state

        states = forward_dataflow(cfg, init=frozenset({0}), transfer=transfer)
        reported: set[int] = set()
        for node in cfg.nodes:
            if node.index not in states:
                continue
            in_state = states[node.index]
            if replies_in(node) and 1 in in_state and node.line not in reported:
                reported.add(node.line)
                yield self.finding(
                    ctx, node.stmt if node.stmt is not None else cfg.func,
                    f"handler '{cfg.func.name}' may send a second "
                    "correlated reply on this path; each request gets "
                    "exactly one reply",
                )
            normal_out, _exc = transfer(node, in_state)
            for edge in node.succ:
                if edge.dst != cfg.exit or edge.kind == EXCEPTION:
                    continue
                if 0 in normal_out and node.line not in reported:
                    reported.add(node.line)
                    anchor = node.stmt if node.stmt is not None else cfg.func
                    yield self.finding(
                        ctx, anchor,
                        f"this path completes '{cfg.func.name}' without "
                        "sending a correlated reply; the client will wait "
                        "forever",
                    )

    @staticmethod
    def _resolve_frame_param(
        fn: ast.FunctionDef | ast.AsyncFunctionDef, slot: str
    ) -> str | None:
        """Param name for the ``@<call-arg-index>`` slot recorded above."""
        if not slot.startswith("@"):
            return slot or None
        index = int(slot[1:])
        params = [arg.arg for arg in fn.args.args]
        if params and params[0] in {"self", "cls"}:
            index += 1
        if 0 <= index < len(params):
            return params[index]
        return None
