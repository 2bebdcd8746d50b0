"""Per-function control-flow graphs with await points and exception edges.

This is the flow-sensitive substrate under the ``asyncsafe`` rule
family (R006, R008).  :func:`build_cfg` turns one ``def`` / ``async
def`` into a statement-granularity graph:

- one :class:`CFGNode` per simple statement, branch test, loop head,
  ``with`` enter, except handler, or synthetic join (``entry``,
  ``exit``, ``error``, handler ``dispatch``, ``finally``,
  ``loop-exit``);
- ``NORMAL`` edges for sequential/branch flow, ``EXCEPTION`` edges
  from every statement to the innermost enclosing handler dispatch
  (or ``finally`` join, or the synthetic ``error`` exit when nothing
  encloses it);
- ``try``/``except``/``else``/``finally`` routed faithfully: the
  ``else`` body is *not* covered by the handlers, unmatched
  exceptions fall through the ``finally`` join outward, and abrupt
  exits (``return``/``break``/``continue``) thread through every
  enclosing ``finally`` before reaching their target;
- await points recorded per node.  A node *suspends* when it contains
  an ``await`` (or is an ``async for`` head / ``async with``
  enter/exit), or — interprocedurally — when it calls a coroutine
  defined in the same module (``await``-less coroutine calls spawned
  via ``create_task``/``ensure_future`` do not suspend the caller and
  are excluded).

Edges carry only their kind: R006 taints along every edge, and
reply-accounting (R008) follows every edge into a handler because any
statement may raise into it.

Dataflow runs over the graph with :func:`forward_dataflow`: a plain
union-join worklist fixpoint over ``frozenset`` states, which is all
the shipped rules need and terminates for any monotone transfer on a
finite value domain.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

__all__ = [
    "CFG",
    "CFGEdge",
    "CFGNode",
    "EXCEPTION",
    "NORMAL",
    "build_cfg",
    "forward_dataflow",
    "iter_function_defs",
    "module_coroutine_names",
]

NORMAL = "normal"
EXCEPTION = "exception"

#: Wrappers that schedule a coroutine instead of suspending on it.
_SPAWN_WRAPPERS = frozenset({"create_task", "ensure_future"})

#: Context-manager name fragments treated as mutual-exclusion guards.
_GUARD_FRAGMENTS = ("lock", "mutex", "sem", "guard")


@dataclass(frozen=True)
class CFGEdge:
    """One directed edge of kind ``NORMAL`` or ``EXCEPTION``."""

    src: int
    dst: int
    kind: str


@dataclass
class CFGNode:
    """One CFG node: a statement (or synthetic join) plus its edges."""

    index: int
    kind: str
    stmt: ast.AST | None = None
    awaits: tuple[ast.AST, ...] = ()
    suspends: bool = False
    guarded: bool = False
    succ: list[CFGEdge] = field(default_factory=list)

    @property
    def line(self) -> int:
        """Source line of the underlying statement (0 for synthetics)."""
        return getattr(self.stmt, "lineno", 0)


@dataclass
class CFG:
    """The control-flow graph of one function."""

    func: ast.FunctionDef | ast.AsyncFunctionDef
    nodes: list[CFGNode]
    entry: int
    exit: int
    error: int

    def await_points(self) -> list[ast.AST]:
        """Every recorded ``await`` expression, in node-creation order."""
        points: list[ast.AST] = []
        for node in self.nodes:
            points.extend(node.awaits)
        return points

    def reachable_from(self, index: int) -> frozenset[int]:
        """Indices reachable from ``index`` following any edge."""
        seen = {index}
        stack = [index]
        while stack:
            for edge in self.nodes[stack.pop()].succ:
                if edge.dst not in seen:
                    seen.add(edge.dst)
                    stack.append(edge.dst)
        return frozenset(seen)

    def reaches_exit(self, index: int) -> bool:
        """Whether ``index`` can reach the normal or error exit."""
        reached = self.reachable_from(index)
        return self.exit in reached or self.error in reached


def iter_function_defs(tree: ast.AST) -> Iterator[ast.FunctionDef | ast.AsyncFunctionDef]:
    """Every function definition in ``tree``, outer before inner."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def module_coroutine_names(tree: ast.AST) -> frozenset[str]:
    """Bare names of every ``async def`` in the module.

    Used for the interprocedural half of suspension detection: a call
    to ``self._send`` counts as a suspension point when ``_send`` is a
    coroutine defined anywhere in the same module.
    """
    return frozenset(
        node.name for node in ast.walk(tree) if isinstance(node, ast.AsyncFunctionDef)
    )


def _dotted_name(expr: ast.AST) -> str:
    """``a.b.c`` for attribute chains rooted at a Name, else ``''``."""
    parts: list[str] = []
    while isinstance(expr, ast.Attribute):
        parts.append(expr.attr)
        expr = expr.value
    if isinstance(expr, ast.Name):
        parts.append(expr.id)
        return ".".join(reversed(parts))
    return ""


def _looks_like_guard(expr: ast.expr) -> bool:
    """Whether a context-manager expression names a lock-ish object."""
    target = expr.func if isinstance(expr, ast.Call) else expr
    chain = _dotted_name(target).lower()
    return any(fragment in chain for fragment in _GUARD_FRAGMENTS)


def _scan_suspensions(
    expr: ast.AST, coroutine_names: frozenset[str], awaits: list[ast.AST]
) -> bool:
    """Collect awaits under ``expr``; return whether it suspends.

    Suspension means an ``await`` or a direct call to a same-module
    coroutine, excluding coroutine calls wrapped in a task-spawning
    call (those hand the coroutine to the loop without yielding here).
    Does not descend into nested function definitions or lambdas.
    """
    suspends = False
    if isinstance(expr, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        return False
    if isinstance(expr, ast.Await):
        awaits.append(expr)
        suspends = True
    if isinstance(expr, ast.Call):
        tail = _dotted_name(expr.func).rsplit(".", 1)[-1]
        if tail in coroutine_names:
            suspends = True
        if tail in _SPAWN_WRAPPERS:
            # The argument coroutine is scheduled, not awaited: ignore
            # its coroutine-call verdict, but a literal await inside
            # the arguments still suspends the caller.
            before = len(awaits)
            for child in ast.iter_child_nodes(expr):
                _scan_suspensions(child, coroutine_names, awaits)
            return suspends or len(awaits) > before
    for child in ast.iter_child_nodes(expr):
        if _scan_suspensions(child, coroutine_names, awaits):
            suspends = True
    return suspends


@dataclass
class _FinallyCtx:
    """An enclosing ``finally`` block under construction."""

    join: int
    continuations: set[int]


@dataclass
class _LoopCtx:
    """An enclosing loop: jump targets and the finally depth at entry."""

    head: int
    after: int
    finally_depth: int


#: A pending edge awaiting its destination: ``(src, kind)``.
_Frontier = list[tuple[int, str]]


class _Builder:
    def __init__(
        self,
        func: ast.FunctionDef | ast.AsyncFunctionDef,
        coroutine_names: frozenset[str],
    ) -> None:
        self.func = func
        self.coroutine_names = coroutine_names
        self.nodes: list[CFGNode] = []
        self._guard_depth = 0
        self.entry = self._new("entry")
        self.exit = self._new("exit")
        self.error = self._new("error")
        self._exc_stack: list[int] = [self.error]
        self._finally_stack: list[_FinallyCtx] = []
        self._loop_stack: list[_LoopCtx] = []

    def build(self) -> CFG:
        frontier = self._stmts(self.func.body, [(self.entry, NORMAL)])
        self._connect(frontier, self.exit)
        return CFG(
            func=self.func,
            nodes=self.nodes,
            entry=self.entry,
            exit=self.exit,
            error=self.error,
        )

    # ------------------------------------------------------------------
    def _new(
        self,
        kind: str,
        stmt: ast.AST | None = None,
        exprs: Sequence[ast.AST] | None = None,
        *,
        force_suspends: bool = False,
    ) -> int:
        awaits: list[ast.AST] = []
        suspends = force_suspends
        scan_roots: Sequence[ast.AST]
        if exprs is not None:
            scan_roots = exprs
        elif stmt is not None:
            scan_roots = list(ast.iter_child_nodes(stmt))
        else:
            scan_roots = ()
        for root in scan_roots:
            if _scan_suspensions(root, self.coroutine_names, awaits):
                suspends = True
        node = CFGNode(
            index=len(self.nodes),
            kind=kind,
            stmt=stmt,
            awaits=tuple(awaits),
            suspends=suspends,
            guarded=self._guard_depth > 0,
        )
        self.nodes.append(node)
        return node.index

    def _connect(self, frontier: _Frontier, dst: int) -> None:
        for src, kind in frontier:
            self.nodes[src].succ.append(CFGEdge(src, dst, kind))

    def _exc_edge(self, index: int) -> None:
        self.nodes[index].succ.append(
            CFGEdge(index, self._exc_stack[-1], EXCEPTION)
        )

    def _route_abrupt(self, dest: int, crossing: Sequence[_FinallyCtx]) -> int:
        """Thread an abrupt jump through enclosing finallys to ``dest``."""
        target = dest
        for ctx in crossing:  # outermost first; innermost runs first
            ctx.continuations.add(target)
            target = ctx.join
        return target

    # ------------------------------------------------------------------
    def _stmts(self, body: Sequence[ast.stmt], frontier: _Frontier) -> _Frontier:
        for stmt in body:
            frontier = self._stmt(stmt, frontier)
        return frontier

    def _stmt(self, stmt: ast.stmt, frontier: _Frontier) -> _Frontier:
        if isinstance(stmt, ast.If):
            return self._if(stmt, frontier)
        if isinstance(stmt, ast.While):
            return self._while(stmt, frontier)
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            return self._for(stmt, frontier)
        if isinstance(stmt, (ast.Try, *_TRY_STAR)):
            return self._try(stmt, frontier)
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            return self._with(stmt, frontier)
        if isinstance(stmt, ast.Match):
            return self._match(stmt, frontier)
        if isinstance(stmt, ast.Return):
            return self._return(stmt, frontier)
        if isinstance(stmt, ast.Raise):
            return self._raise(stmt, frontier)
        if isinstance(stmt, (ast.Break, ast.Continue)):
            return self._jump(stmt, frontier)
        if isinstance(
            stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            # A nested definition is a plain binding at this level; its
            # body's awaits belong to the nested scope, not this CFG.
            index = self._new("stmt", stmt, exprs=())
            self._connect(frontier, index)
            self._exc_edge(index)
            return [(index, NORMAL)]
        index = self._new("stmt", stmt)
        self._connect(frontier, index)
        self._exc_edge(index)
        return [(index, NORMAL)]

    def _if(self, stmt: ast.If, frontier: _Frontier) -> _Frontier:
        index = self._new("branch", stmt, exprs=[stmt.test])
        self._connect(frontier, index)
        self._exc_edge(index)
        merged = self._stmts(stmt.body, [(index, NORMAL)])
        if stmt.orelse:
            merged = merged + self._stmts(stmt.orelse, [(index, NORMAL)])
        else:
            merged = merged + [(index, NORMAL)]
        return merged

    def _while(self, stmt: ast.While, frontier: _Frontier) -> _Frontier:
        index = self._new("loop", stmt, exprs=[stmt.test])
        after = self._new("loop-exit", stmt, exprs=())
        self._connect(frontier, index)
        self._exc_edge(index)
        self._loop_stack.append(
            _LoopCtx(head=index, after=after, finally_depth=len(self._finally_stack))
        )
        body = self._stmts(stmt.body, [(index, NORMAL)])
        self._connect(body, index)
        self._loop_stack.pop()
        const_true = isinstance(stmt.test, ast.Constant) and bool(stmt.test.value)
        falls: _Frontier = [] if const_true else [(index, NORMAL)]
        tail = self._stmts(stmt.orelse, falls) if stmt.orelse else falls
        self._connect(tail, after)
        return [(after, NORMAL)]

    def _for(self, stmt: ast.For | ast.AsyncFor, frontier: _Frontier) -> _Frontier:
        index = self._new(
            "loop", stmt, exprs=[stmt.iter],
            force_suspends=isinstance(stmt, ast.AsyncFor),
        )
        after = self._new("loop-exit", stmt, exprs=())
        self._connect(frontier, index)
        self._exc_edge(index)
        self._loop_stack.append(
            _LoopCtx(head=index, after=after, finally_depth=len(self._finally_stack))
        )
        body = self._stmts(stmt.body, [(index, NORMAL)])
        self._connect(body, index)
        self._loop_stack.pop()
        exhausted: _Frontier = [(index, NORMAL)]
        tail = self._stmts(stmt.orelse, exhausted) if stmt.orelse else exhausted
        self._connect(tail, after)
        return [(after, NORMAL)]

    def _with(self, stmt: ast.With | ast.AsyncWith, frontier: _Frontier) -> _Frontier:
        is_async = isinstance(stmt, ast.AsyncWith)
        index = self._new(
            "with", stmt,
            exprs=[item.context_expr for item in stmt.items],
            force_suspends=is_async,
        )
        self._connect(frontier, index)
        self._exc_edge(index)
        guarded = is_async and any(
            _looks_like_guard(item.context_expr) for item in stmt.items
        )
        if guarded:
            self._guard_depth += 1
        body = self._stmts(stmt.body, [(index, NORMAL)])
        if guarded:
            self._guard_depth -= 1
        if is_async:
            # __aexit__ is its own suspension (and cancellation) point.
            exit_index = self._new("with-exit", stmt, exprs=(), force_suspends=True)
            self._connect(body, exit_index)
            self._exc_edge(exit_index)
            body = [(exit_index, NORMAL)]
        return body

    def _match(self, stmt: ast.Match, frontier: _Frontier) -> _Frontier:
        index = self._new("branch", stmt, exprs=[stmt.subject])
        self._connect(frontier, index)
        self._exc_edge(index)
        merged: _Frontier = []
        exhaustive = False
        for case in stmt.cases:
            merged.extend(self._stmts(case.body, [(index, NORMAL)]))
            if (
                isinstance(case.pattern, ast.MatchAs)
                and case.pattern.pattern is None
                and case.guard is None
            ):
                exhaustive = True
        if not exhaustive:
            merged.append((index, NORMAL))
        return merged

    def _return(self, stmt: ast.Return, frontier: _Frontier) -> _Frontier:
        index = self._new("stmt", stmt)
        self._connect(frontier, index)
        self._exc_edge(index)
        target = self._route_abrupt(self.exit, self._finally_stack)
        self.nodes[index].succ.append(CFGEdge(index, target, NORMAL))
        return []

    def _raise(self, stmt: ast.Raise, frontier: _Frontier) -> _Frontier:
        index = self._new("stmt", stmt)
        self._connect(frontier, index)
        self.nodes[index].succ.append(
            CFGEdge(index, self._exc_stack[-1], EXCEPTION)
        )
        return []

    def _jump(self, stmt: ast.Break | ast.Continue, frontier: _Frontier) -> _Frontier:
        index = self._new("stmt", stmt)
        self._connect(frontier, index)
        if self._loop_stack:
            loop = self._loop_stack[-1]
            dest = loop.after if isinstance(stmt, ast.Break) else loop.head
            crossing = self._finally_stack[loop.finally_depth:]
            target = self._route_abrupt(dest, crossing)
        else:  # break/continue outside a loop: syntactically invalid,
            # but keep the graph well-formed for partial inputs.
            target = self.error
        self.nodes[index].succ.append(CFGEdge(index, target, NORMAL))
        return []

    def _try(self, stmt: ast.Try, frontier: _Frontier) -> _Frontier:
        outer = self._exc_stack[-1]
        fin: _FinallyCtx | None = None
        if stmt.finalbody:
            join = self._new("finally", stmt, exprs=())
            fin = _FinallyCtx(join=join, continuations={outer})
        escape = fin.join if fin is not None else outer
        dispatch: int | None = None
        if stmt.handlers:
            dispatch = self._new("dispatch", stmt, exprs=())
        if fin is not None:
            self._finally_stack.append(fin)

        self._exc_stack.append(dispatch if dispatch is not None else escape)
        body = self._stmts(stmt.body, frontier)
        self._exc_stack.pop()

        # Handlers and the else body raise past this try, not into it.
        self._exc_stack.append(escape)
        handler_tails: _Frontier = []
        if dispatch is not None:
            for handler in stmt.handlers:
                hindex = self._new("handler", handler, exprs=())
                self.nodes[dispatch].succ.append(
                    CFGEdge(dispatch, hindex, NORMAL)
                )
                handler_tails.extend(
                    self._stmts(handler.body, [(hindex, NORMAL)])
                )
            # No handler matched: the exception keeps unwinding.
            self.nodes[dispatch].succ.append(
                CFGEdge(dispatch, escape, EXCEPTION)
            )
        tail = self._stmts(stmt.orelse, body) if stmt.orelse else body
        self._exc_stack.pop()

        merged = tail + handler_tails
        if fin is None:
            return merged
        self._finally_stack.pop()
        self._connect(merged, fin.join)
        final_tail = self._stmts(stmt.finalbody, [(fin.join, NORMAL)])
        for target in sorted(fin.continuations):
            self._connect(final_tail, target)
        return final_tail


_TRY_STAR: tuple[type, ...] = (
    (ast.TryStar,) if hasattr(ast, "TryStar") else ()
)


def build_cfg(
    func: ast.FunctionDef | ast.AsyncFunctionDef,
    *,
    coroutine_names: frozenset[str] = frozenset(),
) -> CFG:
    """The CFG of ``func``; see the module docstring for the shape."""
    return _Builder(func, coroutine_names).build()


def forward_dataflow(
    cfg: CFG,
    *,
    init: frozenset,
    transfer: Callable[[CFGNode, frozenset], tuple[frozenset, frozenset]],
) -> dict[int, frozenset]:
    """Union-join forward fixpoint; returns the in-state per node.

    ``transfer(node, in_state)`` returns ``(normal_out, exc_out)`` —
    the states to push along ``NORMAL`` and ``EXCEPTION`` edges
    respectively.  States are ``frozenset``s joined by union, so any
    transfer over a finite domain terminates.
    """
    states: dict[int, frozenset] = {cfg.entry: init}
    work = [cfg.entry]
    while work:
        index = work.pop()
        node = cfg.nodes[index]
        normal_out, exc_out = transfer(node, states.get(index, frozenset()))
        for edge in node.succ:
            out = exc_out if edge.kind == EXCEPTION else normal_out
            current = states.get(edge.dst)
            joined = out if current is None else (current | out)
            if joined != current:
                states[edge.dst] = joined
                work.append(edge.dst)
    return states
