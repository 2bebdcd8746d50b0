"""Boolean-logic realisation of the NS token-propagation rules.

The paper: *"Since a token is simply a signal, token propagation rules
can be expressed in terms of Boolean functions.  A distributed process
at an NS, RQ, or RS does nothing but distribute the token according to
the global status and local conditions.  It can be realized easily by
a finite-state machine ... The design has a very low gate count and a
very short token propagation delay."*

This module makes that claim checkable.  A tiny combinational-logic
representation (:class:`Expr` trees over named inputs) encodes the
per-port decision functions of a 2x2 NS during the request-token
phase:

- inputs per port: token arrival, port marked, link registered, link
  occupied; plus the global bus bits E3/E4;
- outputs per port: "emit token" and "set mark".

:func:`ns_request_logic` builds the equations;
:func:`gate_count` / :func:`depth` report the hardware cost (the
paper's "low gate count / short delay"); and the test suite evaluates
the logic against the behavioural simulator's rules on every local
input combination — a gate-level/behavioural equivalence check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

__all__ = [
    "Expr", "Var", "Const", "Not", "And", "Or",
    "ns_request_logic", "gate_count", "shared_gate_count", "depth",
]


class Expr:
    """Base class of the combinational expression tree."""

    def evaluate(self, inputs: Mapping[str, bool]) -> bool:
        raise NotImplementedError

    def __and__(self, other: "Expr") -> "Expr":
        return And(self, other)

    def __or__(self, other: "Expr") -> "Expr":
        return Or(self, other)

    def __invert__(self) -> "Expr":
        return Not(self)


@dataclass(frozen=True)
class Var(Expr):
    """A named input signal."""

    name: str

    def evaluate(self, inputs: Mapping[str, bool]) -> bool:
        return bool(inputs[self.name])

    def __repr__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Const(Expr):
    """A constant signal (tie to VCC/GND)."""

    value: bool

    def evaluate(self, inputs: Mapping[str, bool]) -> bool:
        return self.value

    def __repr__(self) -> str:
        return "1" if self.value else "0"


@dataclass(frozen=True)
class Not(Expr):
    """An inverter."""

    a: Expr

    def evaluate(self, inputs: Mapping[str, bool]) -> bool:
        return not self.a.evaluate(inputs)

    def __repr__(self) -> str:
        return f"~{self.a!r}"


@dataclass(frozen=True)
class And(Expr):
    """A 2-input AND gate."""

    a: Expr
    b: Expr

    def evaluate(self, inputs: Mapping[str, bool]) -> bool:
        return self.a.evaluate(inputs) and self.b.evaluate(inputs)

    def __repr__(self) -> str:
        return f"({self.a!r} & {self.b!r})"


@dataclass(frozen=True)
class Or(Expr):
    """A 2-input OR gate."""

    a: Expr
    b: Expr

    def evaluate(self, inputs: Mapping[str, bool]) -> bool:
        return self.a.evaluate(inputs) or self.b.evaluate(inputs)

    def __repr__(self) -> str:
        return f"({self.a!r} | {self.b!r})"


def gate_count(expr: Expr) -> int:
    """Number of gates (NOT/AND/OR nodes) in the expression."""
    if isinstance(expr, (Var, Const)):
        return 0
    if isinstance(expr, Not):
        return 1 + gate_count(expr.a)
    if isinstance(expr, (And, Or)):
        return 1 + gate_count(expr.a) + gate_count(expr.b)
    raise TypeError(f"unknown node {expr!r}")


def shared_gate_count(exprs) -> int:
    """Gates needed for a set of outputs with common-subexpression reuse.

    Structurally identical subtrees (the frozen dataclasses compare by
    value) are counted once — e.g. the ``recv`` product term feeds
    every output of :func:`ns_request_logic` but costs its gates only
    once, as it would in silicon.
    """
    seen: set[Expr] = set()

    def visit(expr: Expr) -> int:
        if isinstance(expr, (Var, Const)) or expr in seen:
            return 0
        seen.add(expr)
        if isinstance(expr, Not):
            return 1 + visit(expr.a)
        if isinstance(expr, (And, Or)):
            return 1 + visit(expr.a) + visit(expr.b)
        raise TypeError(f"unknown node {expr!r}")

    return sum(visit(e) for e in exprs)


def depth(expr: Expr) -> int:
    """Gate-delay depth (critical path) of the expression."""
    if isinstance(expr, (Var, Const)):
        return 0
    if isinstance(expr, Not):
        return 1 + depth(expr.a)
    if isinstance(expr, (And, Or)):
        return 1 + max(depth(expr.a), depth(expr.b))
    raise TypeError(f"unknown node {expr!r}")


def ns_request_logic(n_in: int = 2, n_out: int = 2) -> dict[str, Expr]:
    """Combinational equations of an NS in the request-token phase.

    Input signal names (per input port ``i`` / output port ``o``):

    - ``tok_in_i``  — request token arriving forward at input ``i``;
    - ``tok_out_o`` — request token arriving backward at output ``o``;
    - ``mark_in_i`` / ``mark_out_o`` — port markings;
    - ``reg_in_i`` / ``reg_out_o``   — link registered;
    - ``occ_out_o``                  — link occupied;
    - ``fired``                      — the NS already took its first batch;
    - ``e3``                         — bus bit E3 (request-token phase).

    Output signal names:

    - ``recv``        — this clock carries the NS's first batch;
    - ``send_out_o``  — emit a token forward on output ``o``;
    - ``send_in_i``   — emit a token backward on input ``i``;
    - ``set_mark_*``  — latch the port marking.

    The equations transcribe the simulator's rules exactly: fire on
    the first batch only (``~fired``), duplicate to free unmarked
    output links and registered unmarked input links, and mark every
    receiving and sending port.
    """
    e3 = Var("e3")
    fired = Var("fired")
    any_arrival: Expr = Const(False)
    for i in range(n_in):
        any_arrival = any_arrival | Var(f"tok_in_{i}")
    for o in range(n_out):
        any_arrival = any_arrival | Var(f"tok_out_{o}")
    recv = e3 & ~fired & any_arrival

    logic: dict[str, Expr] = {"recv": recv}
    for o in range(n_out):
        free_link = ~Var(f"occ_out_{o}") & ~Var(f"reg_out_{o}")
        eligible = free_link & ~Var(f"mark_out_{o}") & ~Var(f"tok_out_{o}")
        logic[f"send_out_{o}"] = recv & eligible
        logic[f"set_mark_out_{o}"] = recv & (Var(f"tok_out_{o}") | eligible)
    for i in range(n_in):
        eligible = Var(f"reg_in_{i}") & ~Var(f"mark_in_{i}") & ~Var(f"tok_in_{i}")
        logic[f"send_in_{i}"] = recv & eligible
        logic[f"set_mark_in_{i}"] = recv & (Var(f"tok_in_{i}") | eligible)
    return logic
