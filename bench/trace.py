"""In-memory span recording around calls into the program's layers.

Spans are recorded from benchmark code only (in-program tracing is a
later change): each span is ``(name, start, end, parent, op)`` where
``op`` identifies the operation the call belongs to (a request id, a
tick number, a round number).  A disabled :class:`Tracer` records
nothing, which is how the untraced pass runs the same driver code.

Synchronous code nests spans with ``with tracer.span(...)``; the parent
is the innermost open span.  Concurrent (asyncio) code passes the
parent explicitly to :meth:`Tracer.begin` and closes the span with
:meth:`Tracer.end`, because tasks interleave and a stack would
mis-parent them.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Iterable

from bench.stats import percentile

__all__ = ["ROOT", "Tracer", "self_times"]

#: Parent index of a span with no parent.
ROOT = -1


class _Scope:
    """Context manager closing one stack-nested span."""

    __slots__ = ("_tracer", "index")

    def __init__(self, tracer: "Tracer", index: int) -> None:
        self._tracer = tracer
        self.index = index

    def __enter__(self) -> int:
        return self.index

    def __exit__(self, *exc: object) -> None:
        tracer = self._tracer
        tracer.spans[self.index][2] = time.perf_counter_ns()
        tracer._stack.pop()


class _NoScope:
    """The disabled tracer's shared do-nothing context manager."""

    __slots__ = ()

    def __enter__(self) -> int:
        return ROOT

    def __exit__(self, *exc: object) -> None:
        return None


_NO_SCOPE = _NoScope()


class Tracer:
    """Span store; ``Tracer(enabled=False)`` is a free no-op."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        #: ``[name, start_ns, end_ns, parent, op]`` per span.
        self.spans: list[list] = []
        self._stack: list[int] = []

    def span(self, name: str, op: int = ROOT) -> "_Scope | _NoScope":
        """Open a span nested under the innermost open one."""
        if not self.enabled:
            return _NO_SCOPE
        parent = self._stack[-1] if self._stack else ROOT
        index = len(self.spans)
        self.spans.append([name, time.perf_counter_ns(), 0, parent, op])
        self._stack.append(index)
        return _Scope(self, index)

    def begin(self, name: str, op: int = ROOT, parent: int = ROOT) -> int:
        """Open a span with an explicit parent (concurrent callers)."""
        if not self.enabled:
            return ROOT
        self.spans.append([name, time.perf_counter_ns(), 0, parent, op])
        return len(self.spans) - 1

    def end(self, index: int) -> None:
        """Close a span opened with :meth:`begin`."""
        if index != ROOT:
            self.spans[index][2] = time.perf_counter_ns()

    # ------------------------------------------------------------------
    def durations_us(self, name: str) -> list[float]:
        """Durations of every closed span called ``name``, microseconds."""
        return [
            (end - start) / 1e3
            for span_name, start, end, _parent, _op in self.spans
            if span_name == name and end
        ]

    def p_us(self, name: str, q: float) -> float:
        """Percentile ``q`` of ``name``'s durations (0.0 if none ran)."""
        durations = self.durations_us(name)
        return percentile(durations, q) if durations else 0.0

    def mean_us(self, name: str) -> float:
        """Mean duration of ``name`` (0.0 if none ran)."""
        durations = self.durations_us(name)
        return sum(durations) / len(durations) if durations else 0.0

    def write(self, path: Path) -> None:
        """One JSON object per span, in recording order."""
        with path.open("w", encoding="utf-8") as out:
            for index, (name, start, end, parent, op) in enumerate(self.spans):
                out.write(json.dumps({
                    "span": index, "name": name, "start_ns": start,
                    "end_ns": end, "parent": parent, "op": op,
                }) + "\n")


def self_times(spans: Iterable[list]) -> dict[str, int]:
    """Total self time per span name, nanoseconds.

    A span's self time is its duration minus the part of its interval
    that its child spans cover.  Children may overlap one another
    (concurrent tasks), so their intervals are unioned and clipped to
    the parent before subtracting.
    """
    spans = list(spans)
    children: dict[int, list[tuple[int, int]]] = {}
    for _name, start, end, parent, _op in spans:
        if parent != ROOT and end:
            children.setdefault(parent, []).append((start, end))
    totals: dict[str, int] = {}
    for index, (name, start, end, _parent, _op) in enumerate(spans):
        if not end:
            continue
        covered = 0
        cursor = start
        for child_start, child_end in sorted(children.get(index, ())):
            lo = max(child_start, cursor)
            hi = min(child_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        totals[name] = totals.get(name, 0) + (end - start) - covered
    return totals
