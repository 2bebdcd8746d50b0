"""Raise ratchet: every ``raise`` in ``src/repro`` is reached by tier-1 or listed.

Run tier-1 under it (CI does, on one leg)::

    PYTHONPATH=src python -m pytest -p tests.raise_ratchet -x -q

A plain tier-1 run does not load this module and pays nothing.  Loaded,
it records which ``raise`` statements of ``src/repro`` execute, and at
the end of a full, green run of ``tests/`` it fails the session when

- a site no test reached is missing from ``UNREACHED_RAISES``, or
- a site in ``UNREACHED_RAISES`` was reached, or no longer exists,

so the list can only shrink.  A partial run (paths, ``-k``, ``-m``, or
a failed test) is reported but not judged.

A site's key is ``path::qualname#n``: the file under ``src/``, the
dotted name of the enclosing classes and functions (``<module>`` at top
level), and the site's ordinal among that function's raises in source
order.  Editing an unrelated line never renames a key.

Out of scope: code that runs in a forked fabric cell or in a CLI
subprocess.  Tracing stops in a forked child, and a child's hits would
be lost with its memory anyway.  ``tests/fabric/test_fabric.py`` also
runs ``CellWorker`` in-process, so ``fabric/cell.py``'s raises are still
judged.

Hypothesis runs derandomized under the ratchet, so the set of reached
sites is the same on every run.

To list a site, add its key with the reason no tier-1 test can reach
it; to unlist one, write the test that reaches it and delete the entry
(docs/static-analysis.md).
"""

from __future__ import annotations

import ast
import os
import pathlib
import sys
import threading

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"
TESTS = pathlib.Path(__file__).resolve().parent

#: Sites no tier-1 test reaches, each with the reason.  Only shrinks.
UNREACHED_RAISES: dict[str, str] = {
    "repro/distributed/simulator.py::DistributedScheduler._extract_mapping#1": (
        "token-architecture invariant (a bonded RQ sits on a registered link); "
        "tests/distributed/test_simulator.py drives the simulator against the "
        "software optimum on five topologies and a hypothesis search, "
        "and never breaks it"
    ),
    "repro/distributed/simulator.py::DistributedScheduler._extract_mapping#2": (
        "token-architecture invariant (a registered path reaches a resource server); "
        "same search as _extract_mapping#1"
    ),
    "repro/distributed/simulator.py::DistributedScheduler._step_resource_token#1": (
        "token-architecture invariant (a resource token moves only between node "
        "servers); same search as _extract_mapping#1"
    ),
    "repro/distributed/simulator.py::DistributedScheduler._step_resource_token#2": (
        "token-architecture invariant (a cancellation retraces a registered link); "
        "same search as _extract_mapping#1"
    ),
    "repro/flows/out_of_kilter.py::min_cost_circulation#1": (
        "nontermination guard: a polynomial step cap that out-of-kilter on integral "
        "data stays far inside; the cap is a local, so no input sets it low"
    ),
    "repro/flows/multicommodity.py::solve_integral_multicommodity#1": (
        "the row-3/row-4 branch-and-bound node budget; ROADMAP item 2(a) owns it, "
        "not a test that only expects the RuntimeError"
    ),
    "repro/fabric/broker.py::FabricBroker.kill_cell#2": (
        "a started multiprocessing.Process always has a pid; kill_cell runs only "
        "on a started cell"
    ),
}


class _Sites(ast.NodeVisitor):
    """Key every ``raise`` of one module and map each of its lines to the key."""

    def __init__(self, prefix: str) -> None:
        self.prefix = prefix
        self.scope: list[str] = []
        self.count: dict[str, int] = {}
        self.lines: dict[int, str] = {}

    def _scoped(self, node: ast.FunctionDef | ast.AsyncFunctionDef | ast.ClassDef) -> None:
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _scoped

    def visit_Raise(self, node: ast.Raise) -> None:
        qualname = ".".join(self.scope) or "<module>"
        n = self.count[qualname] = self.count.get(qualname, 0) + 1
        key = f"{self.prefix}::{qualname}#{n}"
        for line in range(node.lineno, (node.end_lineno or node.lineno) + 1):
            self.lines[line] = key
        self.generic_visit(node)


def raise_sites() -> dict[str, dict[int, str]]:
    """``{filename: {line: key}}`` over every ``raise`` under ``src/repro``."""
    sites = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        visitor = _Sites(path.relative_to(SRC).as_posix())
        visitor.visit(ast.parse(path.read_text(), str(path)))
        if visitor.lines:
            sites[str(path)] = visitor.lines
    return sites


class _Recorder:
    """Record the raise sites that execute, with ``sys.settrace``.

    Only code objects that hold a raise get a line tracer, so the rest
    of the run pays one call-event lookup per frame.
    """

    def __init__(self, sites: dict[str, dict[int, str]]) -> None:
        self.sites = sites
        self.hit: set[str] = set()
        self._tracers: dict[object, object] = {}
        os.register_at_fork(after_in_child=self.stop)

    def start(self) -> None:
        threading.settrace(self._on_call)
        sys.settrace(self._on_call)

    def stop(self) -> None:
        sys.settrace(None)
        threading.settrace(None)  # type: ignore[arg-type]

    def _on_call(self, frame, event, arg):
        code = frame.f_code
        if code not in self._tracers:
            lines = self.sites.get(code.co_filename, {})
            mine = {line: lines[line] for _, _, line in code.co_lines() if line in lines}
            self._tracers[code] = self._line_tracer(mine) if mine else None
        return self._tracers[code]

    def _line_tracer(self, mine: dict[int, str]):
        def trace(frame, event, arg):
            if event == "line" and frame.f_lineno in mine:
                self.hit.add(mine[frame.f_lineno])
            return trace

        return trace


_RECORDER = pytest.StashKey[_Recorder]()
_REPORT = pytest.StashKey[list]()


def pytest_configure(config) -> None:
    from hypothesis import settings

    settings.register_profile("raise-ratchet", derandomize=True)
    settings.load_profile("raise-ratchet")
    recorder = _Recorder(raise_sites())
    config.stash[_RECORDER] = recorder
    recorder.start()


def pytest_sessionfinish(session, exitstatus) -> None:
    config = session.config
    recorder = config.stash[_RECORDER]
    recorder.stop()
    keys = {key for lines in recorder.sites.values() for key in lines.values()}
    unreached = keys - recorder.hit
    full = (
        {pathlib.Path(arg).resolve() for arg in config.args} == {TESTS}
        and not config.option.keyword
        and not config.option.markexpr
        and session.testsfailed == 0
        and exitstatus == 0
    )
    report = [f"raise ratchet: {len(keys)} sites, {len(keys) - len(unreached)} reached, {len(unreached)} not"]
    if not full:
        report.append("raise ratchet: partial or failed run, not judged")
    else:
        missing = sorted(unreached - UNREACHED_RAISES.keys())
        stale = sorted(UNREACHED_RAISES.keys() - unreached)
        report += [f"unreached, not in UNREACHED_RAISES: {key}" for key in missing]
        report += [f"in UNREACHED_RAISES, but reached or gone: {key}" for key in stale]
        if missing or stale:
            session.exitstatus = 1
    config.stash[_REPORT] = report


def pytest_terminal_summary(terminalreporter, config) -> None:
    for line in config.stash.get(_REPORT, []):
        terminalreporter.write_line(line)
