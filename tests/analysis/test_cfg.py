"""CFG builder tests: routing determinism plus generative properties.

The hypothesis strategies generate arbitrarily nested async function
bodies (if/while/for/try-except/try-finally/async-with/async-for) and
assert the two structural invariants every downstream rule relies on:

- every node reachable from the entry can reach the normal exit or
  the error exit (no statement is silently trapped in the graph);
- the recorded await points are exactly the ``await`` expressions of
  the function, in source order, with none double-counted by the
  synthetic join nodes.

``break``/``continue`` threading through ``finally`` and the
interprocedural suspension rules are covered by deterministic cases
below (the generator omits bare jumps to keep every sample valid at
any nesting depth).
"""

from __future__ import annotations

import ast
import textwrap

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.cfg import (
    EXCEPTION,
    build_cfg,
    iter_function_defs,
    module_coroutine_names,
)

SIMPLE_STATEMENTS = (
    "x = 1",
    "total = x + 1",
    "x = await op()",
    "await op()",
    "raise ValueError(x)",
    "return x",
)


def _indent(lines: list[str]) -> list[str]:
    return ["    " + line for line in lines]


@st.composite
def _statements(draw: st.DrawFn, depth: int) -> list[str]:
    count = draw(st.integers(min_value=1, max_value=3))
    out: list[str] = []
    for _ in range(count):
        out.extend(draw(_statement(depth)))
    return out


@st.composite
def _statement(draw: st.DrawFn, depth: int) -> list[str]:
    kinds = ["simple", "simple"]
    if depth > 0:
        kinds += [
            "if",
            "while",
            "for",
            "async_for",
            "async_with",
            "try_except",
            "try_finally",
            "try_full",
        ]
    kind = draw(st.sampled_from(kinds))
    if kind == "simple":
        return [draw(st.sampled_from(SIMPLE_STATEMENTS))]
    body = _indent(draw(_statements(depth - 1)))
    if kind == "if":
        lines = ["if x:"] + body
        if draw(st.booleans()):
            lines += ["else:"] + _indent(draw(_statements(depth - 1)))
        return lines
    if kind == "while":
        return ["while x:"] + body
    if kind == "for":
        return ["for item in items:"] + body
    if kind == "async_for":
        return ["async for item in source:"] + body
    if kind == "async_with":
        ctx = draw(st.sampled_from(["ctx()", "self._lock"]))
        return [f"async with {ctx}:"] + body
    lines = ["try:"] + body
    if kind in ("try_except", "try_full"):
        lines += ["except ValueError:"] + _indent(draw(_statements(depth - 1)))
    if kind in ("try_finally", "try_full"):
        lines += ["finally:"] + _indent(draw(_statements(depth - 1)))
    return lines


@st.composite
def async_function_sources(draw: st.DrawFn) -> str:
    body = _indent(draw(_statements(2)))
    header = "async def fn(self, x, items, source, ctx, op):"
    return "\n".join([header] + body) + "\n"


def _build(source: str) -> tuple[ast.AsyncFunctionDef, object]:
    tree = ast.parse(source)
    fn = next(iter_function_defs(tree))
    return fn, build_cfg(fn, coroutine_names=frozenset())


def _cfg_for(source: str, name: str = "fn"):
    tree = ast.parse(textwrap.dedent(source))
    names = module_coroutine_names(tree)
    for fn in iter_function_defs(tree):
        if fn.name == name:
            return build_cfg(fn, coroutine_names=names)
    raise AssertionError(f"no function named {name!r}")


def _stmt_node_at(cfg, line: int):
    for node in cfg.nodes:
        if node.kind == "stmt" and node.line == line:
            return node
    raise AssertionError(f"no stmt node at line {line}")


class TestGeneratedCFGs:
    @settings(max_examples=60, deadline=None)
    @given(source=async_function_sources())
    def test_every_reachable_node_reaches_an_exit(self, source):
        _, cfg = _build(source)
        for index in sorted(cfg.reachable_from(cfg.entry)):
            assert cfg.reaches_exit(index), (
                f"node {index} cannot reach any exit in:\n{source}"
            )

    @settings(max_examples=60, deadline=None)
    @given(source=async_function_sources())
    def test_await_points_match_source_order(self, source):
        fn, cfg = _build(source)
        recorded = [(a.lineno, a.col_offset) for a in cfg.await_points()]
        expected = sorted(
            (node.lineno, node.col_offset)
            for node in ast.walk(fn)
            if isinstance(node, ast.Await)
        )
        assert sorted(recorded) == expected, source
        assert recorded == sorted(recorded), source

    @settings(max_examples=60, deadline=None)
    @given(source=async_function_sources())
    def test_entry_and_exits_are_distinct(self, source):
        _, cfg = _build(source)
        assert len({cfg.entry, cfg.exit, cfg.error}) == 3
        assert cfg.reaches_exit(cfg.entry)


class TestRouting:
    def test_break_threads_through_finally(self):
        cfg = _cfg_for(
            """
            async def fn(self):
                for item in self.items:
                    try:
                        break
                    finally:
                        await self.cleanup()
                await self.done()
            """
        )
        # break routes through the finally (one await) and out of the
        # loop, so the trailing await is still reachable: two awaits.
        assert len(cfg.await_points()) == 2
        for index in sorted(cfg.reachable_from(cfg.entry)):
            assert cfg.reaches_exit(index)

    def test_return_threads_through_finally(self):
        cfg = _cfg_for(
            """
            async def fn(self):
                try:
                    return 1
                finally:
                    await self.cleanup()
            """
        )
        assert len(cfg.await_points()) == 1
        assert cfg.reaches_exit(cfg.entry)

    def test_nested_function_awaits_are_not_attributed(self):
        cfg = _cfg_for(
            """
            async def fn(self):
                async def inner():
                    await helper()
                x = 1
                return x
            """
        )
        assert cfg.await_points() == []
        for node in cfg.nodes:
            assert not node.suspends

    def test_same_module_coroutine_call_suspends(self):
        cfg = _cfg_for(
            """
            async def helper(self):
                return 1

            async def fn(self):
                self.helper()
                plain()
            """
        )
        lines = {
            node.line: node.suspends for node in cfg.nodes if node.kind == "stmt"
        }
        assert lines[6] is True
        assert lines[7] is False

    def test_spawn_wrapped_coroutine_does_not_suspend(self):
        cfg = _cfg_for(
            """
            async def helper(self):
                return 1

            async def fn(self):
                asyncio.create_task(self.helper())
            """
        )
        node = _stmt_node_at(cfg, 6)
        assert node.suspends is False

    def test_lock_guarded_body_is_marked(self):
        cfg = _cfg_for(
            """
            async def fn(self):
                async with self._lock:
                    self.counter = self.counter + 1
                self.other = 1
            """
        )
        assert _stmt_node_at(cfg, 4).guarded is True
        assert _stmt_node_at(cfg, 5).guarded is False

    def test_else_body_not_covered_by_handlers(self):
        cfg = _cfg_for(
            """
            async def fn(self):
                try:
                    x = 1
                except ValueError:
                    handled = 1
                else:
                    y = 2
            """
        )
        dispatch = next(n for n in cfg.nodes if n.kind == "dispatch")
        else_node = _stmt_node_at(cfg, 8)
        assert dispatch.index not in {
            e.dst for e in else_node.succ if e.kind == EXCEPTION
        }
