"""One known-good and one known-bad fixture per lint rule (R001-R005)."""

import textwrap

from tests.analysis.helpers import lint_snippet, rule_ids


def snippet(code: str) -> str:
    return textwrap.dedent(code).lstrip("\n")


class TestR001Assert:
    BAD = snippet("""
        def check(x):
            assert x > 0, "positive"
            return x
    """)
    GOOD = snippet("""
        def check(x):
            if x <= 0:
                raise ValueError(f"x must be positive, got {x}")
            return x
    """)

    def test_bad(self, tmp_path):
        report = lint_snippet(tmp_path, self.BAD)
        assert rule_ids(report) == ["R001"]
        (f,) = report.findings
        assert f.line == 2
        assert "python -O" in f.message or "'-O'" in f.message

    def test_good(self, tmp_path):
        assert lint_snippet(tmp_path, self.GOOD).findings == []


class TestR002Determinism:
    BAD_IMPORT = snippet("""
        import random

        def pick(items):
            return random.choice(items)
    """)
    BAD_WALL_CLOCK = snippet("""
        import time

        def stamp():
            return time.time()
    """)
    BAD_UNSEEDED = snippet("""
        import numpy as np

        def rng():
            return np.random.default_rng()
    """)
    BAD_LEGACY = snippet("""
        import numpy as np

        def draw():
            return np.random.rand()
    """)
    BAD_SET_ITER = snippet("""
        def schedule(pending):
            for req in set(pending):
                yield req
    """)
    BAD_SET_LITERAL_COMP = snippet("""
        def order(a, b, c):
            return [x for x in {a, b, c}]
    """)
    GOOD = snippet("""
        import numpy as np

        def pick(items, rng: np.random.Generator):
            order = sorted(set(items))
            return order[int(rng.integers(len(order)))]
    """)

    def test_bad_import(self, tmp_path):
        assert rule_ids(lint_snippet(tmp_path, self.BAD_IMPORT)) == ["R002"]

    def test_bad_wall_clock(self, tmp_path):
        assert rule_ids(lint_snippet(tmp_path, self.BAD_WALL_CLOCK)) == ["R002"]

    def test_bad_unseeded_rng(self, tmp_path):
        assert rule_ids(lint_snippet(tmp_path, self.BAD_UNSEEDED)) == ["R002"]

    def test_bad_legacy_global_rng(self, tmp_path):
        assert rule_ids(lint_snippet(tmp_path, self.BAD_LEGACY)) == ["R002"]

    def test_bad_set_iteration(self, tmp_path):
        assert rule_ids(lint_snippet(tmp_path, self.BAD_SET_ITER)) == ["R002"]

    def test_bad_set_literal_in_comprehension(self, tmp_path):
        assert rule_ids(lint_snippet(tmp_path, self.BAD_SET_LITERAL_COMP)) == ["R002"]

    def test_good(self, tmp_path):
        # sorted(set(...)) restores a deterministic order; seeded
        # Generator draws are the sanctioned randomness.
        assert lint_snippet(tmp_path, self.GOOD).findings == []

    def test_exempt_modules(self, tmp_path):
        assert lint_snippet(
            tmp_path, self.BAD_UNSEEDED, modpath="util/rng.py"
        ).findings == []
        assert lint_snippet(
            tmp_path, self.BAD_WALL_CLOCK, modpath="service/clock.py"
        ).findings == []


class TestR003Integrality:
    BAD_ANNOTATION = snippet("""
        from dataclasses import dataclass

        @dataclass
        class Arc:
            capacity: float
            flow: int = 0
    """)
    BAD_PARAM = snippet("""
        def solve(net, target_flow: float):
            return target_flow
    """)
    BAD_ASSIGN = snippet("""
        def reset(arc):
            arc.flow = 0.0
    """)
    BAD_COERCION = snippet("""
        def widen(arc):
            return float(arc.capacity)
    """)
    GOOD = snippet("""
        def reset(arc):
            arc.flow = 0
            arc.cost = 0.5  # costs may stay float (min-cost needs them)
            eps = 1e-9      # tolerances are not flow values
            return eps
    """)

    def test_bad_annotation(self, tmp_path):
        report = lint_snippet(tmp_path, self.BAD_ANNOTATION, modpath="flows/graph2.py")
        assert rule_ids(report) == ["R003"]

    def test_bad_param(self, tmp_path):
        report = lint_snippet(tmp_path, self.BAD_PARAM, modpath="flows/solver2.py")
        assert rule_ids(report) == ["R003"]

    def test_bad_assign(self, tmp_path):
        report = lint_snippet(tmp_path, self.BAD_ASSIGN, modpath="core/transform.py")
        assert rule_ids(report) == ["R003"]

    def test_bad_coercion(self, tmp_path):
        report = lint_snippet(tmp_path, self.BAD_COERCION, modpath="core/incremental.py")
        assert rule_ids(report) == ["R003"]

    BAD_RETURN_ANNOTATION = snippet("""
        def blocking_flow(net, layered) -> float:
            return net.value
    """)
    BAD_RETURN_LITERAL = snippet("""
        def max_flow(net, source, sink):
            if source not in net:
                return 0.0
            return net.value
    """)
    GOOD_COST_RETURN = snippet("""
        def min_cost_flow_total(net) -> float:
            return sum(a.cost for a in net.arcs)
    """)
    GOOD_NESTED_HELPER = snippet("""
        def push_flow(net):
            def weight(arc) -> float:
                return 0.5
            return sum(1 for a in net.arcs if weight(a) > 0)
    """)

    def test_good(self, tmp_path):
        assert lint_snippet(tmp_path, self.GOOD, modpath="flows/clean.py").findings == []

    def test_out_of_scope_module(self, tmp_path):
        # Float arithmetic outside the flow modules is not R003's business.
        assert lint_snippet(tmp_path, self.BAD_ASSIGN, modpath="sim/rates.py").findings == []

    def test_bad_flow_return_annotation(self, tmp_path):
        report = lint_snippet(
            tmp_path, self.BAD_RETURN_ANNOTATION, modpath="flows/solver3.py"
        )
        assert rule_ids(report) == ["R003"]
        (f,) = report.findings
        assert "blocking_flow" in f.message

    def test_bad_flow_return_literal(self, tmp_path):
        report = lint_snippet(
            tmp_path, self.BAD_RETURN_LITERAL, modpath="flows/solver4.py"
        )
        assert rule_ids(report) == ["R003"]
        (f,) = report.findings
        assert f.line == 3

    def test_cost_functions_may_return_float(self, tmp_path):
        report = lint_snippet(
            tmp_path, self.GOOD_COST_RETURN, modpath="flows/costs2.py"
        )
        assert report.findings == []

    def test_nested_helpers_not_attributed_to_flow_function(self, tmp_path):
        # The float return belongs to the nested cost helper, not to
        # the enclosing flow-named function's own body.
        report = lint_snippet(
            tmp_path, self.GOOD_NESTED_HELPER, modpath="flows/helpers2.py"
        )
        assert report.findings == []

    def test_relaxation_modules_exempt_from_return_checks(self, tmp_path):
        report = lint_snippet(
            tmp_path, self.BAD_RETURN_ANNOTATION, modpath="flows/multicommodity.py"
        )
        assert report.findings == []


class TestR004Encapsulation:
    BAD = snippet("""
        def detach(net):
            net._out["sink"].pop()
    """)
    GOOD = snippet("""
        class Engine:
            def __init__(self):
                self._cache = {}

            def merge(self, other: "Engine"):
                # Module-private: this module owns _cache.
                self._cache.update(other._cache)
    """)

    def test_bad(self, tmp_path):
        report = lint_snippet(tmp_path, self.BAD)
        assert rule_ids(report) == ["R004"]
        assert "_out" in report.findings[0].message

    def test_good_same_module_access(self, tmp_path):
        assert lint_snippet(tmp_path, self.GOOD).findings == []

    def test_dunder_ignored(self, tmp_path):
        src = snippet("""
            def name_of(obj):
                return obj.__class__.__name__
        """)
        assert lint_snippet(tmp_path, src).findings == []


class TestR005AsyncioHygiene:
    BAD_SLEEP = snippet("""
        import time

        async def tick(self):
            time.sleep(1.0)
    """)
    BAD_SOLVER_LOOP = snippet("""
        async def drain(self, scheduler, batches):
            for batch in batches:
                scheduler.schedule(batch)
    """)
    BAD_OUT_OF_KILTER_LOOP = snippet("""
        from repro.flows import out_of_kilter

        async def drain(self, problems):
            for p in problems:
                out_of_kilter(p.net, p.source, p.sink, target_flow=p.required_flow)
    """)
    GOOD = snippet("""
        async def tick_loop(self, scheduler, clock):
            while True:
                mapping = scheduler.schedule(self.pending)
                self.apply(mapping)
                await clock.sleep(self.interval)
    """)

    def test_bad_blocking_sleep(self, tmp_path):
        report = lint_snippet(tmp_path, self.BAD_SLEEP, modpath="service/server2.py")
        assert rule_ids(report) == ["R005"]
        assert "time.sleep" in report.findings[0].message

    def test_bad_solver_loop(self, tmp_path):
        report = lint_snippet(tmp_path, self.BAD_SOLVER_LOOP, modpath="service/server2.py")
        assert rule_ids(report) == ["R005"]
        assert "yield point" in report.findings[0].message

    def test_bad_out_of_kilter_loop(self, tmp_path):
        # The scheduler's default min-cost solver was missing from
        # SOLVER_NAMES, so this loop went unflagged.
        report = lint_snippet(
            tmp_path, self.BAD_OUT_OF_KILTER_LOOP, modpath="service/server2.py"
        )
        assert rule_ids(report) == ["R005"]
        assert "yield point" in report.findings[0].message

    def test_solver_names_cover_both_dispatch_tables(self):
        """A solver added to (or renamed in) the scheduler's registries
        must be known to R005, or a sync loop over it inside an
        ``async def`` goes unflagged."""
        from repro.analysis.rules import AsyncioHygiene
        from repro.core.scheduler import MAXFLOW_ALGORITHMS, MINCOST_ALGORITHMS
        from repro.flows.kernel import FlowKernel

        registered = {
            f.__name__
            for f in (
                *MAXFLOW_ALGORITHMS.values(), *MINCOST_ALGORITHMS.values(),
                # The default "kernel" route, which is no table entry:
                # lowered, then solved by these methods.
                FlowKernel.max_flow, FlowKernel.min_cost_flow, FlowKernel.unit_paths,
            )
        }
        assert registered <= AsyncioHygiene.SOLVER_NAMES

    def test_good_loop_with_await(self, tmp_path):
        # One batched solve per tick with an await in the loop is the
        # service's designed shape.
        assert lint_snippet(tmp_path, self.GOOD, modpath="service/server2.py").findings == []

    def test_wire_modules_in_scope(self, tmp_path):
        # The TCP front-end shares the event loop with the tick loop,
        # so wire/ is held to the same hygiene as service/.
        report = lint_snippet(tmp_path, self.BAD_SLEEP, modpath="wire/server2.py")
        assert rule_ids(report) == ["R005"]

    def test_out_of_scope_module(self, tmp_path):
        # R005 covers service/ and wire/ only; sync code elsewhere may
        # block freely.
        assert lint_snippet(tmp_path, self.BAD_SLEEP, modpath="sim/runner2.py").findings == []
