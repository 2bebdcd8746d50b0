"""Gate-level/behavioural equivalence of the NS request-phase logic.

Exhaustively evaluates the boolean equations of
:mod:`repro.distributed.logic` over every local input combination of a
2x2 NS and checks them against a direct transcription of the
simulator's behavioural rules — plus the paper's "low gate count /
short delay" claims as concrete numbers.
"""

from itertools import product

import pytest

from repro.distributed.logic import (
    And,
    Expr,
    Const,
    Not,
    Or,
    Var,
    depth,
    gate_count,
    ns_request_logic,
    shared_gate_count,
)


class TestExprPrimitives:
    def test_var_and_const(self):
        assert Var("x").evaluate({"x": True})
        assert not Var("x").evaluate({"x": False})
        assert Const(True).evaluate({})
        assert not Const(False).evaluate({})

    def test_operators(self):
        x, y = Var("x"), Var("y")
        env = {"x": True, "y": False}
        assert (x | y).evaluate(env)
        assert not (x & y).evaluate(env)
        assert (~y).evaluate(env)

    def test_gate_count(self):
        x, y = Var("x"), Var("y")
        assert gate_count(x) == 0
        assert gate_count(x & y) == 1
        assert gate_count(~(x & y) | y) == 3

    def test_depth(self):
        x, y = Var("x"), Var("y")
        assert depth(x) == 0
        assert depth(x & y) == 1
        assert depth((x & y) | (x & y)) == 2
        assert depth(~x & y) == 2


def behavioural_reference(inputs: dict[str, bool], n_in: int = 2, n_out: int = 2) -> dict[str, bool]:
    """Direct Python transcription of the simulator's NS firing rule."""
    out: dict[str, bool] = {}
    arrivals = [inputs[f"tok_in_{i}"] for i in range(n_in)] + [
        inputs[f"tok_out_{o}"] for o in range(n_out)
    ]
    recv = inputs["e3"] and not inputs["fired"] and any(arrivals)
    out["recv"] = recv
    for o in range(n_out):
        free = not inputs[f"occ_out_{o}"] and not inputs[f"reg_out_{o}"]
        eligible = free and not inputs[f"mark_out_{o}"] and not inputs[f"tok_out_{o}"]
        out[f"send_out_{o}"] = recv and eligible
        out[f"set_mark_out_{o}"] = recv and (inputs[f"tok_out_{o}"] or eligible)
    for i in range(n_in):
        eligible = (
            inputs[f"reg_in_{i}"]
            and not inputs[f"mark_in_{i}"]
            and not inputs[f"tok_in_{i}"]
        )
        out[f"send_in_{i}"] = recv and eligible
        out[f"set_mark_in_{i}"] = recv and (inputs[f"tok_in_{i}"] or eligible)
    return out


INPUT_NAMES = (
    ["e3", "fired"]
    + [f"tok_in_{i}" for i in range(2)]
    + [f"tok_out_{o}" for o in range(2)]
    + [f"mark_in_{i}" for i in range(2)]
    + [f"mark_out_{o}" for o in range(2)]
    + [f"reg_in_{i}" for i in range(2)]
    + [f"reg_out_{o}" for o in range(2)]
    + [f"occ_out_{o}" for o in range(2)]
)


class TestNSLogic:
    def test_exhaustive_equivalence(self):
        """All 2^16 input combinations match the behavioural rules."""
        logic = ns_request_logic(2, 2)
        for bits in product([False, True], repeat=len(INPUT_NAMES)):
            env = dict(zip(INPUT_NAMES, bits))
            expected = behavioural_reference(env)
            for name, expr in logic.items():
                assert expr.evaluate(env) == expected[name], (name, env)

    def test_no_emission_when_not_fired_phase(self):
        logic = ns_request_logic(2, 2)
        env = {name: False for name in INPUT_NAMES}
        env["tok_in_0"] = True  # token arrives but E3 low
        assert not logic["send_out_0"].evaluate(env)
        env["e3"] = True
        env["fired"] = True  # second batch: discard
        assert not logic["recv"].evaluate(env)

    def test_paper_gate_count_claim(self):
        """'Very low gate count and very short token propagation
        delay': with common-subexpression sharing (the recv term is
        one physical signal), the whole request-phase decision logic
        of a 2x2 NS fits in well under 100 two-input gates with a
        critical path under 10 gate delays."""
        logic = ns_request_logic(2, 2)
        total = shared_gate_count(logic.values())
        worst = max(depth(expr) for expr in logic.values())
        assert total < 100, f"gate count {total}"
        assert worst < 10, f"critical path {worst}"

    def test_shared_count_below_tree_count(self):
        logic = ns_request_logic(2, 2)
        tree = sum(gate_count(e) for e in logic.values())
        shared = shared_gate_count(logic.values())
        assert shared < tree

    def test_scales_linearly_with_ports(self):
        small = shared_gate_count(ns_request_logic(2, 2).values())
        large = shared_gate_count(ns_request_logic(4, 4).values())
        assert large < 4 * small  # linear-ish, not combinatorial


@pytest.mark.parametrize("measure", [gate_count, depth, lambda expr: shared_gate_count([expr])])
def test_a_node_outside_the_grammar_is_refused(measure):
    """Each measure walks NOT/AND/OR over variables and constants; a
    foreign node, even under a gate, is a ``TypeError``, not a count."""
    with pytest.raises(TypeError, match="unknown node"):
        measure(Not(Expr()))


def test_the_base_node_has_no_value():
    with pytest.raises(NotImplementedError):
        Expr().evaluate({})
