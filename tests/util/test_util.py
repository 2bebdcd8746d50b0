"""Tests for the util package: RNG, tables, counters."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util.counters import OpCounter
from repro.util.labels import label_hash
from repro.util.rng import DEFAULT_SEED, make_rng, spawn_rngs
from repro.util.tables import Table, format_table


class TestRng:
    def test_none_is_deterministic(self):
        a = make_rng(None).integers(0, 1 << 30)
        b = make_rng(None).integers(0, 1 << 30)
        assert a == b

    def test_int_seed(self):
        assert make_rng(5).integers(0, 1 << 30) == make_rng(5).integers(0, 1 << 30)

    def test_generator_passthrough(self):
        gen = np.random.default_rng(1)
        assert make_rng(gen) is gen

    def test_spawn_independence(self):
        kids = spawn_rngs(0, 3)
        draws = [k.integers(0, 1 << 30) for k in kids]
        assert len(set(draws)) == 3

    def test_spawn_deterministic(self):
        a = [g.integers(0, 100) for g in spawn_rngs(9, 4)]
        b = [g.integers(0, 100) for g in spawn_rngs(9, 4)]
        assert a == b

    def test_spawn_negative_rejected(self):
        with pytest.raises(ValueError):
            spawn_rngs(0, -1)

    def test_spawn_zero(self):
        assert spawn_rngs(0, 0) == []


class TestTables:
    def test_basic_render(self):
        text = format_table(["a", "bb"], [[1, 2], [33, 4]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        assert "--" in lines[2]
        assert "33" in lines[4]

    def test_float_formatting(self):
        text = format_table(["x"], [[0.123456789]])
        assert "0.1235" in text

    def test_arity_checked(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [[1]])
        t = Table(["a"])
        with pytest.raises(ValueError):
            t.add_row(1, 2)

    def test_accumulating_table(self):
        t = Table(["k", "v"], title="acc")
        t.add_row("x", 1)
        t.add_row("y", 2)
        out = t.render()
        assert out.count("\n") == 4  # title + header + sep + 2 rows

    def test_column_alignment(self):
        t = Table(["name", "n"])
        t.add_row("longvaluehere", 1)
        t.add_row("s", 22)
        lines = t.render().splitlines()
        assert len({len(l) for l in lines[0:1]}) == 1


class TestCounters:
    def test_charge_and_total(self):
        c = OpCounter()
        c.charge("a")
        c.charge("a", 4)
        c.charge("b", 2)
        assert c["a"] == 5
        assert c.total() == 7.0

    def test_weighted_total(self):
        c = OpCounter()
        c.charge("a", 3)
        c.charge("b", 2)
        assert c.total({"a": 10.0}) == 32.0  # missing weight defaults to 1

    def test_missing_key_zero(self):
        assert OpCounter()["nothing"] == 0


@given(
    rows=st.lists(st.lists(st.integers(-1000, 1000), min_size=2, max_size=2), max_size=6)
)
@settings(max_examples=30, deadline=None)
def test_property_table_always_rectangular(rows):
    """Property: rendering any integer rows yields aligned columns."""
    text = format_table(["c1", "c2"], rows)
    lines = text.splitlines()
    widths = {len(line) for line in lines}
    assert len(widths) == 1


@pytest.mark.parametrize("bits", [0, 257])
def test_label_hash_refuses_a_width_outside_sha256(bits):
    with pytest.raises(ValueError, match=f"bits must be in \\[1, 256\\], got {bits}"):
        label_hash("omega-16#0", bits=bits)
