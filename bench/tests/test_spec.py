"""``BENCHMARK.json`` against the contract and against ``bench.spec``."""

import json
import re
from pathlib import Path

from bench.spec import END_TO_END, PER_LAYER, WORKLOADS, benchmark_json

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _declared():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_file_is_what_the_spec_module_declares():
    assert _declared() == benchmark_json()


def test_keys_and_caps():
    declared = _declared()
    assert set(declared) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert 2 <= len(declared["workloads"]) <= 8
    assert 1 <= len(declared["end_to_end"]) <= 16
    assert 1 <= len(declared["per_layer"]) <= 128
    assert isinstance(declared["run_seconds"], int) and 1 <= declared["run_seconds"] <= 60
    assert (ROOT / "BENCHMARK.json").stat().st_size <= 64 * 1024
    assert declared["paths"] == ["bench"]
    assert len(declared["command"]) <= 32
    assert not any(arg.startswith("/") or ".." in arg for arg in declared["command"])


def test_names_units_directions_and_bounds():
    declared = _declared()
    names = []
    for workload in declared["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
        names.append(workload["name"])
    for metric in declared["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
        names.append(metric["name"])
    for metric in declared["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
        names.append(metric["name"])
    for metric in declared["end_to_end"] + declared["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]), metric
        assert metric["better"] in ("higher", "lower")
    assert all(NAME.fullmatch(name) for name in names)
    assert len(names) == len(set(names))


def test_set_up_time_is_gated_with_the_largest_bound():
    (setup,) = [m for m in END_TO_END if m.name == "setup_s"]
    assert (setup.unit, setup.better) == ("s", "lower")
    assert setup.bound == max(m.bound for m in END_TO_END)


def test_every_layer_of_the_issue_is_represented():
    layers = {m.name.split(".")[0] for m in PER_LAYER}
    assert layers == {
        "wire", "loadgen", "service", "core", "flows", "networks", "faults", "fabric", "trace",
    }
    assert len(WORKLOADS) == 6
