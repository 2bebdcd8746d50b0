"""``BENCH_history.jsonl`` is a checked file, not a notebook.

One line per (PR, workload) measured against ``BENCHMARK.json``; the
perf trajectory is only a diff if every line parses the same way, so
the schema is pinned here (it had drifted: the first six lines lacked
``failed_parent``) together with the two facts a reader relies on —
every name is one ``BENCHMARK.json`` declares, and no recorded change
failed a larger share of operations than its parent.
"""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = {w["name"] for w in SPEC["workloads"]}
END_TO_END = {m["name"] for m in SPEC["end_to_end"]}
KEYS = {
    "benchmark", "claimed", "date", "failed", "failed_parent", "host", "metrics",
    "pairs", "parent_sha", "pr", "seeds", "title", "workload",
}
LINES = (ROOT / "BENCH_history.jsonl").read_text().splitlines()


def test_history_is_not_empty():
    assert LINES


@pytest.mark.parametrize("number", range(1, len(LINES) + 1))
def test_history_line(number):
    entry = json.loads(LINES[number - 1])
    assert set(entry) == KEYS
    assert entry["workload"] in WORKLOADS
    assert entry["metrics"] and set(entry["metrics"]) <= END_TO_END
    for metric in entry["metrics"].values():
        assert set(metric) == {"parent", "change", "pairs_won"}
        for side in ("parent", "change"):
            assert set(metric[side]) == {"q1", "median", "q3"}
            assert metric[side]["q1"] <= metric[side]["median"] <= metric[side]["q3"]
        assert 0 <= metric["pairs_won"] <= entry["pairs"]
    assert entry["failed"] <= entry["failed_parent"]
    assert isinstance(entry["claimed"], bool) and entry["seeds"]


def test_one_bench_tree():
    # The contract and its history are the only BENCH* files: the four
    # per-script BENCH_{wire,fabric,kernel,service}.json schemas were
    # retired at ISSUE 20 (EXPERIMENTS.md RETIRED-BENCHES has their last
    # values), and nothing may grow a fifth beside them.
    names = sorted(p.name for p in ROOT.glob("BENCH*"))
    assert names == ["BENCHMARK.json", "BENCH_history.jsonl"]
