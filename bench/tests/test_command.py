"""The command itself: ``--smoke`` passes, every declared metric is
printed and nothing else, and the command refuses to run without the
program it measures."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from bench.spec import END_TO_END, PER_LAYER, WORKLOADS

ROOT = Path(__file__).resolve().parents[2]


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "-m", "bench", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def _result_lines(stdout):
    return [json.loads(line) for line in stdout.splitlines() if line.startswith('{"correct"')]


@pytest.mark.parametrize("trace, declared", [("0", END_TO_END), ("1", PER_LAYER)])
def test_smoke_passes_and_prints_exactly_the_declared_metrics(trace, declared):
    done = _run("--smoke", "--trace", trace)
    assert done.returncode == 0, done.stdout + done.stderr
    results = _result_lines(done.stdout)
    assert len(results) == len(WORKLOADS)
    units = {metric.name: metric.unit for metric in declared}
    measured = set()
    for result in results:
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["attempted"] >= 1
        assert {n: m["unit"] for n, m in result["metrics"].items()} == units
        measured |= {n for n, m in result["metrics"].items() if m["value"] != 0}
    if trace == "0":
        assert measured == set(units)
    else:
        # Every layer metric is on some workload's path (counts that are
        # legitimately zero at baseline aside).
        zero_ok = {"wire.protocol_errors", "wire.stale_replies", "loadgen.fail_share"}
        assert set(units) - measured <= zero_ok
    assert done.stdout.splitlines()[-1].startswith('{"correct"')


def test_one_workload_as_the_driver_runs_it():
    done = _run("--workload", "solve-disciplines", "--seed", "4", "--seconds", "1", "--trace", "0")
    assert done.returncode == 0, done.stdout + done.stderr
    (result,) = _result_lines(done.stdout)
    assert result["failed"] == 0
    assert result["metrics"]["setup_s"]["value"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = _run("--workload", "wire-open", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert done.returncode != 0
    assert not _result_lines(done.stdout)
