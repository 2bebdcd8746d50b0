"""The one command: ``python3 -m bench``.

Without ``--workload`` it runs every workload; with it, one.  A pass is
either **untraced** (``--trace 0``, the default: the end-to-end
metrics) or **traced** (``--trace 1``: the per-layer metrics, from a
window split into an untraced reference half and a traced half, whose
difference is ``trace.overhead_share``).  Every pass prints its
metrics by name with unit, runs its output checks outside the timed
window, and ends with one JSON result line; the command exits non-zero
if any check failed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from typing import Any, Callable

from bench import SRC_DIR
from bench.spec import END_TO_END, LADDER_METRIC, PER_LAYER, RUN_SECONDS, WORKLOADS, RunResult
from bench.trace import Tracer, self_times

__all__ = ["main", "run_pass"]

DEFAULT_SEED = 17
SMOKE_SECONDS = 1.0
#: Full set-ups per untraced pass; ``setup_s`` is their median.
SETUPS = 3

Runner = Callable[[str, int, float, Tracer, int], RunResult]


def _runner(workload: str) -> Runner:
    """The module function that runs ``workload`` (imported on demand)."""
    if workload.startswith("wire-"):
        from bench import wire
        return wire.run
    if workload.startswith("service-"):
        from bench import service
        return service.run
    if workload == "fabric-skew":
        from bench import fabric
        return fabric.run
    from bench import solve
    return solve.run


def run_pass(
    workload: str, seed: int, seconds: float, *, traced: bool,
    setups: int = SETUPS, trace_out: Path | None = None,
) -> RunResult:
    """One untraced or traced pass over ``workload``."""
    run = _runner(workload)
    if not traced:
        return run(workload, seed, seconds, Tracer(enabled=False), setups)
    reference = run(workload, seed, seconds / 2, Tracer(enabled=False), 1)
    tracer = Tracer()
    result = run(workload, seed, seconds / 2, tracer, 1)
    before, after = reference.end_to_end["ops_per_s"], result.end_to_end["ops_per_s"]
    result.layers["trace.overhead_share"] = (before - after) / before
    result.checks += [
        replace(check, name="(untraced half) " + check.name) for check in reference.checks
    ]
    result.samples["spans"] = len(tracer.spans)
    result.params["self_time_ms"] = {
        name: round(ns / 1e6, 3) for name, ns in sorted(self_times(tracer.spans).items())
    }
    if trace_out is not None:
        tracer.write(trace_out)
    return result


# ----------------------------------------------------------------------
# Output
# ----------------------------------------------------------------------
def _envelope(args: argparse.Namespace) -> dict[str, Any]:
    root = SRC_DIR.parent
    try:
        # The ceiling keeps git from searching above the checkout when
        # the checkout itself is not a repository.
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True,
            timeout=10, check=True,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(root.parent)},
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    return {
        "benchmark": "python3 -m bench", "host_cpus": os.cpu_count(),
        "python": platform.python_version(), "platform": platform.platform(),
        "git_sha": sha, "seed": args.seed, "window_s": args.seconds,
        "traced": bool(args.trace), "transport": "TCP over loopback (wire-*), pipes (fabric-skew)",
    }


def _metrics(result: RunResult, traced: bool) -> dict[str, dict[str, Any]]:
    """Every declared metric of the pass, by name, with its unit."""
    declared = PER_LAYER if traced else END_TO_END
    values = result.layers if traced else result.end_to_end
    # A layer that is not on this workload's path reports 0.
    return {m.name: {"value": values.get(m.name, 0.0), "unit": m.unit} for m in declared}


def _report(result: RunResult, traced: bool, seed: int) -> dict[str, Any]:
    """Print one pass for people, then its machine-readable result line."""
    print(f"\n== {result.workload}  (seed {seed}, {'traced' if traced else 'untraced'}) ==")
    print("  params  " + json.dumps(result.params, sort_keys=True))
    print("  samples " + json.dumps(result.samples, sort_keys=True))
    metrics = _metrics(result, traced)
    measured = result.layers if traced else result.end_to_end
    for name, metric in metrics.items():
        if name in measured:
            print(f"  {name:<44} {metric['value']:>14.4f} {metric['unit']}")
    off_path = len(metrics) - len(measured)
    if off_path:
        print(f"  ({off_path} metrics of layers not on this workload's path: 0 in the result line)")
    print(f"  operations attempted {result.attempted}, failed {result.failed}")
    for check in result.checks:
        print(f"  check {'ok  ' if check.ok else 'FAIL'} {check.name}  [{check.detail}]")
    line = {
        "correct": result.correct, "attempted": result.attempted,
        "failed": result.failed, "metrics": metrics,
    }
    print(json.dumps(line))
    return line


def _disagreements(sets: list[dict[str, dict[str, float]]]) -> list[str]:
    """End-to-end metrics whose values across ``sets`` differ by more
    than the benchmark's own bound (worst against best)."""
    out = []
    for workload in sets[0]:
        for metric in END_TO_END:
            values = [s[workload][metric.name] for s in sets]
            best = max(values) if metric.better == "higher" else min(values)
            worst = min(values) if metric.better == "higher" else max(values)
            gap = abs(worst - best) / best if best else math.inf
            if gap > (metric.bound or 0.0):
                out.append(
                    f"{workload} {metric.name}: {values} differ by {gap:.3f} "
                    f"> bound {metric.bound}"
                )
    return out


# ----------------------------------------------------------------------
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="python3 -m bench", description=__doc__)
    parser.add_argument("--workload", "--only", choices=sorted(WORKLOADS), default=None,
                        help="run one workload (default: all six)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="workload seed; the program only sees the generated inputs")
    parser.add_argument("--seconds", type=float, default=float(RUN_SECONDS),
                        help="length of each timed window")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="1: traced pass, per-layer metrics; 0: end-to-end metrics")
    parser.add_argument("--trace-out", type=Path, default=None,
                        help="write the traced pass's spans here (JSON lines; one "
                             "workload's spans per file, suffixed with its name)")
    parser.add_argument("--smoke", action="store_true",
                        help=f"{SMOKE_SECONDS:g} s windows, one set-up: checks only")
    parser.add_argument("--ladder", action="store_true",
                        help="step wire-open through fixed rates; report the highest within SLO")
    parser.add_argument("--repeat", type=int, default=1, help="run the whole set N times")
    parser.add_argument("--check-agreement", action="store_true",
                        help="with --repeat: fail if sets disagree by more than a metric's bound")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    if not (SRC_DIR / "repro").is_dir():
        print(f"error: the program under measurement is missing ({SRC_DIR}/repro)",
              file=sys.stderr)
        return 2
    if args.repeat < 1 or args.seconds <= 0:
        print("error: --repeat must be >= 1 and --seconds positive", file=sys.stderr)
        return 2
    seconds = SMOKE_SECONDS if args.smoke else args.seconds
    setups = 1 if args.smoke else SETUPS
    traced = bool(args.trace)
    print(json.dumps(_envelope(args), sort_keys=True))

    if args.ladder:
        from bench import wire
        ladder = wire.run_ladder(args.seed, wire.LADDER_STEP_S if not args.smoke else 1.0)
        for step in ladder["steps"]:
            print("  " + json.dumps(step))
        print(f"  {LADDER_METRIC.name:<44} {ladder['max_rate_within_slo']:>14.4f} "
              f"{LADDER_METRIC.unit}")
        return 0

    names = [args.workload] if args.workload else list(WORKLOADS)
    ok = True
    sets: list[dict[str, dict[str, float]]] = []
    for _ in range(args.repeat):
        values: dict[str, dict[str, float]] = {}
        for name in names:
            out = None
            if args.trace_out is not None:
                out = args.trace_out.with_name(f"{args.trace_out.name}.{name}")
            result = run_pass(
                name, args.seed, seconds, traced=traced, setups=setups, trace_out=out
            )
            _report(result, traced, args.seed)
            ok &= result.correct
            values[name] = result.end_to_end
        sets.append(values)
    if args.check_agreement and len(sets) > 1:
        disagreements = _disagreements(sets)
        for line in disagreements:
            print("DISAGREE " + line)
        print(f"agreement over {len(sets)} sets: {'ok' if not disagreements else 'FAILED'}")
        ok &= not disagreements
    if not ok:
        print("benchmark: a check FAILED", file=sys.stderr)
    return 0 if ok else 1
