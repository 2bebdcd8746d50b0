"""The strict-typing gate: mypy configuration as checked-in data.

The ``py.typed`` marker in this package promises downstream users
that our annotations mean something.  This module makes that promise
auditable:

- :data:`STRICT_PACKAGES` — subpackages held to the strict flag set
  (:data:`STRICT_FLAGS`).  The flow/scheduling core is here because a
  type error in flow arithmetic is an integrality bug waiting to
  happen (Theorem 2), ``analysis`` is here because a linter that
  doesn't pass its own gate convinces nobody, and ``wire`` is here
  because new subsystems are strict from birth.
- :data:`PERMISSIVE_ALLOWLIST` — modules temporarily excused from
  strictness.  The list is frozen by
  ``tests/analysis/test_typing_gate.py`` against a recorded baseline:
  shrinking it is a normal PR, growing it fails the build.  New code
  is strict by birth.

``repro typecheck`` shells out to ``python -m mypy`` when it is
installed (CI installs it; the sandboxed dev container may not) and
reports a distinct exit code (:data:`EXIT_UNAVAILABLE`) otherwise, so
callers can tell "typing gate failed" from "typing gate could not
run".
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

__all__ = [
    "EXIT_UNAVAILABLE",
    "PERMISSIVE_ALLOWLIST",
    "STRICT_FLAGS",
    "STRICT_PACKAGES",
    "TypecheckResult",
    "mypy_available",
    "mypy_command",
    "run_typecheck",
]

#: Exit code for "mypy is not installed here" (distinct from pass=0 / fail=1).
EXIT_UNAVAILABLE = 3

#: Subpackages (relative to ``repro``) checked with :data:`STRICT_FLAGS`.
#: ``service`` and ``faults`` joined when the async-safety analyzer
#: made them the most invariant-dense code in the tree.
STRICT_PACKAGES: tuple[str, ...] = (
    "flows", "core", "analysis", "wire", "service", "faults", "fabric",
)

#: The strict flag set.  A curated subset of ``--strict``: everything
#: that catches real defects in annotated code, minus the flags that
#: only generate churn on numpy-facing signatures (tracked in
#: ``docs/static-analysis.md``).
STRICT_FLAGS: tuple[str, ...] = (
    "--disallow-untyped-defs",
    "--disallow-incomplete-defs",
    "--check-untyped-defs",
    "--no-implicit-optional",
    "--warn-redundant-casts",
    "--warn-unused-ignores",
    "--warn-unreachable",
)

#: Modules excused from the strict gate, as dotted paths under
#: ``repro``.  MUST ONLY SHRINK — the baseline test fails on growth.
#: Each entry names why it is here; delete the entry when the module
#: is brought up to strictness.
PERMISSIVE_ALLOWLIST: tuple[str, ...] = (
    # Legacy surface predating the gate; argparse Namespace plumbing.
    "cli",
    # Token-architecture simulator: large untyped state machines.
    "distributed.elements",
    "distributed.logic",
    "distributed.machine",
    "distributed.monitor",
    "distributed.simulator",
    # numpy-sampling heavy; Generator unions not yet threaded through.
    "sim.blocking",
    "sim.queueing",
    "sim.runner",
    "sim.workload",
    # ASCII renderer: cosmetic, low type density.
    "networks.render",
)


@dataclass(frozen=True)
class TypecheckResult:
    """Outcome of one ``run_typecheck`` invocation."""

    exit_code: int
    output: str
    command: tuple[str, ...]

    @property
    def available(self) -> bool:
        """False when mypy was not installed in this environment."""
        return self.exit_code != EXIT_UNAVAILABLE


def package_root() -> Path:
    """Filesystem root of the ``repro`` package being checked."""
    return Path(__file__).resolve().parent.parent


def mypy_available() -> bool:
    """Whether ``python -m mypy`` can run in this environment."""
    try:
        import mypy  # noqa: F401  (probe only)
    except ImportError:
        return shutil.which("mypy") is not None
    return True


def mypy_command(strict_only: bool = True) -> tuple[str, ...]:
    """The mypy invocation for the gate (exposed for CI and tests).

    With ``strict_only`` (the default, and what CI runs) only
    :data:`STRICT_PACKAGES` are checked, with :data:`STRICT_FLAGS`.
    Otherwise the whole package is checked permissively — useful for
    chipping away at :data:`PERMISSIVE_ALLOWLIST`.
    """
    root = package_root()
    base = (
        sys.executable, "-m", "mypy",
        "--ignore-missing-imports",  # numpy stubs may be absent in CI
        "--no-error-summary",
    )
    if strict_only:
        targets = tuple(str(root / pkg) for pkg in STRICT_PACKAGES)
        return base + STRICT_FLAGS + targets
    return base + (str(root),)


def run_typecheck(strict_only: bool = True) -> TypecheckResult:
    """Run the typing gate; never raises on a missing toolchain."""
    cmd = mypy_command(strict_only=strict_only)
    if not mypy_available():
        return TypecheckResult(
            EXIT_UNAVAILABLE,
            "mypy is not installed in this environment; the typing gate "
            "runs in CI (pip install mypy to run it locally)",
            cmd,
        )
    proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
    output = (proc.stdout or "") + (proc.stderr or "")
    return TypecheckResult(proc.returncode, output.strip(), cmd)
