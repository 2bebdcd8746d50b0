"""The repository's performance benchmark: ``python3 -m bench``.

One command runs six workloads (two over real TCP, two in-process
service drives, one multi-process fabric, one cold-solver mix), prints
every metric by name with its unit, checks the program's outputs, and
exits non-zero on a failed check.  ``BENCHMARK.json`` at the repo root
is the machine-readable contract; ``bench/README.md`` explains what
each number means and how to cite it.

Everything is measured from outside the program, through public
functions and ``snapshot()`` output only.
"""

import sys
from pathlib import Path

#: The program under measurement lives in the ``src`` layout next to
#: this package.  The benchmark command may not name ``src`` (it is
#: outside the benchmark's own paths), so the package puts it on the
#: import path itself; a missing ``src/repro`` is reported by
#: :func:`bench.cli.main` before any workload is imported.
SRC_DIR = Path(__file__).resolve().parent.parent / "src"
if str(SRC_DIR) not in sys.path:
    sys.path.insert(0, str(SRC_DIR))
