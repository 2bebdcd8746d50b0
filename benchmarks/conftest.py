"""Shared fixtures and builders for the benchmark harness.

Run with:  pytest benchmarks/ --benchmark-only
Add ``-s`` to see the regenerated paper tables on stdout; every bench
also asserts the paper's qualitative claims, so a plain run acts as a
regression gate for the reproduction.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import MRSIN, Request
from repro.core.transform import transformation2
from repro.networks import omega
from tests.helpers import nx_min_cost_for_value


def fig2_instance() -> MRSIN:
    """The paper's Fig. 2 situation, 0-based on our Omega wiring.

    Two circuits already occupy the network, five processors request,
    five-plus resources are free; the optimal mapping serves all five
    while a blind binding can strand requests.
    """
    net = omega(8)
    m = MRSIN(net)
    for p, r in [(2, 1), (4, 6)]:
        net.establish_circuit(net.find_free_path(p, r))
        m.resources[r].busy = True
    m.resources[3].busy = True  # r2 in the paper is busy; keep 5 free
    for p in (0, 3, 5, 6, 7):
        m.submit(Request(p))
    return m


def random_loaded_mrsin(seed: int, n: int = 8, builder=omega) -> MRSIN:
    """A random partially-loaded instance (circuits + full requests)."""
    rng = np.random.default_rng(seed)
    net = builder(n)
    m = MRSIN(net)
    for _ in range(n // 4):
        p, r = int(rng.integers(0, n)), int(rng.integers(0, n))
        path = net.find_free_path(p, r)
        if path:
            net.establish_circuit(path)
            m.resources[r].busy = True
    for p in range(n):
        if not net.processor_link(p).occupied:
            m.submit(Request(p))
    return m


def referee_min_cost(mrsin: MRSIN) -> float:
    """NetworkX's optimum for ``mrsin``'s Transformation-2 problem — the
    referee the repo's two min-cost solvers are judged against."""
    problem = transformation2(mrsin)
    return nx_min_cost_for_value(
        problem.net, problem.source, problem.sink, problem.required_flow
    )


@pytest.fixture
def fig2():
    return fig2_instance()
