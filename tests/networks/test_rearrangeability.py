"""Permutation routing: rearrangeability via multicommodity flow.

The paper's background: the Beneš network is rearrangeable (any
permutation realisable), the Omega is not.  We verify both facts with
our own machinery by casting "realise permutation σ" as an integral
multicommodity flow problem — one commodity per (p, σ(p)) pair with
demand 1 over the unit-capacity link graph — which doubles as a
cross-subsystem test of the LP/branch-and-bound stack on genuinely
hard routing instances.
"""

import numpy as np
import pytest

from repro.core import MRSIN, transformation1
from repro.flows.lp import LPStatus
from repro.flows.multicommodity import (
    Commodity,
    MultiCommodityProblem,
    solve_integral_multicommodity,
)
from repro.networks import benes, omega


def permutation_problem(net_builder, permutation) -> MultiCommodityProblem:
    """One unit commodity per (p, sigma(p)) pair over the link graph.

    The link graph is Transformation 1's with no request: its ``B`` arcs
    plus ``(r, t)`` arcs into a sink no commodity uses.
    """
    mrsin = MRSIN(net_builder(len(permutation)))
    net = transformation1(mrsin, []).net
    commodities = []
    for p, r in enumerate(permutation):
        src, dst = ("src", p), ("dst", r)
        net.add_arc(src, ("p", p), capacity=1)
        net.add_arc(("r", r), dst, capacity=1)
        commodities.append(Commodity((p, r), src, dst))
    return MultiCommodityProblem(net, commodities)


def routable(net_builder, permutation) -> bool:
    problem = permutation_problem(net_builder, permutation)
    result = solve_integral_multicommodity(problem, max_nodes=4000)
    if result.status is not LPStatus.OPTIMAL:
        return False
    return result.total_flow >= len(permutation) - 1e-6


class TestBenesRearrangeability:
    def test_identity_8(self):
        assert routable(benes, list(range(8)))

    def test_reversal(self):
        assert routable(benes, list(reversed(range(4))))

    @pytest.mark.parametrize("seed", range(3))
    def test_random_permutations(self, seed):
        rng = np.random.default_rng(seed)
        perm = list(rng.permutation(4))
        assert routable(benes, [int(x) for x in perm])

    def test_every_permutation_of_4(self):
        """Full rearrangeability at N=4: all 24 permutations route."""
        from itertools import permutations as iter_perms

        for perm in iter_perms(range(4)):
            assert routable(benes, list(perm)), perm


class TestOmegaBlocking:
    def test_identity_routable(self):
        assert routable(omega, list(range(4)))

    def test_some_permutation_blocks(self):
        """The Omega passes only N^(N/2)-ish of the N! permutations;
        a blocking one exists among the 4! permutations of omega(4)."""
        from itertools import permutations as iter_perms

        blocked = [
            perm for perm in iter_perms(range(4)) if not routable(omega, list(perm))
        ]
        assert blocked, "omega(4) must block at least one permutation"
        # Known property: omega passes exactly N^(N/2) = 16 of 24.
        assert len(blocked) == 24 - 16
