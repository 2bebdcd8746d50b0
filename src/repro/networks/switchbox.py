"""Non-broadcast crossbar switchboxes (the paper's Section III-B model).

*"A switchbox in an MRSIN is a crossbar switch without broadcast
connections ... an input link is connected to at most one output link
and vice versa."*  A switch setting is therefore a partial matching
between input and output ports — exactly the property Theorem 1 uses
to identify switch settings with unit-capacity flow assignments.

By that theorem a box holds no setting of its own: each port carries
exactly one link, so a setting *is* the pairs of links the circuits
through the box occupy.  The network derives it from its circuits
(:meth:`~repro.networks.topology.MultistageNetwork.switch_settings`);
a :class:`Switchbox` is only a shape and a fault flag.
"""

from __future__ import annotations

from itertools import permutations as _permutations
from typing import Iterator

__all__ = ["Switchbox"]


class Switchbox:
    """An ``n_in`` × ``n_out`` crossbar without broadcast."""

    def __init__(self, stage: int, index: int, n_in: int, n_out: int) -> None:
        if n_in < 1 or n_out < 1:
            raise ValueError(f"switchbox needs at least one port each way, got {n_in}x{n_out}")
        self.stage = stage
        self.index = index
        self.n_in = n_in
        self.n_out = n_out
        # A failed box routes nothing until repaired; circuits already
        # through it stay established until released.
        self.failed = False

    def legal_settings(self) -> Iterator[dict[int, int]]:
        """Enumerate every *complete* non-broadcast setting.

        A complete setting matches ``min(n_in, n_out)`` ports; partial
        settings are prefixes of complete ones, so enumerating complete
        matchings suffices for the Theorem 1 equivalence tests.
        """
        ins = range(self.n_in)
        outs = range(self.n_out)
        if self.n_in <= self.n_out:
            for perm in _permutations(outs, self.n_in):
                yield dict(zip(ins, perm))
        else:
            for perm in _permutations(ins, self.n_out):
                yield {i: o for o, i in zip(outs, perm)}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Switchbox(stage={self.stage}, index={self.index}, {self.n_in}x{self.n_out})"
