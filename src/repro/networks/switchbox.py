"""Non-broadcast crossbar switchboxes (the paper's Section III-B model).

*"A switchbox in an MRSIN is a crossbar switch without broadcast
connections ... an input link is connected to at most one output link
and vice versa."*  A switch setting is therefore a partial matching
between input and output ports — exactly the property Theorem 1 uses
to identify switch settings with unit-capacity flow assignments.

For the common 2x2 case the two complete settings are named
``straight`` and ``exchange`` as in the paper's Fig. 2 discussion.
"""

from __future__ import annotations

from itertools import permutations as _permutations
from typing import Iterator

__all__ = ["Switchbox"]


class Switchbox:
    """An ``n_in`` × ``n_out`` crossbar without broadcast.

    The connection state maps input ports to output ports injectively.
    Mutation goes through :meth:`connect` / :meth:`disconnect` so the
    non-broadcast invariant can never be violated.
    """

    def __init__(self, stage: int, index: int, n_in: int, n_out: int) -> None:
        if n_in < 1 or n_out < 1:
            raise ValueError(f"switchbox needs at least one port each way, got {n_in}x{n_out}")
        self.stage = stage
        self.index = index
        self.n_in = n_in
        self.n_out = n_out
        # A failed box routes nothing until repaired; its existing
        # connections are kept so severed circuits can still be torn
        # down cleanly (disconnect works on a failed box).
        self.failed = False
        self._in_to_out: dict[int, int] = {}
        self._out_to_in: dict[int, int] = {}

    # ------------------------------------------------------------------
    @property
    def connections(self) -> dict[int, int]:
        """Current setting as an input→output port map (copy)."""
        return dict(self._in_to_out)

    @property
    def n_connected(self) -> int:
        """Number of established input→output connections."""
        return len(self._in_to_out)

    def input_free(self, port: int) -> bool:
        """Whether input ``port`` is unconnected."""
        self._check_port(port, self.n_in, "input")
        return port not in self._in_to_out

    def output_free(self, port: int) -> bool:
        """Whether output ``port`` is unconnected."""
        self._check_port(port, self.n_out, "output")
        return port not in self._out_to_in

    def ports_free(self, in_port: int, out_port: int) -> bool:
        """Whether both ``in_port`` and ``out_port`` are unconnected.

        One bounds-checked call instead of an :meth:`input_free` /
        :meth:`output_free` pair — the circuit-establishment hot path
        asks this for every hop of every path in a batch, so (as in
        :meth:`connect` and :meth:`disconnect`) the bounds comparison
        is inline and ``_check_port`` only runs to raise.
        """
        if not (0 <= in_port < self.n_in and 0 <= out_port < self.n_out):
            self._check_port(in_port, self.n_in, "input")
            self._check_port(out_port, self.n_out, "output")
        return in_port not in self._in_to_out and out_port not in self._out_to_in

    def output_for(self, in_port: int) -> int | None:
        """Output port connected to ``in_port`` (None if free)."""
        self._check_port(in_port, self.n_in, "input")
        return self._in_to_out.get(in_port)

    # ------------------------------------------------------------------
    def connect(self, in_port: int, out_port: int) -> None:
        """Establish ``in_port -> out_port``; both must be free."""
        if not (0 <= in_port < self.n_in and 0 <= out_port < self.n_out):
            self._check_port(in_port, self.n_in, "input")
            self._check_port(out_port, self.n_out, "output")
        if in_port in self._in_to_out:
            raise ValueError(f"{self}: input {in_port} already connected (non-broadcast)")
        if out_port in self._out_to_in:
            raise ValueError(f"{self}: output {out_port} already connected (non-broadcast)")
        self._in_to_out[in_port] = out_port
        self._out_to_in[out_port] = in_port

    def disconnect(self, in_port: int) -> None:
        """Tear down the connection starting at ``in_port``."""
        if not 0 <= in_port < self.n_in:
            self._check_port(in_port, self.n_in, "input")
        out_port = self._in_to_out.pop(in_port, None)
        if out_port is None:
            raise ValueError(f"{self}: input {in_port} is not connected")
        del self._out_to_in[out_port]

    def reset(self) -> None:
        """Clear every connection."""
        self._in_to_out.clear()
        self._out_to_in.clear()

    # ------------------------------------------------------------------
    @property
    def is_straight(self) -> bool:
        """2x2 helper: both wires pass straight through."""
        return (self.n_in, self.n_out) == (2, 2) and self._in_to_out == {0: 0, 1: 1}

    @property
    def is_exchange(self) -> bool:
        """2x2 helper: the wires cross."""
        return (self.n_in, self.n_out) == (2, 2) and self._in_to_out == {0: 1, 1: 0}

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

    # ------------------------------------------------------------------
    @staticmethod
    def _check_port(port: int, limit: int, kind: str) -> None:
        if not 0 <= port < limit:
            raise ValueError(f"{kind} port {port} outside [0, {limit})")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Switchbox(stage={self.stage}, index={self.index}, {self.n_in}x{self.n_out})"
