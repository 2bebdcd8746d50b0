"""The named-topology registry: one table, one validated builder.

Every layer that takes a topology *by name* — the CLI's ``--network``,
the chaos harness, the fabric's cell specs (a name pickles, a lambda
does not) — resolves it here, so a size the topology cannot realise is
rejected the same way everywhere instead of silently running a network
of a different size under the requested label.
"""

from __future__ import annotations

from typing import Callable

from repro.networks.baseline import baseline
from repro.networks.benes import benes
from repro.networks.clos import clos
from repro.networks.crossbar import crossbar
from repro.networks.cube import cube, delta
from repro.networks.gamma import data_manipulator, gamma
from repro.networks.omega import extra_stage_omega, flip, omega
from repro.networks.topology import MultistageNetwork

__all__ = ["TOPOLOGIES", "build_network"]

#: ``name -> builder(ports)``.  A builder may not realise every size
#: (``clos`` rounds odd ``n`` down to ``2 * (n // 2)``, the log-stage
#: networks need a power of two); :func:`build_network` checks.
TOPOLOGIES: dict[str, Callable[[int], MultistageNetwork]] = {
    "omega": omega,
    "flip": flip,
    "cube": cube,
    "delta": delta,
    "baseline": baseline,
    "benes": benes,
    "gamma": gamma,
    "data_manipulator": data_manipulator,
    "crossbar": lambda n: crossbar(n, n),
    "clos": lambda n: clos(max(n // 2, 1), 2, max(n // 2, 1)),
    "omega+1": lambda n: extra_stage_omega(n, 1),
    "omega+2": lambda n: extra_stage_omega(n, 2),
}


def build_network(name: str, ports: int) -> MultistageNetwork:
    """A fresh ``ports`` x ``ports`` network of registry topology ``name``.

    Raises ``ValueError`` for an unknown name, a size the builder
    refuses, or a size it silently rounds: every downstream statistic
    is labelled with ``ports``, so a network of any other size must
    never leave here.
    """
    if name not in TOPOLOGIES:
        raise ValueError(
            f"unknown topology {name!r}; choose from {sorted(TOPOLOGIES)}"
        )
    try:
        net = TOPOLOGIES[name](ports)
    except ValueError as exc:
        raise ValueError(f"cannot build {name}-{ports}: {exc}") from exc
    if (net.n_processors, net.n_resources) != (ports, ports):
        raise ValueError(
            f"{name}-{ports} builds a {net.n_processors}x{net.n_resources} "
            f"network, not {ports}x{ports}; pick a port count the topology "
            f"can realise (e.g. an even size for clos)"
        )
    return net
