"""Interconnection-network substrate: multistage networks as objects.

The paper's results are *"derived with respect to multistage
interconnection networks ... and are applicable to any general
loop-free network configuration"*.  This subpackage provides the
network model (:mod:`repro.networks.topology`) and constructors for
the classic topologies the paper cites from Feng's survey:

- :func:`omega` — Lawrie's Omega (perfect shuffle), the paper's Fig. 2
  and Fig. 9 substrate;
- :func:`flip` — the STARAN Flip network (inverse Omega);
- :func:`cube` / :func:`indirect_binary_cube` — the multistage
  cube / Pease's indirect binary n-cube;
- :func:`delta` — Patel's delta network (butterfly wiring, MSB first);
- :func:`baseline` — Wu and Feng's baseline network;
- :func:`benes` — the Beneš rearrangeable network (2 log N - 1 stages);
- :func:`clos` — the 3-stage Clos network;
- :func:`crossbar` — a single-stage crossbar switch;
- :func:`gamma` / :func:`data_manipulator` — the PM2I family the
  conclusions name (redundant paths, 3x3 switches);
- :func:`extra_stage_omega` — Omega with extra stages (the paper's
  "if extra stages are provided, there will be more paths" case).

All builders return a :class:`~repro.networks.topology.MultistageNetwork`
whose switchboxes are non-broadcast crossbars, matching the model of
Section II.  :data:`TOPOLOGIES` names the square ones and
:func:`build_network` builds one by name at a validated size.
"""

from repro.networks.switchbox import Switchbox
from repro.networks.topology import Circuit, Link, MultistageNetwork, PortRef
from repro.networks.omega import omega, extra_stage_omega, flip
from repro.networks.cube import cube, indirect_binary_cube, delta
from repro.networks.baseline import baseline
from repro.networks.benes import benes
from repro.networks.clos import clos
from repro.networks.crossbar import crossbar
from repro.networks.gamma import gamma, data_manipulator
from repro.networks.routing import destination_tag_path, reachable_resources
from repro.networks.registry import TOPOLOGIES, build_network

__all__ = [
    "Switchbox",
    "Circuit",
    "Link",
    "MultistageNetwork",
    "PortRef",
    "omega",
    "extra_stage_omega",
    "flip",
    "cube",
    "indirect_binary_cube",
    "delta",
    "baseline",
    "benes",
    "clos",
    "crossbar",
    "gamma",
    "data_manipulator",
    "destination_tag_path",
    "reachable_resources",
    "TOPOLOGIES",
    "build_network",
]
