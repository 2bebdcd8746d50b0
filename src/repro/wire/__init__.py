"""The network front-end: real traffic over a real wire.

The paper's Section IV monitor is an allocation *server*; until this
layer the reproduction only drove it with in-process seeded workloads.
:mod:`repro.wire` puts the :class:`~repro.service.server.AllocationService`
behind actual TCP so admission control, deadlines, revocation, and the
fault budget become observable SLOs:

- :mod:`repro.wire.protocol` — versioned newline-delimited JSON frames
  (ACQUIRE/RELEASE/END_TX/PING/STATS requests; LEASE/REJECTED/TIMEOUT/
  REVOKED/ERROR/OK/PONG replies) with pure encode/decode;
- :mod:`repro.wire.server` — asyncio TCP :class:`WireServer` wrapping a
  service: one task per connection and a batch of frames per read,
  connection-scoped lease tracking (disconnect auto-releases),
  graceful drain, max-connections guard;
- :mod:`repro.wire.client` — pipelined :class:`WireClient` with
  configurable timeouts and seeded reconnect backoff;
- :mod:`repro.wire.loadgen` — open-loop load generator (seeded Poisson
  / bursty / diurnal arrivals) recording tail latencies into a
  :class:`~repro.util.histogram.LatencyHistogram`.

``python -m repro wire-serve`` / ``python -m repro loadgen`` are the
CLI wrappers; ``python3 -m bench --workload wire-open`` / ``wire-closed``
measure the path.
"""

from repro.wire.client import (
    RemoteLease,
    WireClient,
    WireConnectionError,
    WireError,
    WireLeaseRevoked,
    WireRejected,
    WireRemoteError,
    WireTimeout,
)
from repro.wire.loadgen import LoadGenConfig, LoadGenReport, run_loadgen
from repro.wire.protocol import Frame, ProtocolError, decode, encode
from repro.wire.server import WireServer

__all__ = [
    "Frame",
    "LoadGenConfig",
    "LoadGenReport",
    "ProtocolError",
    "RemoteLease",
    "WireClient",
    "WireConnectionError",
    "WireError",
    "WireLeaseRevoked",
    "WireRejected",
    "WireRemoteError",
    "WireServer",
    "WireTimeout",
    "decode",
    "encode",
    "run_loadgen",
]
