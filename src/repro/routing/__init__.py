"""Cluster-level request routing across data-parallel replicas.

The seed partitioned requests across DP replicas once, at t=0, with a
round-robin deal (request ``i`` to replica ``i % dp``) — fine for
offline throughput runs, but an online cluster dispatches each request
*when it arrives*, against the load its replicas carry at that instant.
This subsystem provides that dispatch layer:

- :class:`~repro.routing.load.ReplicaLoad` — the router's per-replica
  load ledger: a FIFO of dispatched-but-unfinished requests drained
  against service-rate estimates, with queued/running token views and a
  predicted-preemption counter.
- :class:`~repro.routing.policies.Router` and its policies — ``static``
  (round-robin by submission index, bit-exact with the seed's t=0
  deal), ``jsq`` (join-shortest-queue by queued prefill
  tokens), ``least-work`` (outstanding prefill plus predicted decode
  tokens), ``po2`` (power-of-two-choices sampling, seeded), and ``slo``
  (best predicted attainment: penalize predicted preemptions, then
  predicted TTFT-SLO misses, then predicted TTFT).
- :class:`~repro.routing.stats.RouterStats` — dispatch counts, token
  totals, peak queue depths and imbalance ratios, carried through
  :class:`~repro.runtime.metrics.EngineResult`.

Every engine routes through this layer (``EngineOptions.router``); the
default ``static`` policy preserves the seed's golden offline numbers
bit-exactly.
"""

from repro.routing.load import DispatchRecord, ReplicaLoad, RouterContext
from repro.routing.policies import (
    DEFAULT_STORM_PREEMPTIONS,
    JSQRouter,
    LeastWorkRouter,
    Po2Router,
    ROUTER_POLICIES,
    Router,
    SLORouter,
    StaticRouter,
    make_router,
)
from repro.routing.stats import RouterStats, RoutingPlan

__all__ = [
    "DEFAULT_STORM_PREEMPTIONS",
    "DispatchRecord",
    "JSQRouter",
    "LeastWorkRouter",
    "Po2Router",
    "ROUTER_POLICIES",
    "ReplicaLoad",
    "Router",
    "RouterContext",
    "RouterStats",
    "RoutingPlan",
    "SLORouter",
    "StaticRouter",
    "make_router",
]
