"""Event-coupled cluster simulation.

The decoupled serving path (PR 2/3) routes every arrival against a
*predicted* per-replica load ledger, then simulates each replica in
isolation; dispatch can never react to what actually happened. This
package couples the component models on **one shared virtual clock** —
the first-principles-simulator move that turns per-part models into a
system model:

- :class:`~repro.cluster.replica.ReplicaSim` — one replica's engine loop
  behind an incremental ``next_event_time()`` / ``advance(until)`` /
  ``inject(request)`` interface (built on the engines' event-loop
  generators, so the per-replica numerics are identical to the
  decoupled path).
- :class:`~repro.cluster.replica.ObservedLoad` — the routing policies'
  load-view API answered from live replica state: actual queued tokens,
  real KV headroom, **measured** preemption counts.
- :class:`~repro.cluster.simulator.ClusterSimulator` — the shared-clock
  event loop: replicas advance to each arrival, the policy dispatches
  against observed load, and measured preemption storms trigger
  re-dispatch of still-pending requests.
- :class:`~repro.cluster.fleet.ReplicaFleet` — lifecycle-managed elastic
  membership (``provisioning -> warming -> active -> draining ->
  stopped``) with cost-model scale-up latency (weight load + KV warmup);
  the dispatch policies rank whatever membership is active at each
  decision instant. The fluid tier (:mod:`repro.cluster.fluid`) runs its
  mean-field replicas through the same fleet.
- :mod:`repro.cluster.autoscaler` — pluggable scaling policies on the
  shared clock (``none`` / ``threshold`` / ``predictive`` Erlang-C
  right-sizing / ``threshold:burn_rate`` SLO burn-rate fast path),
  driving the fleet through ``EngineOptions.autoscaler``.

Enabled with ``EngineOptions(coupled=True)`` / the ``--coupled`` CLI
flag; the ``static`` policy with ``autoscaler="none"`` stays bit-exact
with the decoupled path on offline workloads.
"""

from repro.cluster.autoscaler import (
    AUTOSCALER_POLICIES,
    Autoscaler,
    BurnRateThresholdAutoscaler,
    PredictiveAutoscaler,
    ThresholdAutoscaler,
    make_autoscaler,
)
from repro.cluster.fleet import ReplicaFleet, ReplicaHandle, ReplicaLifecycle
from repro.cluster.replica import ObservedLoad, ReplicaSim
from repro.cluster.simulator import ClusterSimulator

__all__ = [
    "AUTOSCALER_POLICIES",
    "Autoscaler",
    "BurnRateThresholdAutoscaler",
    "ClusterSimulator",
    "ObservedLoad",
    "PredictiveAutoscaler",
    "ReplicaFleet",
    "ReplicaHandle",
    "ReplicaLifecycle",
    "ReplicaSim",
    "ThresholdAutoscaler",
    "make_autoscaler",
]
