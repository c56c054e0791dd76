"""Router dispatch statistics, carried through :class:`EngineResult`.

:class:`RouterStats` is the cluster-level complement to the per-replica
run metrics: how the router spread requests and tokens, how deep each
replica's predicted prefill queue got, and how often the storm rebalancer
moved pending work. The load-imbalance ratios here are what the report
tables surface (max/mean = 1.0 is a perfectly balanced cluster).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.request import Request


def _max_over_mean(values: tuple[float, ...] | tuple[int, ...]) -> float:
    """Max/mean imbalance ratio; 1.0 for an empty or all-zero vector."""
    if not values:
        return 1.0
    mean = sum(values) / len(values)
    if mean <= 0:
        return 1.0
    return max(values) / mean


@dataclass(frozen=True)
class FleetEvent:
    """One replica-membership change on the cluster's shared clock."""

    time: float
    kind: str  # "scale-up" | "active" | "scale-down" | "stopped"
    replica_id: int
    active_dp: int  # active replica count right after the event
    # Human-readable cause: for scale actions, the autoscaler's recorded
    # decision (triggering signal, window values, chosen target); for
    # lifecycle completions, what finished.
    reason: str = ""


@dataclass(frozen=True)
class FleetStats:
    """Lifecycle summary of an elastic replica fleet.

    Attached to :class:`RouterStats` by the event-coupled simulator when
    the run was served by a :class:`~repro.cluster.fleet.ReplicaFleet`.
    ``replica_seconds`` bills each replica from provisioning start to its
    stop (or the cluster makespan while it stays up) — the quantity an
    autoscaler exists to shrink; ``active_replica_seconds`` counts each
    replica's serving window (activation to stop: dispatchable time plus
    any draining tail, whose GPUs are still busy finishing in-flight
    work), so ``mean_dp``/``peak_dp`` are the time-weighted and peak
    serving replica counts over the run.
    """

    autoscaler: str
    min_dp: int
    max_dp: int
    num_handles: int  # replicas that ever existed (any lifecycle state)
    peak_dp: int  # max simultaneously active replicas
    mean_dp: float  # time-weighted active replicas over the makespan
    replica_seconds: float  # billed: provision start -> stop/makespan
    active_replica_seconds: float
    provision_seconds: float  # total time spent provisioning + warming
    scale_ups: int
    scale_downs: int
    events: tuple[FleetEvent, ...] = ()

    @property
    def scale_events(self) -> int:
        return self.scale_ups + self.scale_downs

    def describe(self) -> str:
        return (
            f"{self.autoscaler}: dp peak {self.peak_dp} mean {self.mean_dp:.2f} "
            f"| {self.scale_events} scale events (+{self.scale_ups}/-"
            f"{self.scale_downs}) | {self.replica_seconds:.1f} replica-s"
        )


@dataclass(frozen=True)
class RouterStats:
    """Summary of one routing pass over a workload.

    Decoupled runs fill the predicted fields; event-coupled runs
    (``coupled=True``) additionally carry what was *measured* during the
    co-simulation: per-replica observed preemption counts, idle
    fractions (normalized by each replica's active window, not the full
    makespan — partial-lifetime replicas are not idle before they exist
    or after they stop), and how much still-pending work the storm
    re-dispatcher moved between replicas. Elastic runs also attach a
    :class:`FleetStats` lifecycle record; the per-replica vectors then
    have one entry per replica that *ever* existed.
    """

    policy: str
    num_replicas: int
    requests_per_replica: tuple[int, ...]
    tokens_per_replica: tuple[int, ...]  # prompt + output tokens dispatched
    peak_queued_prefill_tokens: tuple[float, ...]
    predicted_preemptions: tuple[int, ...]
    rebalanced_requests: int = 0
    rebalances: int = 0
    # Event-coupled extras (None / 0 on the decoupled path).
    coupled: bool = False
    observed_preemptions: tuple[int, ...] | None = None
    idle_fraction: tuple[float, ...] | None = None
    redispatched_requests: int = 0
    redispatches: int = 0
    # Elastic-fleet lifecycle record (None for fixed-membership runs).
    fleet: FleetStats | None = None

    def __post_init__(self) -> None:
        vectors = (
            self.requests_per_replica,
            self.tokens_per_replica,
            self.peak_queued_prefill_tokens,
            self.predicted_preemptions,
            self.observed_preemptions,
            self.idle_fraction,
        )
        if any(v is not None and len(v) != self.num_replicas for v in vectors):
            raise SimulationError(
                f"router stats vectors must have {self.num_replicas} entries"
            )

    @property
    def num_requests(self) -> int:
        return sum(self.requests_per_replica)

    @property
    def token_imbalance(self) -> float:
        """Max/mean dispatched tokens across replicas (1.0 = balanced)."""
        return _max_over_mean(self.tokens_per_replica)

    @property
    def peak_queue_imbalance(self) -> float:
        """Max/mean of the per-replica peak queued-prefill-token depth —
        the metric JSQ exists to flatten."""
        return _max_over_mean(self.peak_queued_prefill_tokens)

    @property
    def max_peak_queued_tokens(self) -> float:
        return max(self.peak_queued_prefill_tokens, default=0.0)

    @property
    def total_predicted_preemptions(self) -> int:
        return sum(self.predicted_preemptions)

    @property
    def total_observed_preemptions(self) -> int:
        return sum(self.observed_preemptions or ())

    @property
    def mean_idle_fraction(self) -> float:
        if not self.idle_fraction:
            return 0.0
        return sum(self.idle_fraction) / self.num_replicas

    def describe(self) -> str:
        base = (
            f"{self.policy}: {self.num_requests} reqs over "
            f"{self.num_replicas} replicas | tok-imbal "
            f"{self.token_imbalance:.2f} | peak-queue-imbal "
            f"{self.peak_queue_imbalance:.2f}"
        )
        if self.coupled:
            return (
                f"{base} | preempted {self.total_observed_preemptions} | "
                f"idle {self.mean_idle_fraction * 100:.0f}% | re-dispatched "
                f"{self.redispatched_requests}"
            )
        return f"{base} | rebalanced {self.rebalanced_requests}"


@dataclass(frozen=True)
class RoutingPlan:
    """Outcome of routing one request list: who goes where, plus stats.

    ``assignments[i]`` is the replica of the ``i``-th request *in
    submission order*; ``partitions[r]`` lists replica ``r``'s requests in
    submission order (replica schedulers re-sort by arrival anyway).
    """

    assignments: tuple[int, ...]
    partitions: tuple[tuple["Request", ...], ...]
    stats: RouterStats

    def __post_init__(self) -> None:
        if sum(len(p) for p in self.partitions) != len(self.assignments):
            raise SimulationError("routing plan lost or duplicated requests")
