"""Lifecycle-managed elastic replica fleet, shared by both fidelity tiers.

A :class:`ReplicaFleet` owns one :class:`ReplicaHandle` per replica that
*ever* existed, each moving through the lifecycle

    provisioning -> warming -> active -> draining -> stopped

on the cluster's shared virtual clock. Scale-up is not free: a new
replica first loads its weight shard over the host link
(:class:`~repro.costmodel.transfer.TransferModel` — GPUs of a replica
load their shards concurrently, so the per-GPU time is the wall time)
and then warms its KV region (one streaming pass over the KV pool at
attainable HBM bandwidth: allocation plus page-touch). Only then does it
become *active* and enter the dispatch membership. Scale-down drains: a
draining replica accepts no new dispatches but finishes everything
already dispatched to it, then stops at the later of its drain order and
its last work.

The fleet serves the event tier
(:class:`~repro.cluster.simulator.ClusterSimulator`, whose replicas are
engine :class:`~repro.cluster.replica.ReplicaSim` generators) and the
fluid tier (:class:`~repro.cluster.fluid.FluidSimulator`, whose replicas
are mean-field queues) alike: the tier only supplies the factory that
starts a replica at activation. Membership, the autoscaler's view,
lifecycle transitions and every accounting rule below are therefore one
definition at both fidelity levels.

Membership changes are first-class events: activations and stops are
timestamped, logged (:class:`~repro.routing.stats.FleetEvent`) and folded
into the run's :class:`~repro.routing.stats.FleetStats` (peak/mean dp,
replica-seconds, scale counts). With no autoscaler the fleet is simply
the fixed replica set of the engine's configuration, active from t=0 —
bit-exact with the fixed-fleet simulator it replaces.
"""

from __future__ import annotations

import enum
import math
from typing import TYPE_CHECKING, Any, Callable, Iterator, Sequence

from repro.cluster.autoscaler import Autoscaler, make_autoscaler
from repro.cluster.replica import ObservedLoad
from repro.costmodel.transfer import TransferModel
from repro.errors import ConfigurationError, SimulationError
from repro.parallel.memory import kv_capacity_bytes_per_gpu, weight_bytes_per_gpu
from repro.routing.load import RouterContext, _duration
from repro.routing.stats import FleetEvent, FleetStats, RouterStats
from repro.workloads.spec import WorkloadSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engines.base import BaseEngine
    from repro.runtime.request import Request

#: Starts one replica at activation: ``(replica_id, start_time) -> (sim,
#: load)``. ``sim`` answers ``clock``, ``idle_time()``,
#: ``queued_prefill_tokens(now)``, ``outstanding_tokens(now)`` (the drain
#: cost scale-down ranks victims by), ``drained_by(now)`` and the
#: :meth:`ReplicaFleet.router_stats` counters (``num_requests``,
#: ``total_tokens``, ``peak_queued_prefill_tokens``,
#: ``observed_preemptions()``); ``load`` is the view the routing policies
#: and the autoscaler rank.
ReplicaStarter = Callable[[int, float], tuple[Any, Any]]

_EPS = 1e-12


class ReplicaLifecycle(enum.Enum):
    """Where one replica is in its provision/serve/retire life."""

    PROVISIONING = "provisioning"  # loading the weight shard host->GPU
    WARMING = "warming"  # initializing the KV region
    ACTIVE = "active"  # in the dispatch membership
    DRAINING = "draining"  # finishing in-flight work, no new dispatches
    STOPPED = "stopped"  # fully drained and released


def provision_times(engine: "BaseEngine") -> tuple[float, float]:
    """(weight-load seconds, KV-warmup seconds) for one new replica.

    Weight load: each GPU of the replica pulls its shard
    (:func:`weight_bytes_per_gpu`) over its own host link concurrently,
    so the wall time is one shard over the pinned-staging link. KV
    warmup: the freshly allocated KV region is touched once at attainable
    HBM bandwidth (allocation + zeroing — the pool must exist before the
    first prefill can write into it).
    """
    cfg = engine.replica_config
    transfer = TransferModel(engine.cluster, layout=engine.options.kv_layout)
    weight_s = transfer.weight_load_time(weight_bytes_per_gpu(engine.model, cfg))
    kv_bytes = max(0.0, kv_capacity_bytes_per_gpu(engine.model, engine.cluster, cfg))
    warm_s = kv_bytes / engine.cluster.gpu.effective_bandwidth
    return weight_s, warm_s


class ReplicaHandle:
    """One replica's lifecycle record; owns its simulation once active."""

    def __init__(
        self,
        replica_id: int,
        created_at: float,
        weights_ready_at: float,
        active_at: float,
    ) -> None:
        self.replica_id = replica_id
        self.created_at = created_at
        self.weights_ready_at = weights_ready_at
        self.active_at = active_at
        self.state = ReplicaLifecycle.PROVISIONING
        # The tier's replica model and load view, set at activation.
        self.sim: Any = None
        self.load: Any = None
        self.drain_started_at: float | None = None
        self.stopped_at: float | None = None

    @property
    def dispatchable(self) -> bool:
        return self.state is ReplicaLifecycle.ACTIVE

    @property
    def live(self) -> bool:
        """Whether the replica still executes events (active or draining)."""
        return self.state in (ReplicaLifecycle.ACTIVE, ReplicaLifecycle.DRAINING)

    def end_time(self, makespan: float) -> float:
        """When this replica stopped costing anything (makespan while up)."""
        return self.stopped_at if self.stopped_at is not None else makespan

    def active_window(self, makespan: float) -> float:
        """Seconds this replica spent dispatchable-or-draining."""
        if self.sim is None:
            return 0.0
        return max(0.0, self.end_time(makespan) - self.active_at)


class ReplicaFleet:
    """Dynamic replica membership on the shared cluster clock.

    The fleet keeps a count of handles per lifecycle state, updated where
    a handle is created (:meth:`_new_handle`) and where its state changes
    (:meth:`_transition`), so :attr:`active_count`,
    :attr:`provisioning_count`, :attr:`draining_count` and
    :attr:`target_count` read counts instead of walking every handle.
    Their oracle is a recount of :attr:`handles`: under ``--sanitize``,
    simsan's S6 compares the two at every transition.
    """

    def __init__(
        self,
        engine: "BaseEngine",
        initial_dp: int,
        context: RouterContext,
        *,
        min_dp: int = 1,
        max_dp: int | None = None,
        autoscaler_name: str = "none",
        start: ReplicaStarter | None = None,
    ) -> None:
        if initial_dp < 1:
            raise ConfigurationError("fleet needs at least one initial replica")
        if min_dp < 1:
            raise ConfigurationError("min_dp must be >= 1")
        gpus_per_replica = engine.replica_config.num_gpus
        hard_cap = engine.cluster.num_gpus // gpus_per_replica
        if max_dp is None:
            max_dp = max(initial_dp, hard_cap)
        if max_dp < min_dp:
            raise ConfigurationError(
                f"max_dp ({max_dp}) must be >= min_dp ({min_dp})"
            )
        if max_dp > hard_cap:
            raise ConfigurationError(
                f"max_dp {max_dp} needs {max_dp * gpus_per_replica} GPUs, "
                f"cluster has {engine.cluster.num_gpus}"
            )
        if not min_dp <= initial_dp <= max_dp:
            raise ConfigurationError(
                f"initial dp {initial_dp} outside [{min_dp}, {max_dp}]"
            )
        self.engine = engine
        self.context = context
        self._start = start if start is not None else self._start_engine_replica
        self.min_dp = min_dp
        self.max_dp = max_dp
        self.autoscaler_name = autoscaler_name
        self.weight_load_s, self.kv_warmup_s = provision_times(engine)
        self.handles: list[ReplicaHandle] = []
        # Handles per lifecycle state (see the class docstring).
        self._counts = dict.fromkeys(ReplicaLifecycle, 0)
        # Lifecycle worklists so the per-event poll/reap sweeps touch only
        # replicas that can actually transition (id-ordered, like the
        # full-handle scans they replace). ``pending`` is public so a
        # per-arrival loop can skip the poll call while it is empty.
        self.pending: list[ReplicaHandle] = []
        self._draining: list[ReplicaHandle] = []
        self.events: list[FleetEvent] = []
        self.scale_ups = 0
        self.scale_downs = 0
        # The fleet you start with is already resident and warm (the
        # fixed-fleet seed semantics): active at t=0 with no provision
        # latency and no scale event.
        for _ in range(initial_dp):
            handle = self._new_handle(0.0, prewarmed=True)
            # Prewarmed replicas pass through WARMING instantaneously so
            # even the t=0 fleet walks the strict lifecycle order.
            self._transition(handle, ReplicaLifecycle.WARMING, 0.0)
            self._activate(handle)

    # ------------------------------------------------------------------ #
    # Membership views
    # ------------------------------------------------------------------ #

    def active_handles(self) -> list[ReplicaHandle]:
        return [h for h in self.handles if h.dispatchable]

    def dispatch_loads(self) -> list[ObservedLoad]:
        """The membership view the routing policies rank right now."""
        return [h.load for h in self.handles if h.dispatchable and h.load]

    def live_sims(self) -> Iterator[Any]:
        """Simulations that still execute events (active + draining)."""
        for h in self.handles:
            if h.live and h.sim is not None:
                yield h.sim

    def sims(self) -> Iterator[Any]:
        """Every simulation that ever ran (any lifecycle state)."""
        for h in self.handles:
            if h.sim is not None:
                yield h.sim

    def handle(self, replica_id: int) -> ReplicaHandle:
        if 0 <= replica_id < len(self.handles):
            return self.handles[replica_id]
        raise SimulationError(f"no replica handle with id {replica_id}")

    @property
    def active_count(self) -> int:
        return self._counts[ReplicaLifecycle.ACTIVE]

    @property
    def provisioning_count(self) -> int:
        counts = self._counts
        return counts[ReplicaLifecycle.PROVISIONING] + counts[ReplicaLifecycle.WARMING]

    @property
    def draining_count(self) -> int:
        return self._counts[ReplicaLifecycle.DRAINING]

    @property
    def target_count(self) -> int:
        """Replicas already committed: active plus in-flight scale-ups."""
        return self.active_count + self.provisioning_count

    # ------------------------------------------------------------------ #
    # Lifecycle events
    # ------------------------------------------------------------------ #

    def _new_handle(self, now: float, prewarmed: bool = False) -> ReplicaHandle:
        rid = len(self.handles)
        if prewarmed:
            handle = ReplicaHandle(rid, now, now, now)
        else:
            ready = now + self.weight_load_s
            handle = ReplicaHandle(rid, now, ready, ready + self.kv_warmup_s)
        self.handles.append(handle)
        self._counts[handle.state] += 1
        if not prewarmed:
            self.pending.append(handle)
        return handle

    def _transition(
        self, handle: ReplicaHandle, new_state: ReplicaLifecycle, now: float
    ) -> None:
        """Every lifecycle state write funnels through here, so the kept
        counts follow it and the sanitizer can assert the edge is legal
        and the counts match a recount of the handles (S6)."""
        san = self.engine.hooks.sanitize
        if san is not None:
            san.note_transition(
                handle.replica_id, handle.state.value, new_state.value, now
            )
        counts = self._counts
        counts[handle.state] -= 1
        counts[new_state] += 1
        handle.state = new_state
        if san is not None:
            kept = {state.value: k for state, k in counts.items()}
            recount = [h.state.value for h in self.handles]
            san.check_lifecycle_counts(kept, recount, handle.replica_id, now)

    def _start_engine_replica(self, replica_id: int, start_time: float):
        """The event tier's replica: the engine's steppable simulation,
        ranked through its observed load."""
        sim = self.engine.start_replica(replica_id, start_time=start_time)
        return sim, ObservedLoad(sim, self.context)

    def _activate(self, handle: ReplicaHandle) -> None:
        self._transition(handle, ReplicaLifecycle.ACTIVE, handle.active_at)
        handle.sim, handle.load = self._start(handle.replica_id, handle.active_at)

    def poll(self, now: float) -> list[ReplicaHandle]:
        """Commit every lifecycle transition due by ``now`` (the
        membership events of the shared clock); returns the handles that
        became active so the caller can schedule their first events."""
        if not self.pending:
            return []
        activated: list[ReplicaHandle] = []
        for h in self.pending:
            if (
                h.state is ReplicaLifecycle.PROVISIONING
                and h.weights_ready_at <= now + _EPS
            ):
                self._transition(h, ReplicaLifecycle.WARMING, h.weights_ready_at)
            if h.state is ReplicaLifecycle.WARMING and h.active_at <= now + _EPS:
                self._activate(h)
                self.events.append(
                    FleetEvent(
                        h.active_at,
                        "active",
                        h.replica_id,
                        self.active_count,
                        reason=(
                            f"weights loaded {self.weight_load_s:.2f}s + KV warm "
                            f"{self.kv_warmup_s:.2f}s after scale-up"
                        ),
                    )
                )
                activated.append(h)
        if activated:
            self.pending = [
                h for h in self.pending if h.state is not ReplicaLifecycle.ACTIVE
            ]
        return activated

    def next_transition_at(self) -> float:
        """Earliest instant :meth:`poll` has a transition to commit
        (``inf`` with nothing pending): a poll at ``now`` changes nothing
        unless this is ``<= now + 1e-12``. Valid until the next poll or
        scale-up."""
        return min(
            (
                h.weights_ready_at
                if h.state is ReplicaLifecycle.PROVISIONING
                else h.active_at
                for h in self.pending
            ),
            default=math.inf,
        )

    def reap_drained(self, now: float = math.inf) -> None:
        """Stop draining replicas whose in-flight work has completed by
        ``now`` (by default, at all: the end-of-run sweep)."""
        if not self._draining:
            return
        reaped = False
        for h in sorted(self._draining, key=lambda h: h.replica_id):
            if h.state is not ReplicaLifecycle.DRAINING or h.sim is None:
                continue
            if h.sim.drained_by(now):
                # The drain completes when the last in-flight work did,
                # or at the drain order itself if the replica was already
                # idle when it was told to go.
                assert h.drain_started_at is not None
                h.stopped_at = max(h.drain_started_at, h.sim.clock)
                self._transition(h, ReplicaLifecycle.STOPPED, h.stopped_at)
                reaped = True
                self.events.append(
                    FleetEvent(
                        h.stopped_at,
                        "stopped",
                        h.replica_id,
                        self.active_count,
                        reason="in-flight work drained",
                    )
                )
        if reaped:
            self._draining = [
                h for h in self._draining if h.state is ReplicaLifecycle.DRAINING
            ]

    def scale_up(self, now: float, n: int, reason: str = "") -> int:
        """Provision ``n`` new replicas (bounded by ``max_dp``); returns
        how many were actually started. ``reason`` records the scaling
        decision that ordered them (the autoscaler's triggering signal)."""
        started = 0
        while started < n and self.target_count < self.max_dp:
            handle = self._new_handle(now)
            self.scale_ups += 1
            started += 1
            self.events.append(
                FleetEvent(
                    now, "scale-up", handle.replica_id, self.active_count,
                    reason=reason,
                )
            )
        return started

    def scale_down(self, now: float, n: int, reason: str = "") -> int:
        """Begin draining ``n`` active replicas (never below ``min_dp``
        active-or-provisioning, and never the last active replica).

        Drains the least-loaded replicas first (they finish soonest),
        breaking ties toward the youngest so the long-lived low ids —
        the stable backbone the static deal rotates over — survive.
        """
        drained = 0
        while drained < n:
            active = self.active_handles()
            if len(active) <= 1 or self.target_count <= self.min_dp:
                break
            victim = min(
                active,
                key=lambda h: (
                    h.sim.outstanding_tokens(now) if h.sim else 0.0,
                    -h.replica_id,
                ),
            )
            self._transition(victim, ReplicaLifecycle.DRAINING, now)
            victim.drain_started_at = now
            self._draining.append(victim)
            self.scale_downs += 1
            drained += 1
            self.events.append(
                FleetEvent(
                    now, "scale-down", victim.replica_id, self.active_count,
                    reason=reason,
                )
            )
        if drained:
            self.reap_drained(now)
        return drained

    def resize_to(self, target: int, now: float, reason: str = "") -> None:
        """Move the committed replica count toward ``target``; ``reason``
        is the scaling decision's recorded cause, stamped onto the
        resulting :class:`FleetEvent` entries."""
        target = max(self.min_dp, min(self.max_dp, target))
        current = self.target_count
        if target > current:
            self.scale_up(now, target - current, reason=reason)
        elif target < current:
            self.scale_down(now, current - target, reason=reason)

    # ------------------------------------------------------------------ #
    # Accounting
    # ------------------------------------------------------------------ #

    def close(self, makespan: float) -> None:
        """Commit the end-of-run lifecycle before anything is summarised:
        stop every drained replica, and activate every scale-up that
        finished warming by ``makespan``. The tiers poll only at
        arrivals, so a replica due between the last arrival and the
        makespan would otherwise be billed but never counted active."""
        self.reap_drained()
        self.poll(makespan)

    def sample_cluster(self, tel, t: float) -> None:
        """One cluster-wide telemetry sample at boundary ``t`` (sample
        and hold of the membership and queue state at the instant the
        boundary was crossed — the tiers run only at arrivals, so no
        finer-grained truth exists)."""
        queued = 0.0
        for h in self.handles:
            if h.dispatchable and h.sim is not None:
                queued += h.sim.queued_prefill_tokens(t)
        tel.point("cluster.active_dp", t, float(self.active_count))
        tel.point("cluster.provisioning", t, float(self.provisioning_count))
        tel.point("cluster.draining", t, float(self.draining_count))
        tel.point("cluster.queued_prefill_tokens", t, queued)

    def makespan(self) -> float:
        """Latest instant any replica's simulation reached."""
        return max((sim.clock for sim in self.sims()), default=0.0)

    def warming_windows(self) -> tuple[tuple[int, float, float], ...]:
        """``(replica_id, created_at, active_at)`` for every replica that
        paid a provision/warm latency — the windows the tracer overlaps
        with request waits to attribute them to fleet warm-up. Prewarmed
        t=0 replicas have zero-width windows and are excluded."""
        return tuple(
            (h.replica_id, h.created_at, h.active_at)
            for h in self.handles
            if h.active_at > h.created_at + _EPS
        )

    def idle_fractions(self, makespan: float) -> tuple[float, ...]:
        """Idle fraction per handle, normalized by its *active window*.

        A replica is charged the time it slept on an empty queue plus the
        tail between its last event and the end of its window — which is
        the cluster makespan while it stays up, or its stop time once
        drained (a stopped replica is not idle after it stops, and no
        replica is idle before it exists).
        """
        fractions = []
        for h in self.handles:
            window = h.active_window(makespan)
            if h.sim is None or window <= 0:
                fractions.append(0.0)
                continue
            tail = max(0.0, h.end_time(makespan) - h.sim.clock)
            fractions.append(min(1.0, (h.sim.idle_time() + tail) / window))
        return tuple(fractions)

    def router_stats(
        self,
        policy: str,
        makespan: float,
        redispatched_requests: int = 0,
        redispatches: int = 0,
    ) -> RouterStats:
        """The run's measured dispatch record, one entry per handle (a
        replica that never started reads as empty). Nothing is predicted
        on the shared clock, so the measured preemption counter rides in
        ``observed_preemptions``; idle fractions are per active window
        (:meth:`idle_fractions`)."""
        n = len(self.handles)

        def per_sim(fn, default):
            return tuple(
                default if h.sim is None else fn(h.sim) for h in self.handles
            )

        return RouterStats(
            policy=policy,
            num_replicas=n,
            requests_per_replica=per_sim(lambda s: s.num_requests, 0),
            tokens_per_replica=per_sim(lambda s: s.total_tokens, 0),
            peak_queued_prefill_tokens=per_sim(
                lambda s: s.peak_queued_prefill_tokens, 0.0
            ),
            predicted_preemptions=(0,) * n,
            coupled=True,
            observed_preemptions=per_sim(lambda s: s.observed_preemptions(), 0),
            idle_fraction=self.idle_fractions(makespan),
            redispatched_requests=redispatched_requests,
            redispatches=redispatches,
            fleet=self.stats(makespan) if self.autoscaler_name != "none" else None,
        )

    def stats(self, makespan: float) -> FleetStats:
        """Fold the lifecycle log into the run's fleet summary."""
        # Time-weighted active count / peak via an event sweep over the
        # active windows [active_at, end).
        deltas: dict[float, int] = {}
        for h in self.handles:
            if h.sim is None:
                continue
            end = h.end_time(makespan)
            if end <= h.active_at:
                continue
            deltas[h.active_at] = deltas.get(h.active_at, 0) + 1
            deltas[end] = deltas.get(end, 0) - 1
        peak = 0
        level = 0
        active_seconds = 0.0
        last_t: float | None = None
        for t in sorted(deltas):
            if last_t is not None:
                active_seconds += level * (t - last_t)
            level += deltas[t]
            peak = max(peak, level)
            last_t = t
        billed = sum(h.end_time(makespan) - h.created_at for h in self.handles)
        provision = sum(
            max(0.0, min(h.active_at, makespan) - h.created_at)
            for h in self.handles
        )
        return FleetStats(
            autoscaler=self.autoscaler_name,
            min_dp=self.min_dp,
            max_dp=self.max_dp,
            num_handles=len(self.handles),
            peak_dp=peak,
            mean_dp=active_seconds / makespan if makespan > 0 else 0.0,
            replica_seconds=billed,
            active_replica_seconds=active_seconds,
            provision_seconds=provision,
            scale_ups=self.scale_ups,
            scale_downs=self.scale_downs,
            events=tuple(self.events),
        )


def workload_averages(
    requests: WorkloadSpec | Sequence["Request"],
) -> tuple[float, float]:
    """Mean prompt and output length of a non-empty workload."""
    if isinstance(requests, WorkloadSpec):
        n = requests.num_requests
        return requests.total_input_tokens / n, requests.total_output_tokens / n
    n = len(requests)
    return (
        sum(r.prompt_len for r in requests) / n,
        sum(r.output_len for r in requests) / n,
    )


def build_fleet(
    engine: "BaseEngine",
    context: RouterContext,
    averages: tuple[float, float],
    start: ReplicaStarter | None = None,
) -> tuple[ReplicaFleet, Autoscaler | None]:
    """The fleet and autoscaler ``engine.options`` ask for, for either tier.

    With no autoscaler the fleet is the configuration's fixed replica set.
    Otherwise it starts at the configured dp clamped into
    ``[min_dp, max_dp]``; ``max_dp`` defaults to what the cluster holds,
    and a ``max_dp`` the cluster cannot hold is rejected. ``averages`` is
    the workload's mean (prompt, output) length the autoscaler's analytic
    rates are built from; ``start`` is the tier's replica factory.
    """
    options = engine.options
    dp = engine.config.dp
    min_dp = options.min_dp if options.min_dp is not None else 1
    max_dp = options.max_dp
    if options.autoscaler == "none":
        min_dp = max_dp = dp
    fleet = ReplicaFleet(
        engine,
        max(min_dp, min(dp, max_dp or dp)),
        context,
        min_dp=min_dp,
        max_dp=max_dp,
        autoscaler_name=options.autoscaler,
        start=start,
    )
    if options.autoscaler == "none":
        return fleet, None
    # The analytic per-replica service time from the router context's
    # rates: its inverse is the predictive autoscaler's ``mu1``.
    avg_in, avg_out = averages
    prefill_s = _duration(avg_in, context.prefill_tokens_per_s)
    service_s = prefill_s + _duration(
        max(0.0, avg_out - 1.0), context.decode_tokens_per_s
    )
    autoscaler = make_autoscaler(
        options.autoscaler,
        fleet.min_dp,
        fleet.max_dp,
        up_queue_tokens=float(options.max_batched_tokens),
        # A degenerate context gets a neutral capacity.
        capacity_rps_per_replica=(
            1.0 / service_s if service_s > 0 and math.isfinite(service_s) else 1.0
        ),
        prefill_latency_s=prefill_s if math.isfinite(prefill_s) else 0.0,
        ttft_slo=options.ttft_slo,
    )
    return fleet, autoscaler
