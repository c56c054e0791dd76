"""Engine base class and the single-replica execution helpers.

Every engine in this package simulates one DP replica at a time (replicas
process disjoint request partitions concurrently; wall time is the slowest
replica) and shares the mechanics implemented here: the whole-batch
prefill wave, reserved (preemption-free) admission, the batch-at-a-time
scheduling loop, the stretch (one call running a fixed batch's
iterations, decode or with a mid-prompt chunk: every decode step is one),
KV growth and preemption, sequence bookkeeping, and
:meth:`BaseEngine.phase`, the recorder of timed phase spans. The step
helpers take the replica's
:class:`ReplicaState` alone: its ``metrics`` and ``costs`` travel with it.
Requests reach the replicas through :mod:`repro.routing`.
"""

from __future__ import annotations

import abc
import math
from collections import deque
from dataclasses import dataclass, replace
from typing import Iterable, Iterator, Sequence as TypingSequence

from repro.costmodel.breakdown import Breakdown
from repro.costmodel.pipeline import pipeline_time_heterogeneous
from repro.costmodel.step import ITERATION_OVERHEAD, StepCostModel
from repro.cluster.autoscaler import AUTOSCALER_POLICIES
from repro.costmodel.transfer import KVLayout
from repro.errors import CapacityError, ConfigurationError, SimulationError
from repro.hardware.cluster import ClusterSpec
from repro.models.config import ModelConfig
from repro.parallel.config import ParallelConfig
from repro.parallel.memory import kv_capacity_tokens
from repro.engines import slots as decode_slots
from repro.routing import ROUTER_POLICIES, Router, RouterContext, make_router
from repro.runtime.kvcache import KVCacheManager
from repro.runtime.latency import LatencyStats
from repro.runtime.metrics import EngineResult, RunMetrics, merge_dp_results
from repro.runtime.request import Request, Sequence, SequenceState
from repro.workloads.spec import WorkloadSpec, mean_context


@dataclass(frozen=True)
class EngineOptions:
    """Scheduler knobs shared by all engines.

    Attributes:
        max_num_seqs: Cap on concurrently decoding sequences per replica
            (vLLM's ``max_num_seqs``).
        max_batched_tokens: Token budget of one prefill micro-batch /
            forward pass (vLLM's ``max_num_batched_tokens``).
        chunked_prefill: Enable Sarathi-style mixed batches (only consumed
            by engines that support it).
        chunk_size: Token budget of one chunked-prefill iteration
            (decode tokens included, as in vLLM).
        block_size: KV page size in tokens.
        kv_layout: CPU-side KV layout (HND is Seesaw's bandwidth-friendly
            choice; NHD exists for the layout ablation).
        router: Multi-replica dispatch policy (see :mod:`repro.routing`).
            ``static`` reproduces the seed's round-robin t=0 deal
            bit-exactly; ``jsq``/``least-work``/``po2`` dispatch each
            request at its arrival time against tracked replica load.
        router_seed: Seed for stochastic policies (``po2``); ``None`` uses
            the package default seed (still deterministic).
        ttft_slo: TTFT service-level objective in seconds; fed to the
            router context so SLO-aware dispatch (``router="slo"``) can
            route against it. ``None`` = no TTFT target.
        tpot_slo: TPOT service-level objective in seconds per output
            token; carried alongside ``ttft_slo``. ``None`` = no target.
        coupled: Run all DP replicas on one shared virtual clock with
            dispatch interleaved into the event loop
            (:mod:`repro.cluster`): the router then sees each replica's
            *observed* state (actual queued tokens, measured preemptions,
            idle gaps) instead of the predicted load ledger. Off by
            default — the decoupled path stays bit-exact with the seed.
        autoscaler: Elastic-fleet scaling policy on the coupled path
            (:mod:`repro.cluster.autoscaler`): ``none`` (the default)
            keeps the configuration's fixed replica set, ``threshold``
            scales on observed queue depth / idle fraction, and
            ``predictive`` right-sizes with the serving objective's
            Erlang-C wait. Anything but ``none`` requires ``coupled``
            (membership events live on the shared clock).
        min_dp: Floor on the autoscaled replica count (default 1).
        max_dp: Ceiling on the autoscaled replica count (default: as many
            replicas as the cluster's GPUs can hold).
    """

    max_num_seqs: int = 512
    max_batched_tokens: int = 8192
    chunked_prefill: bool = False
    chunk_size: int = 1024
    block_size: int = 16
    kv_layout: KVLayout = KVLayout.HND
    router: str = "static"
    router_seed: int | None = None
    ttft_slo: float | None = None
    tpot_slo: float | None = None
    coupled: bool = False
    autoscaler: str = "none"
    min_dp: int | None = None
    max_dp: int | None = None
    # Fidelity tier of the coupled path: "event" co-simulates every engine
    # iteration; "fluid" replaces replicas with calibrated mean-field
    # queues (repro.cluster.fluid) for million-request scale; "auto"
    # picks fluid when requests x replica ceiling crosses
    # AUTO_FLUID_WORK_ITEMS. Decoupled runs ignore this knob.
    fidelity: str = "event"

    def __post_init__(self) -> None:
        if self.max_num_seqs < 1 or self.max_batched_tokens < 1 or self.chunk_size < 1:
            raise ConfigurationError("engine limits must be positive")
        if self.block_size < 1:
            raise ConfigurationError("block_size must be positive")
        if self.router not in ROUTER_POLICIES:
            raise ConfigurationError(
                f"unknown router policy {self.router!r}; one of {ROUTER_POLICIES}"
            )
        for name, slo in (("ttft_slo", self.ttft_slo), ("tpot_slo", self.tpot_slo)):
            if slo is not None and not 0.0 < slo < math.inf:
                raise ConfigurationError(
                    f"{name} must be positive and finite (got {slo!r})"
                )
        if self.autoscaler not in AUTOSCALER_POLICIES:
            raise ConfigurationError(
                f"unknown autoscaler policy {self.autoscaler!r}; one of "
                f"{AUTOSCALER_POLICIES}"
            )
        if self.autoscaler != "none" and not self.coupled:
            raise ConfigurationError(
                "autoscaling needs the event-coupled path: pass coupled=True "
                "(--coupled) with --autoscaler"
            )
        if self.fidelity not in ("event", "fluid", "auto"):
            raise ConfigurationError(
                f"unknown fidelity {self.fidelity!r}; one of ('event', 'fluid', 'auto')"
            )
        if self.fidelity != "event" and not self.coupled:
            raise ConfigurationError(
                "the fluid fast path models the coupled cluster: pass "
                "coupled=True (--coupled) with --fidelity fluid/auto"
            )
        for name, dp in (("min_dp", self.min_dp), ("max_dp", self.max_dp)):
            if dp is not None and dp < 1:
                raise ConfigurationError(f"{name} must be >= 1")
        if self.autoscaler == "none" and (
            self.min_dp is not None or self.max_dp is not None
        ):
            raise ConfigurationError(
                "min_dp/max_dp only apply with an autoscaler; without one "
                "the fleet is fixed at the configuration's dp (pass "
                "--autoscaler threshold|predictive)"
            )
        if (
            self.min_dp is not None
            and self.max_dp is not None
            and self.min_dp > self.max_dp
        ):
            raise ConfigurationError(
                f"min_dp ({self.min_dp}) must be <= max_dp ({self.max_dp})"
            )


@dataclass(frozen=True)
class RunHooks:
    """Process-local observers of one engine run, passed to ``run()``.

    A hook observes a run without changing its result: with a slot left
    ``None`` (the default, :data:`NO_HOOKS`) every loop takes its exact
    unobserved instruction path — the bit-exactness contract the goldens
    pin — and with it attached the result is the same bit for bit. Hooks
    live outside the frozen :class:`EngineOptions`, so they are never part
    of a cell's identity.

    Attributes:
        telemetry: Telemetry hub (:class:`repro.obs.Telemetry`) recording
            fixed-interval time-series and lifecycle events on the
            virtual clock.
        tracing: Tracer (:class:`repro.obs.Tracer`) recording per-request
            life-cycle marks (dispatch, storm withdraw/re-dispatch,
            preempt/resume, KV handoff) and one phase track per replica.
        sanitize: Runtime invariant sanitizer
            (:class:`repro.check.Sanitizer`) asserting clock monotonicity,
            event causality, token/KV conservation, request-id uniqueness
            and fleet lifecycle legality, on the decoupled and coupled
            paths alike (the disaggregated engine checks each pool).
    """

    telemetry: object | None = None
    tracing: object | None = None
    sanitize: object | None = None

    def __post_init__(self) -> None:
        if self.telemetry is not None and not hasattr(self.telemetry, "probe"):
            raise ConfigurationError(
                "telemetry must be a repro.obs.Telemetry hub (or None)"
            )
        if self.tracing is not None and not hasattr(self.tracing, "finalize"):
            raise ConfigurationError(
                "tracing must be a repro.obs.Tracer (or None)"
            )
        if self.sanitize is not None and not hasattr(self.sanitize, "note_transition"):
            raise ConfigurationError(
                "sanitize must be a repro.check.Sanitizer (or None)"
            )

    def fold(self, result: EngineResult, options: EngineOptions) -> EngineResult:
        """Derive the windowed latency/SLO series on the run's hub and
        finalize its request traces (the single exit every engine's
        ``run()`` path funnels through)."""
        tel = self.telemetry
        if tel is not None:
            tel.fold_result(result, ttft_slo=options.ttft_slo, tpot_slo=options.tpot_slo)
        tr = self.tracing
        if tr is not None:
            traces = tr.finalize(
                result, ttft_slo=options.ttft_slo, tpot_slo=options.tpot_slo
            )
            if tel is not None:
                tel.counter("trace.requests_traced").inc(len(traces))
                if tr.dropped_requests:
                    tel.counter("trace.requests_dropped").inc(tr.dropped_requests)
        return result


#: The hook-free bundle: every slot off.
NO_HOOKS = RunHooks()


class ReplicaState:
    """Everything one replica's event loop owns: its requests, queues, KV
    cache and :class:`RunMetrics`, plus the extras engines attach in
    :meth:`BaseEngine._replica_setup`: ``costs``, the cost model of the
    replica's current sharding, and any engine-specific bookkeeping.

    Requests are arrival-gated: a request sits in :attr:`pending` until the
    virtual clock reaches its ``arrival_time``, at which point
    :meth:`admit_arrivals` moves it into :attr:`waiting` where schedulers
    can see it. Offline workloads (every arrival at 0) drain ``pending``
    entirely during construction, so schedulers observe exactly the seed's
    all-at-t=0 queue.
    """

    def __init__(
        self,
        requests: list[Request],
        kv: KVCacheManager,
        replica_id: int = 0,
    ) -> None:
        self.requests = requests
        self.metrics = RunMetrics()
        # The DP replica this state belongs to; phase spans are recorded
        # on its track.
        self.replica_id = replica_id
        seqs = [Sequence(r) for r in requests]
        # Stable sort: simultaneous arrivals keep their submission order.
        seqs.sort(key=lambda s: s.arrival_time)
        self.pending: deque[Sequence] = deque(seqs)
        self.waiting: deque[Sequence] = deque()
        self.running: list[Sequence] = []
        self.finished: list[Sequence] = []
        self.kv = kv
        # Incremental observed-load aggregates. ``decode_backlog`` is the
        # exact integer sum of remaining_decode over live sequences,
        # maintained at every site that adds/removes owned sequences or
        # advances decode. ``prefill_epoch`` is a dirty counter bumped by
        # every mutation that can change the queued-prefill aggregates
        # (queue membership, prefill progress, running membership) — pure
        # decode iterations deliberately do NOT bump it, which is what
        # makes per-arrival dispatch decisions O(log S) instead of O(S).
        self.decode_backlog = sum(max(0, r.output_len - 1) for r in requests)
        self.prefill_epoch = 0
        # Calendar decode slots (engines/slots.py); None = the object
        # lists are authoritative.
        self.slots = None
        # No stretch runs a later iteration that starts at or past this
        # instant. The driving ReplicaSim sets it on every resume (lowered
        # to the telemetry probe's next sample); Seesaw's decode phase
        # lowers it to ``now`` for a pass that must run one iteration.
        self.horizon = math.inf
        self.admit_arrivals(0.0)

    def stretch_stop(self) -> float:
        """The instant no stretched iteration may start at or past: the
        horizon or the next pending arrival, whichever comes first
        (subclasses with more events between iterations add theirs)."""
        if self.pending:
            return min(self.horizon, self.pending[0].arrival_time)
        return self.horizon

    def admit_arrivals(self, now: float) -> int:
        """Move every pending request that has arrived by ``now`` into the
        waiting queue; returns how many were admitted."""
        admitted = 0
        while self.pending and self.pending[0].arrival_time <= now + 1e-12:
            self.waiting.append(self.pending.popleft())
            admitted += 1
        return admitted

    def add_request(self, request: Request) -> Sequence:
        """Inject a request dispatched to this replica mid-simulation.

        The sequence enters the pending queue in arrival order (dispatches
        arrive in arrival order, so this is an append except for storm
        re-dispatches of earlier arrivals); the replica's scheduler admits
        it the next time its clock reaches the arrival time.
        """
        seq = Sequence(request)
        self.requests.append(request)
        self.decode_backlog += max(0, request.output_len - 1)
        self.prefill_epoch += 1
        idx = len(self.pending)
        while idx > 0 and self.pending[idx - 1].arrival_time > request.arrival_time + 1e-12:
            idx -= 1
        self.pending.insert(idx, seq)
        return seq

    def steal_pending(self) -> list[Request]:
        """Remove and return every still-pending (never admitted) request.

        Only requests the replica's scheduler has not yet observed are
        stealable — the coupled storm re-dispatcher moves these to a calm
        replica without perturbing any in-flight state."""
        stolen = [seq.request for seq in self.pending]
        if stolen:
            self.pending.clear()
            self.decode_backlog -= sum(max(0, r.output_len - 1) for r in stolen)
            self.prefill_epoch += 1
            ids = {r.request_id for r in stolen}
            self.requests = [r for r in self.requests if r.request_id not in ids]
        return stolen

    @property
    def next_arrival_time(self) -> float:
        """Arrival time of the earliest not-yet-arrived request."""
        if not self.pending:
            raise SimulationError("no pending arrivals")
        return self.pending[0].arrival_time

    @property
    def has_immediate_work(self) -> bool:
        """Whether the scheduler could act right now without waiting for
        another arrival (subclasses add their extra service stages)."""
        return bool(self.waiting or self.running)

    @property
    def unfinished(self) -> bool:
        """Whether any request is pending or :attr:`has_immediate_work` —
        the condition this state's event loop runs under."""
        return bool(self.pending) or self.has_immediate_work

    def live_sequences(self) -> Iterable[Sequence]:
        """Every sequence currently owned and not finished — the replica
        state an observed-load router can measure."""
        yield from self.pending
        yield from self.waiting
        yield from self.running

    @property
    def decode_context_tokens(self) -> int:
        """Total cached tokens attended over by one decode iteration."""
        return sum(s.context_len for s in self.running)

    def start_running(self, seq: Sequence) -> None:
        """Append ``seq`` to the running batch.

        The single choke point through which sequences enter ``running``:
        it appends ``seq`` to the live decode slots too (only preemption
        and the KV-headroom fallback drop them) and marks the
        prefill aggregates dirty, so engine loops stay oblivious to both
        caches.
        """
        self.prefill_epoch += 1
        self.running.append(seq)
        if self.slots is not None:
            self.slots.append(seq, self.kv)

    def drop_slots(self) -> None:
        """Invalidate the decode slots (syncing any drifted per-sequence
        counters back into the Sequence objects first)."""
        if self.slots is not None:
            self.slots.sync()
            self.slots = None

    def finish_ready(self, now: float) -> int:
        """Retire sequences that have produced all their tokens."""
        if self.slots is not None:
            return self.slots.finish_ready(self, now)
        done = [s for s in self.running if s.remaining_decode == 0]
        if not done:
            return 0
        self.prefill_epoch += 1
        for s in done:
            s.mark_finished(now)
            self.kv.free(s.seq_id)
            self.running.remove(s)
            self.finished.append(s)
        return len(done)


class BaseEngine(abc.ABC):
    """Common engine skeleton: DP fan-out plus shared step helpers.

    Each engine expresses its per-replica scheduler as an *event loop
    generator* (:meth:`_replica_loop`) that yields the virtual clock at
    every iteration boundary, wrapped by :meth:`start_replica` in a
    :class:`repro.cluster.ReplicaSim`. The decoupled path runs each
    replica's sim to completion on its own; the coupled path
    (:class:`repro.cluster.ClusterSimulator`) steps all of them on one
    shared clock.
    """

    name: str = "base"
    # The hooks of the run in progress (run-scoped: ``run()`` attaches
    # them and detaches them when it returns).
    hooks: RunHooks = NO_HOOKS

    def __init__(
        self,
        model: ModelConfig,
        cluster: ClusterSpec,
        config: ParallelConfig,
        options: EngineOptions | None = None,
    ) -> None:
        if config.num_gpus > cluster.num_gpus:
            raise ConfigurationError(
                f"{config.label()} needs {config.num_gpus} GPUs, cluster has "
                f"{cluster.num_gpus}"
            )
        self.model = model
        self.cluster = cluster
        self.config = config
        self.options = options or EngineOptions()

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #

    def run(
        self,
        workload: WorkloadSpec | TypingSequence[Request],
        hooks: RunHooks | None = None,
    ) -> EngineResult:
        """Execute the workload to completion; returns the run summary.

        Requests are dispatched across the DP replicas by the routing
        subsystem (``options.router``). Decoupled (the default), the
        router dispatches every arrival up front against its predicted
        load ledger and each replica then simulates its partition
        independently; with ``options.coupled`` all replicas co-simulate
        on one shared clock and each arrival is dispatched against the
        replicas' *observed* state at that instant.

        A plain sequence of requests is wrapped with
        :meth:`WorkloadSpec.from_requests` first, so it is validated the
        same way (request ids must be unique). The fluid tier reads the
        workload's columns; the event tier walks its ``requests`` view.

        ``hooks`` attaches observers (telemetry, tracing, sanitizer) for
        this run only; the result is the same with or without them.
        """
        hooks = NO_HOOKS if hooks is None else hooks
        return hooks.fold(self.simulate(workload, hooks), self.options)

    def simulate(
        self,
        workload: WorkloadSpec | TypingSequence[Request],
        hooks: RunHooks,
    ) -> EngineResult:
        """:meth:`run` without the final fold: ``hooks`` observe the run,
        but its latency series and traces are left for the caller to fold
        (a composite engine folds its joint result once)."""
        if hooks.sanitize is not None:
            # Reset per-run state before the fleet fires its prewarm
            # lifecycle transitions, so one sanitizer can watch many runs.
            hooks.sanitize.begin_run()
        self.hooks = hooks
        try:
            return self._run_workload(workload)
        finally:
            self.hooks = NO_HOOKS

    def _run_workload(
        self, workload: WorkloadSpec | TypingSequence[Request]
    ) -> EngineResult:
        if not isinstance(workload, WorkloadSpec):
            requests = list(workload)
            if not requests:
                raise ConfigurationError("cannot run an empty workload")
            workload = WorkloadSpec.from_requests("requests", requests)
        if self.options.coupled:
            fidelity = self.options.fidelity
            if fidelity == "auto":
                from repro.cluster.fluid import AUTO_FLUID_WORK_ITEMS

                cap = self.options.max_dp or self.config.dp
                fidelity = (
                    "fluid"
                    if workload.num_requests * cap >= AUTO_FLUID_WORK_ITEMS
                    else "event"
                )
            if fidelity == "fluid":
                from repro.cluster.fluid import FluidSimulator

                return FluidSimulator(self, workload).run()
            from repro.cluster.simulator import ClusterSimulator

            return ClusterSimulator(self, workload.requests).run()
        plan = self.make_router(workload).route(list(workload.requests))
        tr, san = self.hooks.tracing, self.hooks.sanitize
        if tr is not None or san is not None:
            # Decoupled routing dispatches every arrival up front, at its
            # arrival instant, to the partition the plan chose.
            for i, part in enumerate(plan.partitions):
                for req in part:
                    if tr is not None:
                        tr.note_dispatch(req.arrival_time, req.request_id, i)
                    if san is not None:
                        san.note_dispatch(req, i, req.arrival_time)
        results = []
        for i, part in enumerate(plan.partitions):
            if not part:
                continue
            sim = self.start_replica(i, part)
            sim.finish()
            if san is not None:
                san.check_drained(i, sim.state, sim.clock)
            results.append(self._replica_result(sim.state, sim.clock))
        return merge_dp_results(
            results, engine=self.name, label=self.label(), router=plan.stats
        )

    def label(self) -> str:
        """Configuration label shown in reports."""
        return self.config.label()

    def start_replica(
        self,
        replica_id: int,
        requests: TypingSequence[Request] = (),
        start_time: float = 0.0,
    ):
        """Start one replica as an incrementally steppable simulation.

        Returns a :class:`repro.cluster.ReplicaSim` exposing
        ``next_event_time()`` / ``advance(until)`` / ``inject(request)``
        — the interface the event-coupled cluster simulator drives.
        ``start_time`` is the replica's birth instant on the shared clock
        (an elastic scale-up starts accounting when it becomes active)."""
        from repro.cluster.replica import ReplicaSim

        return ReplicaSim(self, replica_id, list(requests), start_time=start_time)

    def _replica_setup(self, requests: list[Request], replica_id: int) -> ReplicaState:
        """Build the state one replica's event loop runs over: the
        replica's KV cache and one cost model for its configuration."""
        state = ReplicaState(requests, self.make_kv(), replica_id)
        state.costs = self.make_costs()
        return state

    @abc.abstractmethod
    def _replica_loop(self, state: ReplicaState, start: float):
        """One replica's scheduler as a generator over iteration boundaries.

        Yields the virtual clock after every scheduling event (iteration,
        phase step, or idle jump); the clock never decreases across
        yields. The generator exits when the replica has no unfinished
        work; if requests are injected afterwards, the caller restarts it
        from the current clock (all state lives in ``state``).
        """

    def _replica_result(self, state: ReplicaState, total_time: float) -> EngineResult:
        """Summarize one finished replica simulation."""
        return self.result_from(state, total_time, state.finished)

    # ------------------------------------------------------------------ #
    # Shared construction helpers
    # ------------------------------------------------------------------ #

    @property
    def replica_config(self) -> ParallelConfig:
        """This engine's config with DP stripped (one replica's view).

        Cached: ``ParallelConfig`` is frozen and ``self.config`` never
        changes after construction, but hot loops (PP hysteresis, KV
        checks) query this per iteration and ``dataclasses.replace`` is
        expensive enough to show up in profiles.
        """
        cached = getattr(self, "_replica_config", None)
        if cached is None:
            cached = self._replica_config = replace(self.config, dp=1)
        return cached

    def make_router(
        self, requests: WorkloadSpec | TypingSequence[Request]
    ) -> Router:
        """Router for this run, fed with per-replica rate estimates."""
        return make_router(
            self.options.router,
            self.config.dp,
            context=self.router_context(requests),
            seed=self.options.router_seed,
        )

    def router_context(
        self, requests: WorkloadSpec | TypingSequence[Request]
    ) -> RouterContext:
        """Per-replica service-rate estimates for the router's load model.

        The prefill rate is one budget-sized micro-batch per stage period;
        the decode rate is the KV-capacity-bound batch advancing one token
        per iteration at the workload's mean context length (the Appendix A
        analytic rates, specialized to one replica).
        """
        costs = self.make_costs()
        budget = self.options.max_batched_tokens
        prefill_rate = budget / costs.prefill_stage_time([budget]).total
        avg_ctx = mean_context(requests)
        capacity = kv_capacity_tokens(self.model, self.cluster, self.replica_config)
        batch = max(
            1, min(int(capacity / avg_ctx), self.options.max_num_seqs)
        )
        decode_rate = batch / costs.decode_iteration_time(
            batch, int(batch * avg_ctx)
        ).total
        return RouterContext(
            prefill_tokens_per_s=prefill_rate,
            decode_tokens_per_s=decode_rate,
            kv_capacity_tokens=capacity,
            ttft_slo=self.options.ttft_slo,
            tpot_slo=self.options.tpot_slo,
        )

    def make_costs(self, config: ParallelConfig | None = None) -> StepCostModel:
        return StepCostModel(
            self.model,
            self.cluster,
            config or self.replica_config,
            kv_layout=self.options.kv_layout,
        )

    def make_kv(self, config: ParallelConfig | None = None, reserve_tokens: int = 0) -> KVCacheManager:
        cfg = config or self.replica_config
        capacity = kv_capacity_tokens(self.model, self.cluster, cfg) - reserve_tokens
        if capacity < self.options.block_size:
            raise CapacityError(
                f"{self.model.name} under {cfg.label()} leaves no KV space "
                f"after reserving {reserve_tokens} tokens"
            )
        return KVCacheManager(capacity_tokens=capacity, block_size=self.options.block_size)

    def result_from(
        self,
        state: ReplicaState,
        total_time: float,
        finished: TypingSequence[Sequence],
    ) -> EngineResult:
        """The result of ``state``'s replica after ``total_time``, with
        latency records for ``finished``."""
        requests, metrics = state.requests, state.metrics
        latency = LatencyStats.from_sequences(finished) if finished else None
        return EngineResult(
            engine=self.name,
            label=self.label(),
            num_requests=len(requests),
            total_time=total_time,
            input_tokens=sum(r.prompt_len for r in requests),
            output_tokens=sum(r.output_len for r in requests),
            phase_time=dict(metrics.phase_timer.phases),
            breakdown=metrics.breakdown,
            iterations=metrics.iterations,
            transitions=metrics.transitions,
            swapped_in_tokens=metrics.swapped_in_tokens,
            swapped_out_tokens=metrics.swapped_out_tokens,
            latency=latency,
        )

    # ------------------------------------------------------------------ #
    # Shared step mechanics
    # ------------------------------------------------------------------ #

    def phase(
        self,
        state: ReplicaState,
        kind: str,
        now: float,
        elapsed: float,
        breakdown: Breakdown | None = None,
        num_seqs: int = 0,
        tokens: int = 0,
        resident: int = 0,
    ) -> float:
        """Record that ``state``'s replica spent ``[now, now + elapsed)``
        in phase ``kind``; returns ``now + elapsed``.

        The recorder of timed phases: the span goes to the replica's
        :class:`RunMetrics` (a ``stall`` is booked as ``swap_stall``
        phase time, ``breakdown`` into the run breakdown) and to the
        tracer's phase track (see :class:`repro.obs.PhaseSpan` for the
        counts). Only stretches bypass it, to book the same additions for
        a run of iterations in bulk (:meth:`_stretch`); a breakdown that
        is a stage scaled by PP can go straight to
        :meth:`RunMetrics.add_scaled` instead.
        """
        tr = self.hooks.tracing
        if tr is not None:
            tr.note_phase(
                state.replica_id, kind, now, elapsed, num_seqs, tokens, resident
            )
        state.metrics.add_phase(
            "swap_stall" if kind == "stall" else kind, elapsed, breakdown
        )
        return now + elapsed

    def idle_advance(self, state: ReplicaState, now: float) -> float:
        """Jump the virtual clock to the next arrival.

        Called when nothing is admissible and nothing is running — the
        event-driven equivalent of an engine sleeping on its request queue.
        The gap is accounted as ``idle`` phase time (it is part of wall
        clock but not of any compute phase).
        """
        target = state.next_arrival_time
        if target <= now:
            raise SimulationError("idle_advance with an admissible arrival")
        self.phase(state, "idle", now, target - now, resident=len(state.running))
        return target

    def prefill_wave(
        self,
        state: ReplicaState,
        now: float,
        batch: TypingSequence[Sequence],
        resident: int,
    ) -> float:
        """Prefill ``batch`` whole in one pipelined wave; returns the clock
        at the wave's end.

        The batch is packed in order into greedy micro-batches
        (:meth:`micro_batches`) that stream through the pipeline stages.
        The wave counts as one iteration and one ``prefill`` phase span
        (``resident`` is the span's resident-sequence count); every
        sequence of the batch then runs with its first token, and
        single-token outputs retire at once.
        """
        costs = state.costs
        # remaining_prefill of each sequence, read once; nothing below
        # moves it before the loop that prefills it.
        lens = [max(0, seq.prefill_target - seq.prefilled_tokens) for seq in batch]
        stages = [costs.prefill_stage_time(mb) for mb in self.micro_batches(lens)]
        tokens = sum(lens)
        pp = costs.config.pp
        wall = (
            pipeline_time_heterogeneous([b.total for b in stages], pp)
            + ITERATION_OVERHEAD
        )
        # ``sum(b.scale(pp) for b in stages)`` component by component, in
        # the same order, without the intermediate Breakdowns.
        ld = lc = ad = ac = cm = oh = 0.0
        for b in stages:
            ld += b.linear_dm * pp
            lc += b.linear_comp * pp
            ad += b.attn_dm * pp
            ac += b.attn_comp * pp
            cm += b.comm * pp
            oh += b.overhead * pp
        device = Breakdown(ld, lc, ad, ac, cm, oh)
        start, now = now, self.phase(
            state, "prefill", now, wall, device, len(batch), tokens, resident
        )
        state.metrics.iterations += 1
        for seq, n in zip(batch, lens, strict=True):
            seq.mark_scheduled(start)
            seq.advance_prefill(n)
            seq.state = SequenceState.RUNNING
            seq.prefill_end_time = now
            seq.mark_first_token(now)
            state.start_running(seq)
        tr = self.hooks.tracing
        if tr is not None:
            for seq in batch:
                tr.note_resume(now, seq.seq_id)
        state.finish_ready(now)
        return now

    def micro_batches(self, lens: Iterable[int]) -> Iterator[list[int]]:
        """Pack prompt lengths, in order, into greedy micro-batches under
        the token budget; a prompt longer than the budget gets one of its
        own, as real engines run it in one pass."""
        budget = self.options.max_batched_tokens
        group: list[int] = []
        used = 0
        for n in lens:
            if group and used + n > budget:
                yield group
                group, used = [], 0
            group.append(n)
            used += n
        if group:
            yield group

    def admit_reserved(self, state: ReplicaState, limit: int) -> list[Sequence]:
        """Admit up to ``limit`` waiting sequences, in order, while each
        one's *final* context fits — reserved whole, so they all decode
        to completion without preemption."""
        admitted: list[Sequence] = []
        while state.waiting and len(admitted) < limit:
            need = state.waiting[0].final_context_len
            if not state.kv.can_allocate(need):
                break
            seq = state.waiting.popleft()
            state.kv.allocate(seq.seq_id, need)
            admitted.append(seq)
        return admitted

    def _batch_loop(self, state: ReplicaState, start: float) -> Iterator[float]:
        """Batch-at-a-time scheduling (Fig. 2(b), FasterTransformer's):
        admit a batch with reserved final contexts, prefill it in one wave,
        decode it to completion, only then admit the next; arrivals wait
        in the queue meanwhile. A replica event loop generator; the
        ``_before_prefill`` / ``_after_prefill`` / ``_after_decode`` hooks
        mark the stage switches (transition counts, re-shards)."""
        now = start
        while state.unfinished:
            state.admit_arrivals(now)
            if not state.waiting and not state.running:
                now = self.idle_advance(state, now)
                yield now
                continue
            now = self._before_prefill(state, now)
            batch = self.admit_reserved(state, self.options.max_num_seqs)
            if not batch:
                head = state.waiting[0]
                raise CapacityError(
                    f"request needs {head.final_context_len} tokens of KV, "
                    f"capacity is {state.kv.capacity_tokens}"
                )
            now = self.prefill_wave(
                state, now, batch, len(state.running) + len(batch)
            )
            now = self._after_prefill(state, now)
            while state.running:
                yield now
                state.admit_arrivals(now)
                now = self.decode_step(state, now)
            now = self._after_decode(state, now)
            yield now

    def _before_prefill(self, state: ReplicaState, now: float) -> float:
        """Batch-loop hook before a batch is admitted; returns the clock."""
        return now

    def _after_prefill(self, state: ReplicaState, now: float) -> float:
        """Batch-loop hook after a batch's prefill wave; returns the clock."""
        return now

    def _after_decode(self, state: ReplicaState, now: float) -> float:
        """Batch-loop hook after a batch decoded to completion; returns
        the clock."""
        return now

    def decode_step(self, state: ReplicaState, now: float) -> float:
        """A decode stretch over the running batch; returns the new time.

        Costs the batch once (:meth:`StepCostModel.decode_iteration_time`
        over :meth:`decode_context`, which builds the decode slots) and
        hands it to :meth:`_stretch`, which runs the first iteration and
        any later ones while the batch stays fixed. A caller that wants
        exactly one iteration sets ``state.horizon = now`` first.

        A caller may stretch only if nothing it does between two decode
        iterations can change the batch unless one of the stretch's stop
        conditions fires first. The shared callers qualify: between two
        iterations they admit arrivals (a stop condition) and at most
        attempt an admission, and inside a stretch the running set is
        fixed and free KV only shrinks, so an admission that failed
        before the stretch's first iteration keeps failing until it ends.
        Seesaw's decode phase stretches on the passes whose prefetcher is
        blocked and whose transition test is false; its state also stops
        the stretch before the next in-flight prefetch lands (see
        ``SeesawEngine._decode_phase``).
        """
        if not state.running:
            raise SimulationError("decode_step with no running sequences")
        bd = state.costs.decode_iteration_time(
            len(state.running), self.decode_context(state)
        )
        return self._stretch(state, now, bd, "decode")

    def _stretch(
        self,
        state: ReplicaState,
        now: float,
        costs: Breakdown,
        kind: str,
        head: Sequence | None = None,
        take: int = 0,
    ) -> float:
        """Run iterations over a fixed batch; returns the clock at the
        last one's end.

        A stretch is a run of iterations over a fixed batch: every running
        sequence decodes one token, and with a ``head`` the queue head also
        prefills a mid-prompt chunk of ``take`` tokens. ``costs`` is one
        such iteration's breakdown and ``kind`` its phase. Each iteration
        is the one the caller's loop would run next: only its two
        attention terms move with the contexts, and they come from
        :meth:`StepCostModel.decode_attention`; the clock, the phase time,
        the six breakdown sums, ``prefilled_tokens``, ``prefill_epoch``,
        ``decode_backlog`` and the tracer's rows take the additions
        :meth:`phase` would make, in the same order.

        A decode stretch (no ``head``) always runs its first iteration,
        the one :meth:`decode_step` was called for; a chunk stretch
        follows the mixed iteration its caller booked. No later iteration
        starts at or past :meth:`ReplicaState.stretch_stop` (``<= now +
        1e-12`` admits an arrival), and none whose chunk would complete
        the head's prompt or cannot grow its KV. The stretch also ends
        after an iteration that retires a sequence or whose block
        crossings the free KV pool cannot cover; that iteration then
        takes the scalar grow/preempt fallback, as every decode iteration
        does without slots (the scalar oracle). An empty batch (a
        prefill-only chunk run) has nothing to advance.
        """
        stop = state.stretch_stop()
        if head is not None and not now + 1e-12 < stop:
            return now
        slots, kv, metrics = state.slots, state.kv, state.metrics
        n = len(state.running)
        due = slots.due if slots is not None else ()
        attention = state.costs.decode_attention(take)
        linear_dm, linear_comp = costs.linear_dm, costs.linear_comp
        comm, overhead = costs.comm, costs.overhead
        linear = max(linear_dm, linear_comp)
        phases = metrics.phase_timer.phases
        spent = phases.get(kind, 0.0)
        # The run breakdown's sums, added in place (RunMetrics.add_phase
        # order), held in locals for the stretch.
        sums = metrics._sums
        s0, s1, s2, s3, s4, s5 = sums
        tr = self.hooks.tracing
        rows = [] if tr is not None else None
        tokens = take + n
        ctx = state.decode_context_tokens if slots is None else slots.ctx_sum
        prefilled = 0
        steps = 0
        scalar = False
        while True:
            if head is not None:
                # The chunk loop's next pass: the head's next chunk, unless
                # it completes the prompt or its KV cannot grow.
                prefilled = head.prefilled_tokens
                if take >= head.prefill_target - prefilled:
                    break
                try:
                    kv.grow(head.seq_id, prefilled + take)
                except CapacityError:
                    break
                head.prefilled_tokens = prefilled + take
                state.prefill_epoch += 1
            attn_dm, attn_comp = attention(ctx, prefilled)
            elapsed = (
                linear + max(attn_dm, attn_comp) + comm + overhead
                + ITERATION_OVERHEAD
            )
            if rows is not None:
                rows.append((kind, now, elapsed, n, tokens, n))
            spent += elapsed
            s0 += linear_dm
            s1 += linear_comp
            s2 += attn_dm
            s3 += attn_comp
            s4 += comm
            s5 += overhead
            now += elapsed
            steps += 1
            if n:
                if slots is None or not slots.try_advance(kv):
                    scalar = True
                    break
                ctx = slots.ctx_sum
                if slots.adv in due:
                    break
            if not now + 1e-12 < stop:
                break
        phases[kind] = spent
        sums[:] = (s0, s1, s2, s3, s4, s5)
        metrics.iterations += steps
        if tr is not None:
            tr.note_phases(state.replica_id, rows)
        if scalar:
            state.decode_backlog -= n * (steps - 1)
            state.drop_slots()
            self._advance_objects(state, now)
        else:
            state.decode_backlog -= n * steps
        if steps:
            state.finish_ready(now)
        return now

    def decode_context(self, state: ReplicaState) -> int:
        """Cached tokens one decode advance of ``state.running`` attends
        over — the cost-model input of every decode iteration.

        Builds the decode slots first (unless ``slots.SCALAR_ORACLE``
        holds) and then reads their exact running sum instead of walking
        the batch.
        """
        slots = state.slots
        if slots is None:
            if decode_slots.SCALAR_ORACLE:
                return state.decode_context_tokens
            slots = state.slots = decode_slots.DecodeSlots(state)
        return slots.ctx_sum

    def advance_running(self, state: ReplicaState, now: float) -> None:
        """Advance every running sequence one token (the decode half of an
        iteration, plain or mixed with a prefill chunk).

        Handles KV growth with preemption: when the cache cannot grow, the
        youngest running sequence is evicted via :meth:`preempt` (subclass
        hook — recompute for static engines, swap-out for Seesaw). Live
        decode slots take the whole step in O(1) plus one bulk KV grow,
        unless this iteration's block crossings outrun the free pool.
        Retirement is left to the caller's ``finish_ready``. This is the
        mixed iteration's decode half; a stretch advances its iterations
        on the slots itself and falls back the same way.
        """
        slots = state.slots
        if slots is not None:
            if slots.try_advance(state.kv):
                state.decode_backlog -= len(state.running)
                return
            # Aggregate KV headroom cannot cover this iteration's block
            # crossings: fall back to the scalar grow/preempt path so the
            # eviction order stays bit-exact with the object path.
            state.drop_slots()
        self._advance_objects(state, now)

    def _advance_objects(self, state: ReplicaState, now: float) -> None:
        """:meth:`advance_running` on the object lists: the scalar path,
        which grows KV and preempts sequence by sequence."""
        for s in state.running:
            s.advance_decode()
        state.decode_backlog -= len(state.running)
        # Grow allocations oldest-first; evict youngest on pressure.
        for s in list(state.running):
            if s not in state.running:
                continue  # already preempted below
            while True:
                try:
                    state.kv.grow(s.seq_id, s.context_len)
                    break
                except CapacityError:
                    victim = self._pick_victim(state, exclude=s)
                    if victim is None:
                        raise
                    self.preempt(state, victim, now)

    def _pick_victim(
        self, state: ReplicaState, exclude: Sequence
    ) -> Sequence | None:
        """Youngest running sequence other than ``exclude`` (LIFO eviction,
        vLLM's policy: the most recently admitted loses)."""
        for s in reversed(state.running):
            if s is not exclude:
                return s
        return None

    def preempt(self, state: ReplicaState, victim: Sequence, now: float) -> None:
        """Default preemption: recompute. The victim's KV is dropped and it
        re-enters the waiting queue; its next prefill covers prompt plus
        already-generated tokens (vLLM's recompute path)."""
        state.drop_slots()
        state.prefill_epoch += 1
        state.kv.free(victim.seq_id)
        state.running.remove(victim)
        victim.preempt_recompute()
        victim.num_preemptions += 1
        state.metrics.preemptions += 1
        state.waiting.appendleft(victim)
        tr = self.hooks.tracing
        if tr is not None:
            tr.note_preempt(now, victim.seq_id, "recompute")
