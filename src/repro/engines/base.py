"""Engine base class and the single-replica execution helpers.

Every engine in this package simulates one DP replica at a time (replicas
process disjoint request partitions concurrently; wall time is the slowest
replica) and shares the mechanics implemented here: the whole-batch
prefill wave, reserved (preemption-free) admission, the batch-at-a-time
scheduling loop, the decode-iteration step with KV growth and preemption,
and sequence bookkeeping. Requests reach the replicas through
:mod:`repro.routing`.
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
from repro.engines.slots import DecodeSlots, VECTORIZE_MIN_SEQS
from repro.engines.slots import np as _np
from repro.routing import ROUTER_POLICIES, Router, RouterContext, make_router
from repro.runtime.kvcache import KVCacheManager
from repro.runtime.latency import LatencyStats
from repro.runtime.metrics import EngineResult, RunMetrics, merge_dp_results
from repro.runtime.request import Request, Sequence, SequenceState
from repro.workloads.spec import WorkloadSpec, request_lengths


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
    # Vectorized decode bookkeeping (numpy slot arrays), for plain decode
    # iterations and the decode half of chunked-prefill mixed ones. The
    # scalar path is kept as the bit-exactness oracle.
    vectorize: bool = True

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
    :meth:`BaseEngine._replica_setup` (cost models, phase bookkeeping).

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
        # Loop iterations so far, for the engines' livelock guards.
        self.guard = 0
        self.total_request_tokens = sum(r.prompt_len + r.output_len for r in requests)
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
        # Vectorized decode slot arrays (engines/slots.py); None = the
        # object lists are authoritative.
        self.slots = None
        self.admit_arrivals(0.0)

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
        self.total_request_tokens += request.prompt_len + request.output_len
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
            self.total_request_tokens -= sum(
                r.prompt_len + r.output_len for r in stolen
            )
        return stolen

    @property
    def next_arrival_time(self) -> float:
        """Arrival time of the earliest not-yet-arrived request."""
        if not self.pending:
            raise SimulationError("no pending arrivals")
        return self.pending[0].arrival_time

    @property
    def has_work(self) -> bool:
        """Whether any request is pending, admissible, or running."""
        return bool(self.pending or self.waiting or self.running)

    @property
    def has_immediate_work(self) -> bool:
        """Whether the scheduler could act right now without waiting for
        another arrival (subclasses add their extra service stages)."""
        return bool(self.waiting or self.running)

    @property
    def unfinished(self) -> bool:
        """Whether any request has not yet fully finished — the condition
        this state's event loop runs under (subclasses with extra service
        stages extend it alongside :attr:`has_immediate_work`)."""
        return self.has_work

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
        it appends ``seq`` to the live vectorized slot arrays too (only
        preemption and the KV-headroom fallback drop them) and marks the
        prefill aggregates dirty, so engine loops stay oblivious to both
        caches.
        """
        self.prefill_epoch += 1
        self.running.append(seq)
        if self.slots is not None:
            self.slots.append(seq, self.kv)

    def drop_slots(self) -> None:
        """Invalidate the vectorized decode arrays (syncing any drifted
        per-sequence counters back into the Sequence objects first)."""
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
        return self.result_from(
            state.requests, state.metrics, total_time, finished=state.finished
        )

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
        prompts, outputs = request_lengths(requests)
        avg_ctx = sum(
            p + o / 2.0 for p, o in zip(prompts, outputs, strict=True)
        ) / len(prompts)
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
        requests: list[Request],
        metrics: RunMetrics,
        total_time: float,
        finished: TypingSequence[Sequence] | None = None,
    ) -> EngineResult:
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

    def idle_advance(self, state: ReplicaState, metrics: RunMetrics, now: float) -> float:
        """Jump the virtual clock to the next arrival.

        Called when nothing is admissible and nothing is running — the
        event-driven equivalent of an engine sleeping on its request queue.
        The gap is accounted as ``idle`` phase time (it is part of wall
        clock but not of any compute phase).
        """
        target = state.next_arrival_time
        if target <= now:
            raise SimulationError("idle_advance with an admissible arrival")
        tr = self.hooks.tracing
        if tr is not None:
            tr.note_phase(
                state.replica_id, "idle", now, target - now, 0, 0, len(state.running)
            )
        metrics.add_phase("idle", target - now)
        return target

    def prefill_wave(
        self,
        state: ReplicaState,
        costs: StepCostModel,
        metrics: RunMetrics,
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
        lens = [seq.remaining_prefill for seq in batch]
        stages = [costs.prefill_stage_time(mb) for mb in self.micro_batches(lens)]
        tokens = sum(lens)
        pp = costs.config.pp
        wall = (
            pipeline_time_heterogeneous([b.total for b in stages], pp)
            + ITERATION_OVERHEAD
        )
        device = Breakdown()
        for b in stages:
            device = device + b.scale(pp)
        tr = self.hooks.tracing
        if tr is not None:
            tr.note_phase(
                state.replica_id, "prefill", now, wall, len(batch), tokens, resident
            )
        start, now = now, now + wall
        metrics.add_phase("prefill", wall, device)
        metrics.iterations += 1
        for seq in batch:
            seq.mark_scheduled(start)
            seq.advance_prefill(seq.remaining_prefill)
            seq.state = SequenceState.RUNNING
            seq.prefill_end_time = now
            seq.mark_first_token(now)
            state.start_running(seq)
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

    def _batch_loop(
        self,
        state: ReplicaState,
        start: float,
        prefill_costs: StepCostModel,
        decode_costs: StepCostModel,
    ) -> Iterator[float]:
        """Batch-at-a-time scheduling (Fig. 2(b), FasterTransformer's):
        admit a batch with reserved final contexts, prefill it in one wave,
        decode it to completion, only then admit the next; arrivals wait
        in the queue meanwhile. A replica event loop generator; the
        ``_before_prefill`` / ``_after_prefill`` / ``_after_decode`` hooks
        mark the stage switches (transition counts, re-shards)."""
        metrics = state.metrics
        now = start
        while state.has_work:
            state.admit_arrivals(now)
            if not state.waiting and not state.running:
                now = self.idle_advance(state, metrics, now)
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
                state, prefill_costs, metrics, now, batch,
                len(state.running) + len(batch),
            )
            now = self._after_prefill(state, now)
            while state.running:
                yield now
                state.admit_arrivals(now)
                now = self.decode_step(state, decode_costs, metrics, now)
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

    def decode_step(
        self,
        state: ReplicaState,
        costs: StepCostModel,
        metrics: RunMetrics,
        now: float,
        phase: str = "decode",
    ) -> float:
        """One decode iteration over the running batch; returns the new
        time (cost via :meth:`decode_context`, step via
        :meth:`advance_running`)."""
        if not state.running:
            raise ConfigurationError("decode_step with no running sequences")
        num_seqs = len(state.running)
        bd = costs.decode_iteration_time(num_seqs, self.decode_context(state))
        elapsed = bd.total + ITERATION_OVERHEAD
        tr = self.hooks.tracing
        if tr is not None:
            tr.note_phase(
                state.replica_id, "decode", now, elapsed, num_seqs, num_seqs, num_seqs
            )
        now += elapsed
        metrics.add_phase(phase, elapsed, bd)
        metrics.iterations += 1
        self.advance_running(state, now, metrics)
        state.finish_ready(now)
        return now

    def decode_context(self, state: ReplicaState) -> int:
        """Cached tokens one decode advance of ``state.running`` attends
        over — the cost-model input of every decode half-iteration.

        Builds the vectorized slot arrays first when the batch qualifies
        (``EngineOptions.vectorize``, numpy present, at least
        ``VECTORIZE_MIN_SEQS`` running) and then reads their exact
        running sum instead of walking the batch.
        """
        slots = state.slots
        if (
            slots is None
            and _np is not None
            and len(state.running) >= VECTORIZE_MIN_SEQS
            and self.options.vectorize
        ):
            slots = state.slots = DecodeSlots(state)
        if slots is None:
            return state.decode_context_tokens
        return slots.ctx_sum

    def advance_running(
        self, state: ReplicaState, now: float, metrics: RunMetrics
    ) -> None:
        """Advance every running sequence one token (the decode half of an
        iteration, plain or mixed with a prefill chunk).

        Handles KV growth with preemption: when the cache cannot grow, the
        youngest running sequence is evicted via :meth:`preempt` (subclass
        hook — recompute for static engines, swap-out for Seesaw). Live
        slot arrays take the whole step as scalar arithmetic unless this
        iteration's block crossings outrun the free pool. Retirement is
        left to the caller's ``finish_ready``.
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
                    self.preempt(state, victim, now, metrics)

    def _pick_victim(
        self, state: ReplicaState, exclude: Sequence
    ) -> Sequence | None:
        """Youngest running sequence other than ``exclude`` (LIFO eviction,
        vLLM's policy: the most recently admitted loses)."""
        for s in reversed(state.running):
            if s is not exclude:
                return s
        return None

    def preempt(
        self, state: ReplicaState, victim: Sequence, now: float, metrics: RunMetrics
    ) -> None:
        """Default preemption: recompute. The victim's KV is dropped and it
        re-enters the waiting queue; its next prefill covers prompt plus
        already-generated tokens (vLLM's recompute path)."""
        state.drop_slots()
        state.prefill_epoch += 1
        state.kv.free(victim.seq_id)
        state.running.remove(victim)
        victim.preempt_recompute()
        victim.num_preemptions += 1
        metrics.preemptions += 1
        state.waiting.appendleft(victim)
        tr = self.hooks.tracing
        if tr is not None:
            tr.note_preempt(now, victim.seq_id, "recompute")
