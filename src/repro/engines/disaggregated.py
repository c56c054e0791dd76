"""DistServe/Mooncake-style spatial prefill-decode disaggregation.

The cluster is split into a prefill pool and a decode pool, each with its
own parallel configuration; prefilled KV flows from one to the other. The
two pools form a two-stage pipeline, so steady-state throughput is the
minimum of the stages — the Section 3.2 analysis this module exists to
reproduce: in resource-constrained deployments (70B on eight 40 GiB GPUs)
the only feasible split is 4+4, the stages mismatch by ~6x, and the decode
pool at 4 GPUs reaches only a fraction of 8-GPU decode throughput because
the duplicated weights crowd out KV space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterator

from repro.costmodel.pipeline import pipeline_time_heterogeneous
from repro.costmodel.step import ITERATION_OVERHEAD, StepCostModel
from repro.engines.base import (
    NO_HOOKS,
    BaseEngine,
    EngineOptions,
    ReplicaRun,
    ReplicaState,
    RunHooks,
)
from repro.errors import CapacityError, ConfigurationError
from repro.hardware.cluster import ClusterSpec
from repro.models.config import ModelConfig
from repro.parallel.config import ParallelConfig
from repro.parallel.memory import fits, kv_capacity_tokens
from repro.routing import RouterContext, RoutingPlan, make_router
from repro.runtime.latency import LatencyStats
from repro.runtime.metrics import EngineResult, RunMetrics
from repro.runtime.request import Request, SequenceState
from repro.workloads.arrivals import stamp_arrivals
from repro.workloads.spec import WorkloadSpec


@dataclass(frozen=True)
class DisaggregationPlan:
    """GPU split and per-pool configurations."""

    prefill_config: ParallelConfig
    decode_config: ParallelConfig

    @property
    def prefill_gpus(self) -> int:
        return self.prefill_config.num_gpus

    @property
    def decode_gpus(self) -> int:
        return self.decode_config.num_gpus

    @property
    def total_gpus(self) -> int:
        return self.prefill_gpus + self.decode_gpus

    def label(self) -> str:
        return f"{self.prefill_config.label()}|{self.decode_config.label()}"


@dataclass(frozen=True)
class DisaggregationAnalysis:
    """Per-stage throughputs behind a disaggregated run (Fig. 4 data)."""

    prefill_time: float
    decode_time: float
    prefill_throughput_rps: float
    decode_throughput_rps: float

    @property
    def mismatch_ratio(self) -> float:
        """How much faster the faster stage is (>= 1)."""
        hi = max(self.prefill_throughput_rps, self.decode_throughput_rps)
        lo = min(self.prefill_throughput_rps, self.decode_throughput_rps)
        return hi / lo


class _DecodeOnlyEngine(BaseEngine):
    """Decode pool: sequences arrive prefilled; continuous batching with
    full-length reservations (no prefill resource to recompute on)."""

    name = "decode-pool"

    def _replica_setup(self, requests: list[Request], replica_id: int) -> ReplicaRun:
        state = ReplicaState(requests, self.make_kv())
        run = ReplicaRun(replica_id, requests, state, RunMetrics())
        run.costs = self.make_costs()
        return run

    def _replica_loop(self, run: ReplicaRun, start: float) -> Iterator[float]:
        state, costs, metrics = run.state, run.costs, run.metrics
        now = start
        while state.has_work:
            state.admit_arrivals(now)
            limit = self.options.max_num_seqs - len(state.running)
            for seq in self.admit_reserved(state, limit):
                seq.mark_scheduled(now)
                seq.advance_prefill(seq.remaining_prefill)
                seq.state = SequenceState.RUNNING
                seq.mark_first_token(now)
                state.start_running(seq)
            if not state.running:
                if state.waiting:
                    head = state.waiting[0]
                    raise CapacityError(
                        f"request needs {head.final_context_len} KV tokens, "
                        f"capacity {state.kv.capacity_tokens}"
                    )
                now = self.idle_advance(state, metrics, now)
                yield now
                continue
            state.finish_ready(now)
            if state.running:
                now = self.decode_step(state, costs, metrics, now)
            yield now

    def _replica_result(self, run: ReplicaRun, total_time: float) -> EngineResult:
        return self.result_from(
            run.requests, run.metrics, max(total_time, 1e-9), finished=run.state.finished
        )


class DisaggregatedEngine:
    """Two-pool disaggregated engine with the standard engine ``run`` API."""

    name = "disagg"

    def __init__(
        self,
        model: ModelConfig,
        cluster: ClusterSpec,
        plan: DisaggregationPlan,
        options: EngineOptions | None = None,
    ) -> None:
        if plan.total_gpus > cluster.num_gpus:
            raise ConfigurationError(
                f"plan uses {plan.total_gpus} GPUs, cluster has {cluster.num_gpus}"
            )
        self.model = model
        self.cluster = cluster
        self.plan = plan
        self.options = options or EngineOptions()
        self._prefill_cluster = replace(cluster, num_gpus=plan.prefill_gpus)
        self._decode_cluster = replace(cluster, num_gpus=plan.decode_gpus)
        for sub_cluster, cfg, role in (
            (self._prefill_cluster, plan.prefill_config, "prefill"),
            (self._decode_cluster, plan.decode_config, "decode"),
        ):
            if not fits(model, sub_cluster, cfg):
                raise CapacityError(
                    f"{model.name} does not fit the {role} pool under {cfg.label()}"
                )

    def label(self) -> str:
        return self.plan.label()

    # ------------------------------------------------------------------ #

    def _prefill_pool_plan(self, workload: WorkloadSpec) -> RoutingPlan:
        """Route the prompts across the prefill pool's DP replicas.

        The pool does no decode work, so its router context drains decode
        tokens instantly (``inf`` rate); prefill drains at one budget-sized
        micro-batch per stage period.
        """
        cfg = self.plan.prefill_config
        replica_cfg = replace(cfg, dp=1)
        costs = StepCostModel(self.model, self._prefill_cluster, replica_cfg)
        budget = self.options.max_batched_tokens
        context = RouterContext(
            prefill_tokens_per_s=budget / costs.prefill_stage_time([budget]).total,
            decode_tokens_per_s=math.inf,
            kv_capacity_tokens=kv_capacity_tokens(
                self.model, self._prefill_cluster, replica_cfg
            ),
            ttft_slo=self.options.ttft_slo,
            tpot_slo=self.options.tpot_slo,
        )
        router = make_router(
            self.options.router,
            cfg.dp,
            context=context,
            seed=self.options.router_seed,
        )
        return router.route(list(workload.requests))

    def prefill_pool_time(
        self, workload: WorkloadSpec, pool_plan: RoutingPlan | None = None
    ) -> float:
        """Wall time for the prefill pool to process every prompt.

        Prefilled KV leaves for the decode pool immediately, so the pool
        streams micro-batches continuously; per DP replica of the pool the
        stream pipelines across its PP stages. ``pool_plan`` lets callers
        that already routed the workload skip re-routing it.
        """
        cfg = self.plan.prefill_config
        parts = (pool_plan or self._prefill_pool_plan(workload)).partitions
        replica_cfg = replace(cfg, dp=1)
        costs = StepCostModel(self.model, self._prefill_cluster, replica_cfg)
        times = []
        for part in parts:
            if not part:
                continue
            lens = [r.prompt_len for r in part]
            budget = self.options.max_batched_tokens
            micro: list[list[int]] = [[]]
            used = 0
            for ln in lens:
                if micro[-1] and used + ln > budget:
                    micro.append([])
                    used = 0
                micro[-1].append(ln)
                used += ln
            stage_times = [costs.prefill_stage_time(m).total for m in micro]
            wall = pipeline_time_heterogeneous(stage_times, replica_cfg.pp)
            wall += ITERATION_OVERHEAD * len(micro)
            times.append(wall)
        return max(times) if times else 0.0

    def decode_pool_result(self, workload: WorkloadSpec) -> EngineResult:
        """Decode-pool completion summary for already-prefilled requests."""
        # The pool run is an internal building block (called more than once
        # per disaggregated run), so it runs without hooks; only the joint
        # result folds into the telemetry hub / tracer, in :meth:`run`.
        engine = _DecodeOnlyEngine(
            self.model, self._decode_cluster, self.plan.decode_config, self.options
        )
        return engine.run(workload)

    def analyze(self, workload: WorkloadSpec) -> DisaggregationAnalysis:
        """Per-stage throughputs (the Fig. 4 bar data)."""
        tp_time = self.prefill_pool_time(workload)
        td = self.decode_pool_result(workload)
        n = workload.num_requests
        return DisaggregationAnalysis(
            prefill_time=tp_time,
            decode_time=td.total_time,
            prefill_throughput_rps=n / tp_time if tp_time > 0 else float("inf"),
            decode_throughput_rps=td.throughput_rps,
        )

    def _prefill_pool_schedule(
        self, workload: WorkloadSpec, pool_plan: RoutingPlan | None = None
    ) -> tuple[dict[int, tuple[float, float]], float]:
        """Arrival-aware prefill-pool schedule: request_id -> (batch start,
        prefill completion) on the joint virtual clock, plus the pool's
        busy time (slowest replica's total stage occupancy).

        Per DP replica of the pool, prompts stream through in arrival
        order as greedy micro-batches under the token budget; a micro-batch
        starts when the previous one retires and its prompts have arrived
        (the pool idles on an empty queue). Completion of micro-batch ``k``
        is the pipeline fill of the first batch plus the cumulative stage
        times — consistent with :meth:`prefill_pool_time`'s streaming model.
        """
        cfg = self.plan.prefill_config
        replica_cfg = replace(cfg, dp=1)
        costs = StepCostModel(self.model, self._prefill_cluster, replica_cfg)
        budget = self.options.max_batched_tokens
        fill_stages = replica_cfg.pp - 1
        schedule: dict[int, tuple[float, float]] = {}
        busy_time = 0.0
        for part in (pool_plan or self._prefill_pool_plan(workload)).partitions:
            if not part:
                continue
            queue = sorted(part, key=lambda r: r.arrival_time)
            free_at = 0.0
            replica_busy = 0.0
            i = 0
            while i < len(queue):
                start = max(free_at, queue[i].arrival_time)
                batch = [queue[i]]
                used = queue[i].prompt_len
                i += 1
                # Batch up everything that has arrived by the start time.
                while (
                    i < len(queue)
                    and queue[i].arrival_time <= start + 1e-12
                    and used + queue[i].prompt_len <= budget
                ):
                    batch.append(queue[i])
                    used += queue[i].prompt_len
                    i += 1
                stage = costs.prefill_stage_time([r.prompt_len for r in batch]).total
                done = start + (1 + fill_stages) * stage + ITERATION_OVERHEAD
                free_at = start + stage + ITERATION_OVERHEAD
                replica_busy += stage + ITERATION_OVERHEAD
                for r in batch:
                    schedule[r.request_id] = (start, done)
            busy_time = max(busy_time, replica_busy)
        return schedule, busy_time

    def _joint_latency(
        self, workload: WorkloadSpec, pool_plan: RoutingPlan | None = None
    ) -> tuple[LatencyStats, EngineResult, float]:
        """Simulate the two pools as a pipeline at request granularity.

        Prefill completions become the decode pool's arrival process; the
        (event-driven) decode pool then yields per-request finish times.
        Returns the joint latency records, the gated decode-pool result,
        and the prefill pool's busy time.
        """
        schedule, prefill_busy = self._prefill_pool_schedule(workload, pool_plan)
        ids = workload.request_id.tolist()
        done = [schedule[i][1] for i in ids]
        gated = stamp_arrivals(workload, done, name=f"{workload.name}+prefilled")
        decode_result = self.decode_pool_result(gated)
        assert decode_result.latency is not None
        decoded = decode_result.latency
        finish = dict(
            zip(decoded.request_id.tolist(), decoded.finish.tolist(), strict=True)
        )
        latency = LatencyStats.from_columns(
            request_id=workload.request_id,
            arrival=workload.arrival_time,
            first_schedule=[schedule[i][0] for i in ids],
            first_token=done,
            finish=[max(finish[i], d) for i, d in zip(ids, done, strict=True)],
            output_len=workload.output_len,
        )
        return latency, decode_result, prefill_busy

    def run(self, workload: WorkloadSpec, hooks: RunHooks | None = None) -> EngineResult:
        """End-to-end run: the two pools overlap as a two-stage pipeline.

        Offline (every arrival at 0) the completion time keeps the seed's
        steady-state bound — the slower pool plus the fill time of the
        first prefill batch; per-request latency additionally comes from
        the request-granular pipeline simulation. Under an arrival process
        the steady-state bound no longer applies, so the run *is* the joint
        simulation: total time is when the gated decode pool finishes the
        last request.

        ``hooks`` observe the joint result (telemetry folds it, tracing
        records dispatch and KV-handoff marks); no shared clock runs here
        for a sanitizer to check.
        """
        hooks = NO_HOOKS if hooks is None else hooks
        if hooks.sanitize is not None:
            raise ConfigurationError(
                "the disaggregated engine has no shared clock to sanitize"
            )
        pool_plan = self._prefill_pool_plan(workload)
        latency, gated_decode, prefill_busy = self._joint_latency(workload, pool_plan)
        tr = hooks.tracing
        if tr is not None:
            self._note_trace_marks(tr, pool_plan, latency, gated_decode)
        online = bool((workload.arrival_time > 0).any())
        if online:
            phase = dict(gated_decode.phase_time)
            phase["prefill"] = prefill_busy
            return hooks.fold(EngineResult(
                engine=self.name,
                label=self.label(),
                num_requests=workload.num_requests,
                total_time=max(
                    gated_decode.total_time,
                    float(latency.finish.max()),
                ),
                input_tokens=workload.total_input_tokens,
                output_tokens=workload.total_output_tokens,
                phase_time=phase,
                breakdown=gated_decode.breakdown,
                iterations=gated_decode.iterations,
                transitions=0,
                latency=latency,
                # The decode pool's dispatch record (decode dominates the
                # serving latency; the prefill pool re-routes upstream).
                router=gated_decode.router,
            ), self.options)
        # Offline: the gated decode run degenerates to the seed's
        # decode-pool run shifted by prefill completions; the seed bound
        # still needs the unshifted decode time, simulated once here.
        prefill_time = self.prefill_pool_time(workload, pool_plan)
        decode_result = self.decode_pool_result(workload)
        costs = StepCostModel(
            self.model,
            self._prefill_cluster,
            replace(self.plan.prefill_config, dp=1),
        )
        fill = costs.prefill_pass_time([int(workload.prompt_len[0])]).total
        total = max(prefill_time, decode_result.total_time) + fill
        return hooks.fold(EngineResult(
            engine=self.name,
            label=self.label(),
            num_requests=workload.num_requests,
            total_time=total,
            input_tokens=workload.total_input_tokens,
            output_tokens=workload.total_output_tokens,
            phase_time={
                "prefill": prefill_time,
                "decode": decode_result.total_time,
            },
            breakdown=decode_result.breakdown,
            iterations=decode_result.iterations,
            transitions=0,
            latency=latency,
            router=decode_result.router,
        ), self.options)

    def _note_trace_marks(
        self,
        tr,
        pool_plan: RoutingPlan,
        latency: LatencyStats,
        gated_decode: EngineResult,
    ) -> None:
        """Record dispatch + KV-handoff marks for the joint pipeline run.

        Prefill-pool replicas are tracks ``0..dp_p-1``; the decode pool is
        track ``dp_p``. The handoff happens at prefill completion (=first
        token); the decode pool's admission time bounds the transfer-wait
        segment when the gated run recorded one.
        """
        dp_p = self.plan.prefill_config.dp
        prefill_replica: dict[int, int] = {}
        for i, part in enumerate(pool_plan.partitions):
            for r in part:
                prefill_replica[r.request_id] = i
        decode_sched: dict[int, float] = {}
        gated = gated_decode.latency
        if gated is not None:
            decode_sched = dict(
                zip(
                    gated.request_id.tolist(),
                    gated.first_schedule.tolist(),
                    strict=True,
                )
            )
        for rid, arrival, done in zip(
            latency.request_id.tolist(),
            latency.arrival.tolist(),
            latency.first_token.tolist(),
            strict=True,
        ):
            src = prefill_replica.get(rid, 0)
            tr.note_dispatch(arrival, rid, src)
            tr.note_handoff(done, rid, src, dp_p, until=decode_sched.get(rid))

