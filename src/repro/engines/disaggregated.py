"""DistServe/Mooncake-style spatial prefill-decode disaggregation.

The cluster is split into a prefill pool and a decode pool, each with its
own parallel configuration; prefilled KV flows from one to the other. The
two pools form a two-stage pipeline, so steady-state throughput is the
minimum of the stages — the Section 3.2 analysis this module exists to
reproduce: in resource-constrained deployments (70B on eight 40 GiB GPUs)
the only feasible split is 4+4, the stages mismatch by ~6x, and the decode
pool at 4 GPUs reaches only a fraction of 8-GPU decode throughput because
the duplicated weights crowd out KV space.

Each pool is an ordinary :class:`BaseEngine` replica loop, so both get
planned routing, replica stepping, idle accounting, the sanitizer and
tracer phase tracks. The prefill pool's KV handoff instants become the
decode pool's arrival process; the handoff itself is free, and the two
pools do not share one cluster clock.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterator

import numpy as np

from repro.costmodel.pipeline import pipeline_time_heterogeneous
from repro.costmodel.step import ITERATION_OVERHEAD
from repro.engines.base import (
    NO_HOOKS,
    BaseEngine,
    EngineOptions,
    ReplicaState,
    RunHooks,
)
from repro.errors import CapacityError, ConfigurationError
from repro.hardware.cluster import ClusterSpec
from repro.models.config import ModelConfig
from repro.parallel.config import ParallelConfig, parse_config
from repro.parallel.memory import fits
from repro.runtime.latency import LatencyStats
from repro.runtime.metrics import EngineResult
from repro.runtime.request import Request, SequenceState
from repro.workloads.arrivals import stamp_arrivals
from repro.workloads.spec import WorkloadSpec


@dataclass(frozen=True)
class DisaggregationPlan:
    """GPU split and per-pool configurations."""

    prefill_config: ParallelConfig
    decode_config: ParallelConfig

    @classmethod
    def parse(cls, label: str) -> "DisaggregationPlan":
        """The plan a ``"<prefill>|<decode>"`` label (``"T2|T2"``) names."""
        labels = label.split("|")
        if len(labels) != 2:
            raise ConfigurationError(
                f"a disaggregation plan is '<prefill>|<decode>' like 'T2|T2', "
                f"got {label!r}"
            )
        return cls(*(parse_config(part) for part in labels))

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


class _PrefillOnlyEngine(BaseEngine):
    """Prefill pool: per replica, prompts stream through in arrival order
    as greedy micro-batches under the token budget (the first prompt of a
    micro-batch is exempt), one micro-batch per stage period; the pool
    idles on an empty queue. A request's KV leaves for the decode pool
    when its micro-batch exits the pipeline, ``pp`` stage times after it
    started — the request's handoff, recorded as its finish."""

    name = "prefill-pool"

    def router_context(self, requests):
        # The pool does no decode work: decode tokens drain instantly.
        return replace(super().router_context(requests), decode_tokens_per_s=math.inf)

    def _replica_setup(self, requests: list[Request], replica_id: int) -> ReplicaState:
        state = super()._replica_setup(requests, replica_id)
        state.stages = []  # stage time of every micro-batch, in order
        # Prefilled sequences, in handoff order; they finish in the decode
        # pool, so they never enter state.finished here.
        state.handed_off = []
        return state

    def _replica_loop(self, state: ReplicaState, start: float) -> Iterator[float]:
        costs, metrics = state.costs, state.metrics
        pp = self.replica_config.pp
        tr = self.hooks.tracing
        now = start
        while state.has_work:
            state.admit_arrivals(now)
            if not state.waiting:
                now = self.idle_advance(state, metrics, now)
                yield now
                continue
            lens = next(self.micro_batches(s.prompt_len for s in state.waiting))
            batch = [state.waiting.popleft() for _ in lens]
            used = sum(lens)
            stage = costs.prefill_stage_time(lens).total
            done = now + pp * stage + ITERATION_OVERHEAD
            if tr is not None:
                tr.note_phase(
                    state.replica_id, "prefill", now, stage + ITERATION_OVERHEAD,
                    len(batch), used, len(batch),
                )
            for seq in batch:
                seq.mark_scheduled(now)
                seq.advance_prefill(seq.remaining_prefill)
                seq.mark_finished(done)
                state.handed_off.append(seq)
                if tr is not None:
                    tr.note_handoff(done, seq.seq_id, state.replica_id, self.config.dp)
            state.stages.append(stage)
            metrics.add_phase("prefill", stage + ITERATION_OVERHEAD)
            now = now + stage + ITERATION_OVERHEAD
            yield now

    def _replica_result(self, state: ReplicaState, total_time: float) -> EngineResult:
        # The replica's time is its streaming bound — every stage period
        # plus the last micro-batch's pipeline drain — not its clock.
        wall = pipeline_time_heterogeneous(state.stages, self.replica_config.pp)
        wall += ITERATION_OVERHEAD * len(state.stages)
        return self.result_from(
            state.requests, state.metrics, wall, finished=state.handed_off
        )


class _DecodeOnlyEngine(BaseEngine):
    """Decode pool: sequences arrive prefilled; continuous batching with
    full-length reservations (no prefill resource to recompute on)."""

    name = "decode-pool"

    def _replica_loop(self, state: ReplicaState, start: float) -> Iterator[float]:
        costs, metrics = state.costs, state.metrics
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

    def _replica_result(self, state: ReplicaState, total_time: float) -> EngineResult:
        # All-single-token work decodes nothing; a run still takes time.
        return self.result_from(
            state.requests, state.metrics, max(total_time, 1e-9), finished=state.finished
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
        prefill_cluster = replace(cluster, num_gpus=plan.prefill_gpus)
        decode_cluster = replace(cluster, num_gpus=plan.decode_gpus)
        for sub_cluster, cfg, role in (
            (prefill_cluster, plan.prefill_config, "prefill"),
            (decode_cluster, plan.decode_config, "decode"),
        ):
            if not fits(model, sub_cluster, cfg):
                raise CapacityError(
                    f"{model.name} does not fit the {role} pool under {cfg.label()}"
                )
        # The prefill pool always dispatches on a plan: only the decode
        # pool runs coupled (and elastic) when the options ask for it.
        prefill_options = replace(
            self.options, coupled=False, autoscaler="none", min_dp=None,
            max_dp=None, fidelity="event",
        )
        self._prefill_pool = _PrefillOnlyEngine(
            model, prefill_cluster, plan.prefill_config, prefill_options
        )
        self._decode_pool = _DecodeOnlyEngine(
            model, decode_cluster, plan.decode_config, self.options
        )

    def label(self) -> str:
        return self.plan.label()

    # ------------------------------------------------------------------ #

    def prefill_pool_result(
        self, workload: WorkloadSpec, hooks: RunHooks = NO_HOOKS
    ) -> EngineResult:
        """Prefill-pool run (unfolded): its latency table holds each
        request's batch start (``first_schedule``) and KV handoff
        (``first_token`` = ``finish``); its total is the slowest replica's
        streaming time, its ``prefill`` phase the busiest replica's
        occupancy."""
        return self._prefill_pool.simulate(workload, hooks)

    def decode_pool_result(self, workload: WorkloadSpec) -> EngineResult:
        """Decode-pool completion summary for already-prefilled requests."""
        return self._decode_pool.run(workload)

    def analyze(self, workload: WorkloadSpec) -> DisaggregationAnalysis:
        """Per-stage throughputs (the Fig. 4 bar data).

        The Section 3.2 stage-throughput bound is an offline quantity, so
        a workload with arrival times is refused.
        """
        if (workload.arrival_time > 0).any():
            raise ConfigurationError(
                "the disaggregation stage analysis is an offline bound; "
                f"workload {workload.name!r} has arrival times (run() "
                "simulates arrivals)"
            )
        tp_time = self.prefill_pool_result(workload).total_time
        td = self.decode_pool_result(workload)
        return DisaggregationAnalysis(
            prefill_time=tp_time,
            decode_time=td.total_time,
            prefill_throughput_rps=workload.num_requests / tp_time,
            decode_throughput_rps=td.throughput_rps,
        )

    def run(self, workload: WorkloadSpec, hooks: RunHooks | None = None) -> EngineResult:
        """End-to-end run: the two pools overlap as a two-stage pipeline.

        The prefill pool runs first; its KV handoffs are the arrival
        process of the decode pool, and a request finishes when the
        decode pool finishes it. Under an arrival process the total time
        is when the last request finishes. Offline (every arrival at 0)
        the total keeps the seed's steady-state bound — the slower pool
        plus the fill time of the first prefill batch — with the decode
        pool's time taken from a second, ungated run.

        ``hooks`` observe both pool runs (telemetry only the joint
        result): the sanitizer checks each pool, and the tracer records
        the prefill pool's phase tracks and each request's dispatch, KV
        handoff and decode-pool admission.
        """
        hooks = NO_HOOKS if hooks is None else hooks
        pool_hooks = replace(hooks, telemetry=None)
        prefill = self.prefill_pool_result(workload, pool_hooks)
        handoff = prefill.latency
        at = np.searchsorted(handoff.request_id, workload.request_id)
        gated = stamp_arrivals(
            workload, handoff.first_token[at], name=f"{workload.name}+prefilled"
        )
        # The decode pool's replica ids would collide with the prefill
        # pool's tracks, so it runs untraced.
        decode = self._decode_pool.simulate(gated, replace(pool_hooks, tracing=None))
        decoded = decode.latency
        tr = hooks.tracing
        if tr is not None:
            for rid, admitted in zip(
                decoded.request_id.tolist(), decoded.first_schedule.tolist(), strict=True
            ):
                tr.note_resume(admitted, rid)
        latency = LatencyStats.from_columns(
            request_id=handoff.request_id,
            arrival=handoff.arrival,
            first_schedule=handoff.first_schedule,
            first_token=handoff.first_token,
            finish=np.maximum(decoded.finish, handoff.first_token),
            output_len=handoff.output_len,
        )
        if (workload.arrival_time > 0).any():
            phase = dict(decode.phase_time)
            phase["prefill"] = prefill.phase_time["prefill"]
            total = max(decode.total_time, float(latency.finish.max()))
        else:
            decode = self.decode_pool_result(workload)
            fill = self._prefill_pool.make_costs().prefill_pass_time(
                [int(workload.prompt_len[0])]
            ).total
            total = max(prefill.total_time, decode.total_time) + fill
            phase = {"prefill": prefill.total_time, "decode": decode.total_time}
        return hooks.fold(EngineResult(
            engine=self.name,
            label=self.label(),
            num_requests=workload.num_requests,
            total_time=total,
            input_tokens=workload.total_input_tokens,
            output_tokens=workload.total_output_tokens,
            phase_time=phase,
            breakdown=decode.breakdown,
            iterations=decode.iterations,
            transitions=0,
            latency=latency,
            # The decode pool's dispatch record (decode dominates the
            # serving latency; the prefill pool routes upstream).
            router=decode.router,
        ), self.options)
