"""Decode-prioritized and disaggregated engines."""

import math
from dataclasses import replace

import pytest

from repro.costmodel.pipeline import pipeline_time_heterogeneous
from repro.costmodel.step import ITERATION_OVERHEAD, StepCostModel
from repro.engines.base import EngineOptions
from repro.engines.decode_prioritized import DecodePrioritizedEngine
from repro.engines.disaggregated import (
    DisaggregatedEngine,
    DisaggregationPlan,
)
from repro.errors import CapacityError, ConfigurationError
from repro.hardware.cluster import make_cluster
from repro.parallel.config import parse_config
from repro.parallel.memory import kv_capacity_tokens
from repro.routing import RouterContext, make_router
from repro.workloads.arrivals import bursty_arrivals, poisson_arrivals
from repro.workloads.datasets import sample_dataset, sharegpt_workload
from repro.workloads.synthetic import constant_workload


def reference_prefill_pool(model, cluster, plan, options, workload):
    """Closed-form reference for the disaggregated prefill pool.

    Routes the prompts with a hand-built router context (the pool drains
    decode tokens instantly), then runs the streaming recurrence per DP
    replica: prompts in arrival order form greedy micro-batches under the
    token budget (the first prompt is exempt) out of what has arrived by
    the batch start; a micro-batch starts when the previous one's stage
    period ends or its first prompt arrives, and hands off ``pp`` stage
    times after it starts. Returns ``request_id -> (start, handoff)``,
    the busiest replica's occupancy and each replica's stage times.
    """
    cfg = plan.prefill_config
    replica_cfg = replace(cfg, dp=1)
    pool_cluster = replace(cluster, num_gpus=plan.prefill_gpus)
    costs = StepCostModel(model, pool_cluster, replica_cfg)
    budget = options.max_batched_tokens
    context = RouterContext(
        prefill_tokens_per_s=budget / costs.prefill_stage_time([budget]).total,
        decode_tokens_per_s=math.inf,
        kv_capacity_tokens=kv_capacity_tokens(model, pool_cluster, replica_cfg),
        ttft_slo=options.ttft_slo,
        tpot_slo=options.tpot_slo,
    )
    router = make_router(
        options.router, cfg.dp, context=context, seed=options.router_seed
    )
    schedule: dict[int, tuple[float, float]] = {}
    busy_time = 0.0
    replica_stages: list[list[float]] = []
    for part in router.route(list(workload.requests)).partitions:
        if not part:
            continue
        queue = sorted(part, key=lambda r: r.arrival_time)
        free_at = 0.0
        replica_busy = 0.0
        stages: list[float] = []
        i = 0
        while i < len(queue):
            start = max(free_at, queue[i].arrival_time)
            batch = [queue[i]]
            used = queue[i].prompt_len
            i += 1
            while (
                i < len(queue)
                and queue[i].arrival_time <= start + 1e-12
                and used + queue[i].prompt_len <= budget
            ):
                batch.append(queue[i])
                used += queue[i].prompt_len
                i += 1
            stage = costs.prefill_stage_time([r.prompt_len for r in batch]).total
            done = start + replica_cfg.pp * stage + ITERATION_OVERHEAD
            free_at = start + stage + ITERATION_OVERHEAD
            replica_busy += stage + ITERATION_OVERHEAD
            stages.append(stage)
            for r in batch:
                schedule[r.request_id] = (start, done)
        busy_time = max(busy_time, replica_busy)
        replica_stages.append(stages)
    return schedule, busy_time, replica_stages


class TestDecodePrioritized:
    def test_completes(self, tiny_model, cluster_a10_4):
        wl = constant_workload(24, 300, 40)
        r = DecodePrioritizedEngine(
            tiny_model, cluster_a10_4, parse_config("T2P2")
        ).run(wl)
        assert r.num_requests == 24

    def test_batch_at_a_time_transitions(self, model_70b, cluster_a10_8):
        """One prefill->decode->prefill cycle per admitted batch."""
        wl = sharegpt_workload(120, seed=2)
        r = DecodePrioritizedEngine(
            model_70b, cluster_a10_8, parse_config("T4P2")
        ).run(wl)
        assert r.transitions >= 2

    def test_oversized_request_raises(self, tiny_model, cluster_a10_4):
        wl = constant_workload(1, 2_000_000, 2_000_000)
        with pytest.raises(CapacityError):
            DecodePrioritizedEngine(
                tiny_model, cluster_a10_4, parse_config("T2P2")
            ).run(wl)

    def test_slower_than_continuous_batching(
        self, model_70b, cluster_a10_8
    ):
        """Draining batches wastes decode capacity vs continuous batching
        once the workload exceeds GPU KV space."""
        from repro.engines.vllm_like import VllmLikeEngine

        wl = sharegpt_workload(400, seed=2)
        dp = DecodePrioritizedEngine(
            model_70b, cluster_a10_8, parse_config("T4P2")
        ).run(wl)
        cb = VllmLikeEngine(model_70b, cluster_a10_8, parse_config("T4P2")).run(wl)
        assert cb.throughput_rps > dp.throughput_rps


class TestDisaggregated:
    def plan(self):
        return DisaggregationPlan(
            prefill_config=parse_config("P4"), decode_config=parse_config("T4")
        )

    def test_plan_labels(self):
        plan = self.plan()
        assert plan.total_gpus == 8
        assert plan.label() == "P4|T4"

    def test_pools_must_fit(self, model_70b):
        cluster = make_cluster("A100-PCIE", 8)
        bad = DisaggregationPlan(
            prefill_config=parse_config("T2"), decode_config=parse_config("T4P1").__class__(tp=4, pp=1, dp=1)
        )
        with pytest.raises(CapacityError):
            DisaggregatedEngine(model_70b, cluster, bad)

    def test_plan_cannot_exceed_cluster(self, model_70b):
        cluster = make_cluster("A100-PCIE", 4)
        with pytest.raises(ConfigurationError):
            DisaggregatedEngine(model_70b, cluster, self.plan())

    def test_analysis_and_run(self, model_70b):
        cluster = make_cluster("A100-PCIE", 8)
        wl = constant_workload(64, 512, 256)
        engine = DisaggregatedEngine(model_70b, cluster, self.plan())
        analysis = engine.analyze(wl)
        assert analysis.prefill_throughput_rps > 0
        assert analysis.decode_throughput_rps > 0
        assert analysis.mismatch_ratio >= 1.0
        result = engine.run(wl)
        assert result.num_requests == 64
        # Overall time bounded below by the slower stage.
        slower = max(analysis.prefill_time, analysis.decode_time)
        assert result.total_time >= slower

    def test_prefill_pool_faster_than_decode_pool(self, model_70b):
        """Fig. 4: the balanced 4+4 split still mismatches badly."""
        cluster = make_cluster("A100-PCIE", 8)
        wl = constant_workload(64, 512, 512)
        analysis = DisaggregatedEngine(model_70b, cluster, self.plan()).analyze(wl)
        assert analysis.prefill_throughput_rps > 2 * analysis.decode_throughput_rps

    def test_analysis_refuses_arrivals(self, model_70b):
        cluster = make_cluster("A100-PCIE", 8)
        wl = poisson_arrivals(constant_workload(16, 512, 64), 1.0, seed=1)
        engine = DisaggregatedEngine(model_70b, cluster, self.plan())
        with pytest.raises(ConfigurationError, match="offline"):
            engine.analyze(wl)


class TestPrefillPoolOracle:
    """The prefill pool's replica loop == the closed-form recurrence
    (:func:`reference_prefill_pool`), bit for bit."""

    PREFILL_CONFIGS = ("T1", "P2", "P4", "D2", "D2P2", "D2P4")

    @staticmethod
    def workloads():
        base = sample_dataset("sharegpt", 40, seed=3)
        return {
            "offline": base,
            # Two 256-token prompts fill the 512-token budget exactly.
            "offline-exact-fill": constant_workload(12, 256, 8),
            "poisson": poisson_arrivals(base, 2.0, seed=5),
            "bursty": bursty_arrivals(base, 3.0, burstiness=8.0, seed=7),
        }

    @pytest.mark.parametrize("router", ["static", "jsq"])
    @pytest.mark.parametrize("prefill", PREFILL_CONFIGS)
    def test_matches_reference(self, tiny_model, prefill, router):
        cluster = make_cluster("A10", 16)
        plan = DisaggregationPlan(parse_config(prefill), parse_config("T1"))
        # 512 tokens: several prompts exceed the budget and run alone.
        options = EngineOptions(max_batched_tokens=512, router=router)
        engine = DisaggregatedEngine(tiny_model, cluster, plan, options)
        for name, wl in self.workloads().items():
            result = engine.prefill_pool_result(wl)
            schedule, busy, stages = reference_prefill_pool(
                tiny_model, cluster, plan, options, wl
            )
            lat = result.latency
            got = dict(
                zip(
                    lat.request_id.tolist(),
                    zip(lat.first_schedule.tolist(), lat.first_token.tolist()),
                )
            )
            assert got == schedule, name
            assert result.phase_time["prefill"] == busy, name
            if name.startswith("offline"):
                pp = plan.prefill_config.pp
                assert result.total_time == max(
                    pipeline_time_heterogeneous(s, pp) + ITERATION_OVERHEAD * len(s)
                    for s in stages
                )
                assert "idle" not in result.phase_time
            else:
                assert result.phase_time["idle"] > 0, name
