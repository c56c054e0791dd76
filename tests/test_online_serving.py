"""Event-driven serving: offline equivalence, arrival gating, load latency.

The central contract of the arrival-aware refactor is that *offline*
workloads (every request at t=0) reproduce the seed revision's numbers
exactly — the golden values below were captured at the seed commit via
``tests/golden_offline.py`` — while stamped arrival processes yield
sensible online behaviour: idle gaps, queue delays, and latency that
degrades monotonically-in-trend with offered load.
"""

import pytest

from repro.core.engine import SeesawEngine
from repro.engines.base import EngineOptions, ReplicaState, RunHooks
from repro.engines.decode_prioritized import DecodePrioritizedEngine
from repro.engines.disaggregated import DisaggregatedEngine, DisaggregationPlan
from repro.engines.vllm_like import VllmLikeEngine
from repro.errors import SimulationError
from repro.obs import Tracer
from repro.parallel.config import parse_config
from repro.runtime.kvcache import KVCacheManager
from repro.runtime.metrics import EngineResult, merge_dp_results
from repro.runtime.request import Request
from repro.workloads.arrivals import bursty_arrivals, poisson_arrivals, stamp_arrivals
from repro.workloads.datasets import sharegpt_workload
from repro.workloads.synthetic import constant_workload

from golden_offline import scenarios

# Captured at the seed commit (see tests/golden_offline.py). Keys map to
# the scenario functions; values are the seed's totals and phase times.
GOLDEN_SEED = {
    "vllm_plain": {
        "total_time": 0.2112616800702835,
        "phase_time": {"decode": 0.09752755413333335, "prefill": 0.11373412593695029},
        "transitions": 0,
    },
    "vllm_chunked": {
        "total_time": 1.9104881969623662,
        "phase_time": {
            "decode": 1.7512111765333342,
            "mixed": 0.15079988755797333,
            "prefill": 0.008477132871059393,
        },
        "transitions": 0,
    },
    "vllm_dp": {
        "total_time": 1.917398817420879,
        "phase_time": {"decode": 1.7761419093333337, "prefill": 0.14125690808754426},
        "transitions": 0,
    },
    "decode_prio": {
        "total_time": 2.928148100890377,
        "phase_time": {"decode": 2.425880832, "prefill": 0.5022672688903757},
        "transitions": 2,
    },
    "seesaw": {
        "total_time": 44.14296480022675,
        "phase_time": {
            "decode": 36.980176979200024,
            "prefill": 6.551680282203229,
            "reshard": 0.610655774117647,
            "swap_stall": 0.00045176470588259576,
        },
        "transitions": 1,
    },
    "disagg": {
        "total_time": 0.1195430348080097,
        "phase_time": {"decode": 0.10313784320000002, "prefill": 0.1116169739369503},
        "transitions": 0,
    },
}


class TestOfflineEquivalence:
    """All-arrivals-at-0 runs must reproduce the seed bit-for-bit."""

    @pytest.mark.parametrize("name", sorted(GOLDEN_SEED))
    def test_matches_seed_golden(self, name):
        result = scenarios()[name]()
        golden = GOLDEN_SEED[name]
        assert result.total_time == pytest.approx(golden["total_time"], rel=1e-12)
        assert set(result.phase_time) == set(golden["phase_time"])
        for phase, seconds in golden["phase_time"].items():
            assert result.phase_time[phase] == pytest.approx(seconds, rel=1e-12), phase
        assert result.transitions == golden["transitions"]
        assert "idle" not in result.phase_time

    def test_explicit_zero_arrivals_identical(self, tiny_model, cluster_a10_4):
        """Stamping arrival_time=0.0 must be indistinguishable from the
        default offline construction."""
        base = constant_workload(16, 256, 32)
        stamped = stamp_arrivals(base, [0.0] * base.num_requests)
        eng = lambda: VllmLikeEngine(tiny_model, cluster_a10_4, parse_config("T2P2"))
        a, b = eng().run(base), eng().run(stamped)
        assert a.total_time == b.total_time
        assert a.phase_time == b.phase_time


class TestReplicaStateGating:
    def make_state(self, arrivals):
        reqs = [
            Request(request_id=i, prompt_len=10, output_len=2, arrival_time=t)
            for i, t in enumerate(arrivals)
        ]
        return ReplicaState(reqs, KVCacheManager(capacity_tokens=4096, block_size=16))

    def test_pending_gated_by_clock(self):
        state = self.make_state([0.0, 5.0, 2.0])
        # t=0: only the first request has arrived.
        assert [s.seq_id for s in state.waiting] == [0]
        assert state.next_arrival_time == pytest.approx(2.0)
        assert state.admit_arrivals(2.0) == 1
        assert [s.seq_id for s in state.waiting] == [0, 2]
        assert state.admit_arrivals(10.0) == 1
        assert not state.pending
        assert [s.seq_id for s in state.waiting] == [0, 2, 1]

    def test_simultaneous_arrivals_keep_submission_order(self):
        state = self.make_state([1.0, 1.0, 1.0])
        state.admit_arrivals(1.0)
        assert [s.seq_id for s in state.waiting] == [0, 1, 2]

    def test_next_arrival_requires_pending(self):
        state = self.make_state([0.0])
        with pytest.raises(SimulationError):
            state.next_arrival_time


class TestOnlineBehaviour:
    def test_idle_phase_and_total_span_arrivals(self, tiny_model, cluster_a10_4):
        """Sparse arrivals force idle gaps; the run cannot end before the
        last request arrives."""
        base = constant_workload(8, 256, 32)
        wl = poisson_arrivals(base, 1.0, seed=3)
        last = max(r.arrival_time for r in wl.requests)
        r = VllmLikeEngine(tiny_model, cluster_a10_4, parse_config("T2P2")).run(wl)
        assert r.phase_time.get("idle", 0.0) > 0.0
        assert r.total_time > last
        assert r.latency is not None
        # Every request was served after it arrived.
        for rec in r.latency.records:
            assert rec.first_schedule_time >= rec.arrival_time

    @pytest.mark.parametrize(
        "make_engine",
        [
            lambda m, c: VllmLikeEngine(m, c, parse_config("T2P2")),
            lambda m, c: VllmLikeEngine(
                m, c, parse_config("T2P2"), EngineOptions(chunked_prefill=True, chunk_size=512)
            ),
            lambda m, c: DecodePrioritizedEngine(m, c, parse_config("T4")),
            lambda m, c: DisaggregatedEngine(
                m,
                c,
                DisaggregationPlan(
                    prefill_config=parse_config("T2"), decode_config=parse_config("T2")
                ),
            ),
        ],
        ids=["vllm", "vllm-chunked", "decode-prio", "disagg"],
    )
    def test_all_engines_report_online_latency(self, tiny_model, cluster_a10_4, make_engine):
        wl = poisson_arrivals(constant_workload(16, 256, 32), 20.0, seed=3)
        r = make_engine(tiny_model, cluster_a10_4).run(wl)
        assert r.latency is not None
        assert r.latency.num_requests == 16
        lat = r.latency
        assert 0.0 < lat.ttft.p50 <= lat.ttft.p99
        assert 0.0 < lat.tpot.p50 <= lat.tpot.p99
        assert lat.e2e.p99 >= lat.ttft.p99

    def test_bursty_sub_epsilon_gaps_survive(self, tiny_model, cluster_a10_4):
        """High-burstiness Gamma processes produce inter-arrival gaps below
        the admission epsilon (1e-12); the latency records must tolerate a
        first-schedule stamp that tiny amount before the arrival instead of
        crashing at result construction."""
        wl = bursty_arrivals(constant_workload(400, 256, 16), 2.0, burstiness=8.0, seed=3)
        r = VllmLikeEngine(tiny_model, cluster_a10_4, parse_config("T2P2")).run(wl)
        assert r.latency is not None and r.latency.num_requests == 400
        assert all(rec.queue_delay >= 0.0 for rec in r.latency.records)

    def test_seesaw_online_latency(self, model_34b, cluster_a10_8):
        wl = poisson_arrivals(sharegpt_workload(24, seed=7), 1.0, seed=3)
        r = SeesawEngine(
            model_34b, cluster_a10_8, parse_config("P8"), parse_config("T4P2")
        ).run(wl)
        assert r.latency is not None and r.latency.num_requests == 24
        assert r.latency.ttft.p99 > 0.0
        assert r.total_time >= max(req.arrival_time for req in wl.requests)

    def test_ttft_trends_up_with_load(self, tiny_model, cluster_a10_4):
        """The load-latency curve: median TTFT at saturating load must
        exceed TTFT at a trickle."""
        base = constant_workload(32, 512, 64)
        eng = lambda: VllmLikeEngine(tiny_model, cluster_a10_4, parse_config("T2P2"))
        p50s = []
        for rate in (2.0, 50.0, 500.0):
            r = eng().run(poisson_arrivals(base, rate, seed=11))
            assert r.latency is not None
            p50s.append(r.latency.ttft.p50)
        assert p50s[-1] > p50s[0]
        # Offered load is capped by engine capacity: completion throughput
        # at the highest rate approaches the offline rate.
        offline = eng().run(base)
        assert offline.latency is not None

    def test_preemption_under_load_records_queue_delay(self, tiny_model, cluster_a10_4):
        """KV-pressure preemptions must be counted and must not corrupt
        the sticky first-schedule stamp (queue delay measured to first
        service, not to the post-preemption retry)."""

        class TightKVEngine(VllmLikeEngine):
            """The tiny model leaves KV pressure unreachable on 24 GiB
            GPUs; cap the cache so growth must evict."""

            def make_kv(self, config=None, reserve_tokens=0):
                return KVCacheManager(capacity_tokens=8192, block_size=16)

        wl = poisson_arrivals(constant_workload(8, 1000, 500), 100.0, seed=2)
        r = TightKVEngine(tiny_model, cluster_a10_4, parse_config("T2")).run(wl)
        assert r.latency is not None
        assert r.latency.total_preemptions > 0
        for rec in r.latency.records:
            assert rec.arrival_time <= rec.first_schedule_time <= rec.first_token_time
            assert rec.queue_delay >= 0.0
        preempted = [x for x in r.latency.records if x.num_preemptions > 0]
        assert preempted
        # Preempted requests still report a first token before their finish.
        for rec in preempted:
            assert rec.first_token_time < rec.finish_time


class TestDpMerge:
    def make_result(self, iterations, transitions=1, latency=None):
        from repro.costmodel.breakdown import Breakdown

        return EngineResult(
            engine="x",
            label="T2",
            num_requests=4,
            total_time=2.0,
            input_tokens=40,
            output_tokens=8,
            phase_time={"decode": 2.0},
            breakdown=Breakdown(),
            iterations=iterations,
            transitions=transitions,
            latency=latency,
        )

    def test_iterations_sum_across_replicas(self):
        merged = merge_dp_results(
            [self.make_result(5), self.make_result(9)], engine="x", label="D2"
        )
        assert merged.iterations == 14  # work adds up across replicas
        assert merged.transitions == 1  # lock-step re-shards take the max
        assert merged.total_time == 2.0

    def test_dp_engine_iterations_exceed_single_replica_max(
        self, tiny_model, cluster_a10_4
    ):
        wl = constant_workload(40, 300, 40)
        r = VllmLikeEngine(tiny_model, cluster_a10_4, parse_config("D2T2")).run(wl)
        # Two replicas of 20 requests each: summed iterations must exceed
        # what any single replica could report alone (>= 20 decode steps
        # per replica -> the old max-merge would report about half).
        assert r.iterations >= 2 * 39

    def test_latency_merges_across_replicas(self, tiny_model, cluster_a10_4):
        wl = poisson_arrivals(constant_workload(24, 256, 32), 20.0, seed=3)
        r = VllmLikeEngine(tiny_model, cluster_a10_4, parse_config("D2T2")).run(wl)
        assert r.latency is not None
        assert r.latency.num_requests == 24
        ids = sorted(rec.request_id for rec in r.latency.records)
        assert ids == list(range(24))


class TestTraceSelection:
    """Every replica that ran records its own phase track; ``--timeline``
    renders the lowest-id one."""

    def test_trace_with_empty_trailing_partitions(self, tiny_model, cluster_a10_4):
        """Fewer requests than replicas leaves partitions empty; the
        replica that ran has a track and the idle ones have none."""
        wl = constant_workload(1, 256, 8)
        engine = VllmLikeEngine(tiny_model, cluster_a10_4, parse_config("D4"))
        tracer = Tracer("p99_exemplars")
        r = engine.run(wl, RunHooks(tracing=tracer))
        assert r.num_requests == 1
        assert tracer.phase_replicas() == [0]
        assert len(tracer.phases(0)) > 0
        assert all(tracer.phases(i) == () for i in (1, 2, 3))

    def test_trace_attaches_to_first_nonempty_partition(
        self, tiny_model, cluster_a10_4, monkeypatch
    ):
        """With replica 0 skipped by the router, replica 1 has the track
        and replica 0 has none."""
        import repro.engines.base as base_mod
        from repro.routing import StaticRouter

        class _SkipReplicaZero(StaticRouter):
            def select(self, request, index, now):
                return self.num_replicas - 1

        monkeypatch.setattr(
            base_mod.BaseEngine,
            "make_router",
            lambda self, requests: _SkipReplicaZero(self.config.dp),
        )
        wl = constant_workload(2, 256, 8)
        engine = VllmLikeEngine(tiny_model, cluster_a10_4, parse_config("D2"))
        tracer = Tracer("p99_exemplars")
        r = engine.run(wl, RunHooks(tracing=tracer))
        assert r.num_requests == 2
        assert tracer.phase_replicas() == [1]
        assert len(tracer.phases(1)) > 0
        assert tracer.phases(0) == ()
