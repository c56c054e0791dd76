"""Elastic replica fleets: lifecycle, autoscaling, and the PR 4 contract.

Contracts pinned by this PR:

1. **PR 4 golden equivalence** — ``--coupled`` with ``--autoscaler none``
   is bit-exact with the fixed-fleet simulator it replaced: the numbers
   below were captured from the PR 4 HEAD (before the fleet refactor)
   and must keep reproducing exactly, for all four engines plus online
   and jsq variants.
2. **Drain semantics** — a draining replica receives no new dispatches;
   its in-flight work (admitted *and* already-dispatched pending)
   completes and is counted.
3. **Lifecycle** — scale-ups pay the cost-model provisioning latency
   (weight load + KV warmup) before entering the membership; membership
   changes are logged as first-class events.
4. **Partial-lifetime accounting** — idle fractions normalize by each
   replica's active window; fleet stats (peak/mean dp, replica-seconds)
   follow the lifecycle log; the DP latency merge rejects duplicated
   requests.
5. **Acceptance** — the autoscale sweep shows an autoscaled fleet
   matching the peak-provisioned static fleet's p99-TTFT SLO attainment
   at >= 25% fewer replica-seconds under diurnal arrivals.
"""

import math
import random

import pytest

from repro.check import Sanitizer, SanitizerError
from repro.cluster import ClusterSimulator, ReplicaLifecycle
from repro.cluster.autoscaler import (
    PredictiveAutoscaler,
    ThresholdAutoscaler,
    make_autoscaler,
)
from repro.cluster.fleet import ReplicaFleet, provision_times
from repro.cluster.fluid import _FluidReplica
from repro.core.engine import SeesawEngine
from repro.core.options import SeesawOptions
from repro.engines.base import EngineOptions, RunHooks
from repro.engines.decode_prioritized import DecodePrioritizedEngine
from repro.engines.disaggregated import DisaggregatedEngine, DisaggregationPlan
from repro.engines.vllm_like import VllmLikeEngine
from repro.errors import ConfigurationError, SimulationError
from repro.experiments.autoscale_sweep import run_autoscale_sweep
from repro.hardware.cluster import make_cluster
from repro.models.registry import get_model
from repro.parallel.config import parse_config, parse_transition
from repro.routing.load import RouterContext
from repro.routing.policies import JSQRouter
from repro.runtime.latency import LatencyStats, RequestLatency
from repro.runtime.request import Request
from repro.workloads.arrivals import bursty_arrivals, diurnal_arrivals
from repro.workloads.datasets import sharegpt_workload
from repro.workloads.synthetic import bimodal_workload, constant_workload

# Captured at PR 4 HEAD (fixed-membership ClusterSimulator), before the
# fleet refactor: (total_time, iterations, ttft_p99, e2e_p99, queue_p99)
# for each engine under coupled static on the cells built below.
PR4_GOLDEN = {
    "vllm-offline": (1.917398817420879, 920, 0.14125690808754426, 1.8353704930688788, 0.0),
    "vllm-online": (5.7168395378414045, 213, 1.2345313182358653, 2.22815347669794, 1.0390886216044763),
    "decode-prioritized": (1.917398817420879, 920, 0.14125690808754426, 1.8353704930688788, 0.0),
    "seesaw": (1.9481649116417552, 924, 0.057029020087544235, 1.864981738009755, 0.0),
    "disagg": (0.1267382060087855, 62, 0.04386810993695029, 0.16482280220361706, 0.0),
    "vllm-online-jsq": (4.763435267779178, 169, 0.5087750041673026, 1.2686505273644857, 0.312662000836642),
}


def assert_matches_golden(key, result):
    total, iters, ttft_p99, e2e_p99, queue_p99 = PR4_GOLDEN[key]
    assert result.total_time == total
    assert result.iterations == iters
    lat = result.latency
    assert lat is not None
    assert lat.ttft.p99 == ttft_p99
    assert lat.e2e.p99 == e2e_p99
    assert lat.queue_delay.p99 == queue_p99


class TestPR4GoldenEquivalence:
    """--coupled --autoscaler none is bit-exact with the PR 4 output."""

    def run_coupled(self, tiny_model, cluster_a10_4, key, router="static"):
        opts = EngineOptions(coupled=True, autoscaler="none", router=router)
        wl_offline = sharegpt_workload(40, seed=7)
        wl_online = bursty_arrivals(bimodal_workload(32), 8.0, burstiness=8.0, seed=11)
        if key == "vllm-offline":
            return VllmLikeEngine(
                tiny_model, cluster_a10_4, parse_config("D2T2"), opts
            ).run(wl_offline)
        if key in ("vllm-online", "vllm-online-jsq"):
            return VllmLikeEngine(
                tiny_model, cluster_a10_4, parse_config("D2T2"), opts
            ).run(wl_online)
        if key == "decode-prioritized":
            return DecodePrioritizedEngine(
                tiny_model, cluster_a10_4, parse_config("D2T2"), opts
            ).run(wl_offline)
        if key == "seesaw":
            cp, cd = parse_transition("D2P2->D2T2")
            return SeesawEngine(
                tiny_model, cluster_a10_4, cp, cd, SeesawOptions(coupled=True)
            ).run(wl_offline)
        if key == "disagg":
            plan = DisaggregationPlan(
                prefill_config=parse_config("D2"), decode_config=parse_config("D2")
            )
            return DisaggregatedEngine(tiny_model, cluster_a10_4, plan, opts).run(
                constant_workload(16, 256, 32)
            )
        raise AssertionError(key)

    @pytest.mark.parametrize(
        "key",
        ["vllm-offline", "vllm-online", "decode-prioritized", "seesaw", "disagg"],
    )
    def test_engine_bit_exact_with_pr4(self, tiny_model, cluster_a10_4, key):
        assert_matches_golden(key, self.run_coupled(tiny_model, cluster_a10_4, key))

    def test_jsq_bit_exact_with_pr4(self, tiny_model, cluster_a10_4):
        result = self.run_coupled(
            tiny_model, cluster_a10_4, "vllm-online-jsq", router="jsq"
        )
        assert_matches_golden("vllm-online-jsq", result)

    def test_no_fleet_stats_without_autoscaler(self, tiny_model, cluster_a10_4):
        result = self.run_coupled(tiny_model, cluster_a10_4, "vllm-offline")
        assert result.router is not None
        assert result.router.fleet is None  # fixed fleet reports as before


def make_fleet(engine, initial_dp=2, **kw):
    return ReplicaFleet(engine, initial_dp, RouterContext(), **kw)


class TestLifecycle:
    def test_provisioning_pays_weight_load_and_warmup(
        self, tiny_model, cluster_a10_4
    ):
        engine = VllmLikeEngine(tiny_model, cluster_a10_4, parse_config("T2"))
        weight_s, warm_s = provision_times(engine)
        assert weight_s > 0 and warm_s > 0
        fleet = make_fleet(engine, initial_dp=1, autoscaler_name="threshold")
        assert fleet.scale_up(now=10.0, n=1) == 1
        handle = fleet.handles[1]
        assert handle.state is ReplicaLifecycle.PROVISIONING
        # Not yet due: weights still streaming.
        fleet.poll(10.0 + weight_s / 2)
        assert handle.state is ReplicaLifecycle.PROVISIONING
        fleet.poll(10.0 + weight_s + warm_s / 2)
        assert handle.state is ReplicaLifecycle.WARMING
        assert len(fleet.dispatch_loads()) == 1  # not dispatchable yet
        fleet.poll(10.0 + weight_s + warm_s)
        assert handle.state is ReplicaLifecycle.ACTIVE
        assert handle.active_at == pytest.approx(10.0 + weight_s + warm_s)
        assert handle.sim is not None
        assert handle.sim.clock == handle.active_at  # born on the shared clock
        assert len(fleet.dispatch_loads()) == 2
        kinds = [e.kind for e in fleet.events]
        assert kinds == ["scale-up", "active"]

    def test_initial_fleet_is_prewarmed_at_t0(self, tiny_model, cluster_a10_4):
        engine = VllmLikeEngine(tiny_model, cluster_a10_4, parse_config("D2T2"))
        fleet = make_fleet(engine, initial_dp=2)
        assert fleet.active_count == 2
        assert all(h.active_at == 0.0 for h in fleet.handles)
        assert fleet.events == []  # the starting fleet is not a scale event

    def test_max_dp_bounded_by_cluster_gpus(self, tiny_model, cluster_a10_4):
        engine = VllmLikeEngine(tiny_model, cluster_a10_4, parse_config("T2"))
        with pytest.raises(ConfigurationError):
            make_fleet(engine, initial_dp=1, max_dp=3)  # 3 * 2 GPUs > 4

    def test_scale_down_never_drains_last_active(self, tiny_model, cluster_a10_4):
        engine = VllmLikeEngine(tiny_model, cluster_a10_4, parse_config("T2"))
        fleet = make_fleet(engine, initial_dp=2, min_dp=1, autoscaler_name="threshold")
        assert fleet.scale_down(now=1.0, n=5) == 1
        assert fleet.active_count == 1
        assert fleet.scale_down(now=2.0, n=1) == 0


class TestKeptLifecycleCounts:
    """The fleet's count views read per-state counts kept where handles
    are created and transition; a recount of the handles is their oracle,
    here and in simsan's S6."""

    @staticmethod
    def fleet(tiny_model, san):
        engine = VllmLikeEngine(
            tiny_model, make_cluster("A10", 16), parse_config("T2")
        )
        engine.hooks = RunHooks(sanitize=san)
        return make_fleet(
            engine, initial_dp=2, min_dp=1, max_dp=8, autoscaler_name="threshold",
            start=lambda rid, t: (_FluidReplica(rid, t, 1.0),) * 2,
        )

    @pytest.mark.parametrize("seed", range(5))
    def test_counts_match_recount_over_random_walks(self, tiny_model, seed):
        san = Sanitizer()
        fleet = self.fleet(tiny_model, san)
        rng = random.Random(seed)
        step = fleet.weight_load_s + fleet.kv_warmup_s
        now = 0.0
        seen = set()
        for _ in range(300):
            now += rng.uniform(0.0, step)
            op = rng.choice(("up", "poll", "down", "reap", "busy", "resize"))
            if op == "up":
                fleet.scale_up(now, rng.randint(1, 3))
            elif op == "poll":
                fleet.poll(now)
            elif op == "down":
                fleet.scale_down(now, rng.randint(1, 3))
            elif op == "reap":
                fleet.reap_drained(now)
            elif op == "busy":
                # Work that outlives a drain order keeps a replica draining.
                for h in fleet.active_handles():
                    h.sim.decode_done = now + rng.uniform(0.0, 3.0 * step)
            else:
                fleet.resize_to(rng.randint(1, fleet.max_dp), now)
            counts = {
                state: sum(h.state is state for h in fleet.handles)
                for state in ReplicaLifecycle
            }
            assert fleet.active_count == counts[ReplicaLifecycle.ACTIVE]
            provisioning = (
                counts[ReplicaLifecycle.PROVISIONING]
                + counts[ReplicaLifecycle.WARMING]
            )
            assert fleet.provisioning_count == provisioning
            assert fleet.draining_count == counts[ReplicaLifecycle.DRAINING]
            assert fleet.target_count == fleet.active_count + fleet.provisioning_count
            seen.update(state for state, k in counts.items() if k)
        assert seen == set(ReplicaLifecycle)
        assert san.checks["S6"] > 0

    def test_state_written_around_transition_fails_s6(self, tiny_model):
        fleet = self.fleet(tiny_model, Sanitizer())
        fleet.handles[1].state = ReplicaLifecycle.DRAINING  # not via _transition
        fleet.scale_up(1.0, 1)
        due = fleet.next_transition_at()
        with pytest.raises(SanitizerError, match="kept lifecycle counts") as exc:
            fleet.poll(due)
        assert exc.value.rule == "S6"
        assert exc.value.replica == 2
        assert exc.value.time == due


class TestDrainSemantics:
    def test_draining_replica_gets_no_new_dispatches_and_finishes_inflight(
        self, tiny_model, cluster_a10_4
    ):
        """The drain contract: no new work in, everything already
        dispatched (admitted or still pending) completes and is counted."""
        engine = VllmLikeEngine(
            tiny_model,
            cluster_a10_4,
            parse_config("D2T2"),
            EngineOptions(coupled=True, router="jsq", autoscaler="threshold",
                          min_dp=1, max_dp=2),
        )
        reqs = [Request(i, 256, 8, arrival_time=0.1 * i) for i in range(12)]
        sim = ClusterSimulator(engine, reqs)
        fleet = sim.fleet
        # Load both replicas; the lighter one (replica 1) is the drain
        # victim and still holds in-flight work when the order lands.
        for r in reqs[:3]:
            fleet.handles[0].sim.inject(r)
        victim = fleet.handles[1]
        assert victim.sim is not None
        victim.sim.inject(reqs[3])
        victim.sim.inject(reqs[4])
        fleet.scale_down(0.0, 1)
        assert victim.state is ReplicaLifecycle.DRAINING
        assert len(fleet.dispatch_loads()) == 1
        assert fleet.dispatch_loads()[0].replica_id == 0
        # The draining replica still owns and executes its backlog.
        for s in fleet.live_sims():
            s.finish()
        fleet.reap_drained()
        assert victim.state is ReplicaLifecycle.STOPPED
        assert len(victim.sim.state.finished) == 2
        assert victim.stopped_at == victim.sim.clock
        assert victim.sim.clock > 0

    def test_drained_requests_counted_in_cluster_result(
        self, tiny_model, cluster_a10_4
    ):
        """End-to-end: a run that scales down mid-flight loses no request
        (every arrival is served and appears in the merged latency)."""
        engine = VllmLikeEngine(
            tiny_model,
            cluster_a10_4,
            parse_config("D2T2"),
            EngineOptions(coupled=True, router="jsq", autoscaler="threshold",
                          min_dp=1, max_dp=2),
        )
        wl = diurnal_arrivals(constant_workload(60, 512, 16), 6.0, 8.0, seed=2)
        result = engine.run(wl)
        assert result.num_requests == 60
        assert result.latency is not None
        assert result.latency.num_requests == 60

    def test_idle_draining_replica_stops_at_drain_order(
        self, tiny_model, cluster_a10_4
    ):
        engine = VllmLikeEngine(tiny_model, cluster_a10_4, parse_config("D2T2"))
        fleet = make_fleet(engine, initial_dp=2, min_dp=1,
                           autoscaler_name="threshold")
        fleet.scale_down(5.0, 1)
        stopped = [h for h in fleet.handles
                   if h.state is ReplicaLifecycle.STOPPED]
        assert len(stopped) == 1
        assert stopped[0].stopped_at == 5.0


class TestPartialLifetimeAccounting:
    def test_idle_fraction_normalized_by_active_window(
        self, tiny_model, cluster_a10_4
    ):
        """A replica alive for a fraction of the run must not have its
        idle share diluted by time it did not exist."""
        engine = VllmLikeEngine(tiny_model, cluster_a10_4, parse_config("T2"))
        fleet = make_fleet(engine, initial_dp=1, max_dp=2,
                           autoscaler_name="threshold")
        fleet.scale_up(0.0, 1)
        late = fleet.handles[1]
        fleet.poll(late.active_at)
        assert late.state is ReplicaLifecycle.ACTIVE
        makespan = late.active_at + 10.0
        # Replica 1 never ran anything: idle for its whole (short) window.
        fractions = fleet.idle_fractions(makespan)
        assert fractions[1] == pytest.approx(1.0)
        # Fleet stats bill it from provisioning start, not activation.
        stats = fleet.stats(makespan)
        assert stats.replica_seconds == pytest.approx(makespan + makespan)
        assert stats.active_replica_seconds == pytest.approx(makespan + 10.0)
        assert stats.peak_dp == 2
        assert 1.0 < stats.mean_dp < 2.0
        assert stats.provision_seconds == pytest.approx(late.active_at)

    def test_latency_merge_rejects_duplicate_requests(self):
        rec = RequestLatency(
            request_id=7,
            arrival_time=0.0,
            first_schedule_time=0.1,
            first_token_time=0.2,
            finish_time=0.3,
            output_len=4,
        )
        part = LatencyStats.from_records((rec,))
        with pytest.raises(SimulationError):
            LatencyStats.merged([part, part])

    def test_makespan_covers_early_drained_replicas(
        self, tiny_model, cluster_a10_4
    ):
        """merge total_time is the cluster makespan even when the replica
        that finished last is not the one with the most work."""
        engine = VllmLikeEngine(
            tiny_model,
            cluster_a10_4,
            parse_config("D2T2"),
            EngineOptions(coupled=True, router="jsq", autoscaler="threshold",
                          min_dp=1, max_dp=2),
        )
        wl = diurnal_arrivals(constant_workload(48, 512, 16), 6.0, 8.0, seed=3)
        result = engine.run(wl)
        sim_makespan = result.total_time
        assert result.latency is not None
        last_finish = max(r.finish_time for r in result.latency.records)
        assert sim_makespan >= last_finish - 1e-9


class TestAutoscalers:
    def ctx(self):
        return RouterContext(prefill_tokens_per_s=1000.0, decode_tokens_per_s=500.0)

    def test_threshold_scales_up_on_queue_depth(self, tiny_model, cluster_a10_4):
        engine = VllmLikeEngine(tiny_model, cluster_a10_4, parse_config("T2"))
        fleet = make_fleet(engine, initial_dp=1, max_dp=2,
                           autoscaler_name="threshold")
        scaler = ThresholdAutoscaler(1, 2, up_queue_tokens=100.0, interval_s=1.0)
        # Pile unadmitted work on the only replica: queue above threshold.
        sim = fleet.handles[0].sim
        for i in range(4):
            sim.inject(Request(i, 200, 4, arrival_time=50.0))
        target = scaler.decide(10.0, fleet)
        assert target == 2

    def test_threshold_scales_down_when_idle(self, tiny_model, cluster_a10_4):
        engine = VllmLikeEngine(tiny_model, cluster_a10_4, parse_config("D2T2"))
        fleet = make_fleet(engine, initial_dp=2, min_dp=1,
                           autoscaler_name="threshold")
        scaler = ThresholdAutoscaler(1, 2, up_queue_tokens=100.0, interval_s=1.0)
        assert scaler.decide(0.0, fleet) is None  # anchors the window
        # Nothing ran for 20 virtual seconds: both replicas fully idle.
        target = scaler.decide(20.0, fleet)
        assert target == 1

    def test_threshold_startup_window_never_drains(self, tiny_model, cluster_a10_4):
        """Regression: the [activation, first-arrival) window is trivially
        100% idle on any fleet; the idle signal must not vote until a
        replica's window spans a full evaluation interval — otherwise a
        loaded fleet drains a replica at the first arrival and has to pay
        provisioning latency to claw it back."""
        engine = VllmLikeEngine(tiny_model, cluster_a10_4, parse_config("D2T2"))
        fleet = make_fleet(engine, initial_dp=2, min_dp=1,
                           autoscaler_name="threshold")
        scaler = ThresholdAutoscaler(1, 2, up_queue_tokens=100.0, interval_s=5.0)
        # First evaluation lands just after t=0 (the first arrival): the
        # startup window is degenerate, so no scale-down.
        assert scaler.decide(0.17, fleet) is None
        # A later evaluation over a mature, genuinely idle window may act.
        assert scaler.decide(20.0, fleet) == 1

    def test_predictive_right_sizes_with_erlang_c(self, tiny_model, cluster_a10_4):
        engine = VllmLikeEngine(tiny_model, cluster_a10_4, parse_config("T2"))
        fleet = make_fleet(engine, initial_dp=1, max_dp=2,
                           autoscaler_name="predictive")
        scaler = PredictiveAutoscaler(
            1, 4, capacity_rps_per_replica=1.0, prefill_latency_s=0.1,
            ttft_slo=2.0, window=8, interval_s=0.5,
        )
        # ~2.5 req/s offered against 1 req/s per replica: needs >= 3.
        for k in range(8):
            scaler.note_arrival(k * 0.4)
        target = scaler.decide(8 * 0.4, fleet)
        assert target is not None and target >= 3
        # A trickle needs only the floor.
        slow = PredictiveAutoscaler(
            1, 4, capacity_rps_per_replica=1.0, prefill_latency_s=0.1,
            ttft_slo=2.0, window=8, interval_s=0.5,
        )
        for k in range(8):
            slow.note_arrival(k * 10.0)
        assert slow.decide(80.0, fleet) == 1

    def test_predictive_without_slo_bounds_utilization(
        self, tiny_model, cluster_a10_4
    ):
        engine = VllmLikeEngine(tiny_model, cluster_a10_4, parse_config("T2"))
        fleet = make_fleet(engine, initial_dp=1, max_dp=2,
                           autoscaler_name="predictive")
        scaler = PredictiveAutoscaler(
            1, 4, capacity_rps_per_replica=1.0, ttft_slo=None,
            window=8, interval_s=0.5,
        )
        for k in range(8):
            scaler.note_arrival(k * 0.5)  # 2 req/s
        # 2 rps at 0.8 max utilization needs ceil(2 / 0.8) = 3 replicas.
        assert scaler.decide(4.0, fleet) == 3

    def test_make_autoscaler_none_returns_none(self):
        assert make_autoscaler(
            "none", 1, 2, up_queue_tokens=1.0, capacity_rps_per_replica=1.0
        ) is None
        with pytest.raises(ConfigurationError):
            make_autoscaler(
                "bogus", 1, 2, up_queue_tokens=1.0, capacity_rps_per_replica=1.0
            )


class TestOptionsValidation:
    def test_autoscaler_requires_coupled(self):
        with pytest.raises(ConfigurationError):
            EngineOptions(autoscaler="threshold")

    def test_unknown_autoscaler_rejected(self):
        with pytest.raises(ConfigurationError):
            EngineOptions(autoscaler="bogus", coupled=True)

    def test_min_dp_above_max_dp_rejected(self):
        with pytest.raises(ConfigurationError):
            EngineOptions(
                autoscaler="threshold", coupled=True, min_dp=4, max_dp=2
            )

    def test_nonpositive_dp_bounds_rejected(self):
        with pytest.raises(ConfigurationError):
            EngineOptions(autoscaler="threshold", coupled=True, min_dp=0)
        with pytest.raises(ConfigurationError):
            EngineOptions(autoscaler="threshold", coupled=True, max_dp=-1)

    def test_dp_bounds_without_autoscaler_rejected(self):
        """--min-dp/--max-dp would be silent no-ops on a fixed fleet;
        they must be rejected instead of ignored."""
        with pytest.raises(ConfigurationError):
            EngineOptions(coupled=True, min_dp=2)
        with pytest.raises(ConfigurationError):
            EngineOptions(coupled=True, max_dp=4)


class TestElasticEndToEnd:
    def test_fleet_scales_up_under_ramp(self):
        """Under a diurnal ramp the fleet provisions extra replicas, the
        membership events are logged, and every request is served."""
        model = get_model("15b")
        from repro.hardware.cluster import make_cluster

        cluster = make_cluster("A10", 8)
        wl = diurnal_arrivals(constant_workload(80, 2048, 64), 2.2, 25.0, seed=0)
        result = VllmLikeEngine(
            model,
            cluster,
            parse_config("T2"),
            EngineOptions(coupled=True, router="jsq", autoscaler="threshold",
                          min_dp=1, max_dp=4),
        ).run(wl)
        stats = result.router
        assert stats is not None and stats.fleet is not None
        fleet = stats.fleet
        assert fleet.scale_ups >= 1
        assert fleet.peak_dp >= 2
        assert fleet.num_handles == len(stats.requests_per_replica)
        assert result.num_requests == 80
        assert any(e.kind == "active" for e in fleet.events)
        # Activations happen strictly after their scale-up decision (the
        # provisioning latency is real).
        ups = {e.replica_id: e.time for e in fleet.events if e.kind == "scale-up"}
        for e in fleet.events:
            if e.kind == "active":
                assert e.time > ups[e.replica_id]

    def test_static_policy_round_robins_over_active_membership(
        self, tiny_model, cluster_a10_4
    ):
        """The static deal keeps working when membership changes size."""
        wl = diurnal_arrivals(constant_workload(40, 256, 8), 8.0, 10.0, seed=1)
        result = VllmLikeEngine(
            tiny_model,
            cluster_a10_4,
            parse_config("T2"),
            EngineOptions(coupled=True, router="static", autoscaler="threshold",
                          min_dp=1, max_dp=2),
        ).run(wl)
        assert result.num_requests == 40


class TestAutoscaleSweepAcceptance:
    @pytest.fixture(scope="class")
    def sweep(self):
        return run_autoscale_sweep(num_requests=240, seed=0)

    def test_autoscaled_matches_slo_at_25pct_fewer_replica_seconds(self, sweep):
        """Acceptance: at least one autoscaled fleet matches (or beats)
        the peak-provisioned fleet's p99-TTFT SLO attainment at >= 25%
        fewer replica-seconds."""
        wins = sweep.elastic_wins()
        assert wins, "no autoscaler matched the static fleet at -25% replica-s"
        base = sweep.static_peak
        for win in wins:
            assert win.attainment(sweep.ttft_slo) >= base.attainment(sweep.ttft_slo)
            assert win.replica_seconds <= 0.75 * base.replica_seconds

    def test_predictive_beats_static_on_goodput_per_replica_second(self, sweep):
        base = sweep.static_peak
        pred = sweep.point("predictive")
        assert (
            pred.goodput_per_replica_second(sweep.ttft_slo)
            > base.goodput_per_replica_second(sweep.ttft_slo)
        )

    def test_render_includes_fleet_columns(self, sweep):
        from repro.experiments.autoscale_sweep import render_autoscale_sweep

        out = render_autoscale_sweep(sweep)
        assert "replica-s" in out and "static-peak" in out
        assert "predictive" in out and "slo-att" in out


class TestFleetReport:
    def test_fleet_table_renders_static_and_elastic_rows(
        self, tiny_model, cluster_a10_4
    ):
        from repro.analysis.report import fleet_table

        wl = diurnal_arrivals(constant_workload(40, 256, 8), 8.0, 10.0, seed=1)
        static = VllmLikeEngine(
            tiny_model, cluster_a10_4, parse_config("D2T2"),
            EngineOptions(coupled=True),
        ).run(wl)
        elastic = VllmLikeEngine(
            tiny_model, cluster_a10_4, parse_config("T2"),
            EngineOptions(coupled=True, router="jsq", autoscaler="threshold",
                          min_dp=1, max_dp=2),
        ).run(wl)
        out = fleet_table(
            {"static": static, "elastic": elastic}, ttft_slo=5.0
        )
        assert "peak-dp" in out and "replica-s" in out
        assert "threshold" in out and "none" in out

    def test_fleet_table_raises_without_router_stats(self):
        from repro.analysis.report import fleet_table
        from repro.runtime.metrics import EngineResult

        bare = EngineResult(
            engine="x", label="y", num_requests=1, total_time=1.0,
            input_tokens=1, output_tokens=1, phase_time={}, breakdown=None,
            iterations=1, transitions=0,
        )
        with pytest.raises(ConfigurationError):
            fleet_table({"bare": bare})


class TestSimulatorFleetIntegration:
    def test_dispatch_log_tracks_membership_size(
        self, tiny_model, cluster_a10_4, monkeypatch
    ):
        """The queue depths the router sees at each decision cover the
        dispatchable membership, which may grow over the run."""
        depth_log: list[tuple[float, ...]] = []
        select = JSQRouter.select

        def recording_select(self, request, index, now):
            depth_log.append(
                tuple(load.queued_prefill_tokens(now) for load in self.loads)
            )
            return select(self, request, index, now)

        monkeypatch.setattr(JSQRouter, "select", recording_select)
        wl = diurnal_arrivals(constant_workload(40, 256, 8), 8.0, 10.0, seed=1)
        engine = VllmLikeEngine(
            tiny_model,
            cluster_a10_4,
            parse_config("T2"),
            EngineOptions(coupled=True, router="jsq", autoscaler="threshold",
                          min_dp=1, max_dp=2),
        )
        ClusterSimulator(engine, list(wl.requests)).run()
        assert len(depth_log) == wl.num_requests
        sizes = {len(depths) for depths in depth_log}
        assert 1 in sizes  # started at min_dp
        assert all(1 <= s <= 2 for s in sizes)

    def test_next_event_inf_for_unborn_replica(self, tiny_model, cluster_a10_4):
        engine = VllmLikeEngine(tiny_model, cluster_a10_4, parse_config("T2"))
        fleet = make_fleet(engine, initial_dp=1, max_dp=2,
                           autoscaler_name="threshold")
        fleet.scale_up(0.0, 1)
        # The provisioning handle has no sim yet: not in the live set.
        assert len(list(fleet.live_sims())) == 1
        assert math.isinf(fleet.handles[0].sim.next_event_time())


def run_fidelity(fidelity, config, wl, hooks=None, **kw):
    """A 15b JSQ fleet on 8xA10 at either fidelity tier."""
    return VllmLikeEngine(
        get_model("15b"),
        make_cluster("A10", 8),
        parse_config(config),
        EngineOptions(coupled=True, router="jsq", fidelity=fidelity, **kw),
    ).run(wl, hooks)


class TestSharedLifecycleRules:
    """Both fidelity tiers run their replicas through one ReplicaFleet,
    so its sizing, stop and accounting rules hold at both."""

    @pytest.mark.parametrize("fidelity", ["event", "fluid"])
    def test_max_dp_beyond_cluster_rejected(self, fidelity):
        wl = diurnal_arrivals(constant_workload(20, 512, 8), 2.0, 20.0, seed=0)
        with pytest.raises(ConfigurationError, match="max_dp 6 needs 12 GPUs"):
            run_fidelity(fidelity, "T2", wl, autoscaler="threshold", max_dp=6)

    @pytest.mark.parametrize("fidelity", ["event", "fluid"])
    def test_max_dp_defaults_to_cluster_capacity(self, fidelity):
        # One T2 replica on 8 GPUs: the cluster holds four, and a fleet
        # with no max_dp may grow to all of them.
        wl = diurnal_arrivals(constant_workload(300, 2048, 16), 12.0, 30.0, seed=3)
        result = run_fidelity(fidelity, "T2", wl, autoscaler="threshold")
        fleet = result.router.fleet
        assert fleet.max_dp == 4
        assert fleet.scale_ups > 0

    @pytest.mark.parametrize("fidelity", ["event", "fluid"])
    def test_drained_replica_stops_after_its_drain_order(self, fidelity):
        wl = diurnal_arrivals(constant_workload(400, 1024, 32), 1.0, 120.0, seed=0)
        san = Sanitizer()
        result = run_fidelity(
            fidelity, "D4T2", wl, hooks=RunHooks(sanitize=san),
            autoscaler="threshold", min_dp=1, max_dp=4,
        )
        events = result.router.fleet.events
        drained_at = {e.replica_id: e.time for e in events if e.kind == "scale-down"}
        stops = [e for e in events if e.kind == "stopped"]
        assert drained_at and len(stops) == len(drained_at)
        for e in stops:
            assert e.time >= drained_at[e.replica_id], e
        # Every lifecycle edge, the stops included, went through simsan.
        assert san.checks["S6"] >= 2 * 4 + 2 * len(stops)


class TestEndOfRunActivation:
    def test_scale_up_due_after_last_arrival_counts_as_active(self):
        """Arrivals are the only instants the loop polls the fleet: a
        replica that finishes warming between the last arrival and the
        makespan must still join the accounting it is billed in."""
        burst = [Request(i, 2048, 16, arrival_time=10.0) for i in range(1, 41)]
        reqs = [Request(0, 256, 8, arrival_time=0.0), *burst,
                Request(41, 256, 8, arrival_time=15.0)]
        result = run_fidelity(
            "event", "T2", reqs, autoscaler="threshold", min_dp=1, max_dp=2
        )
        fleet = result.router.fleet
        assert fleet.scale_ups == 1
        late = [e for e in fleet.events if e.kind == "active"]
        assert len(late) == 1
        assert 15.0 < late[0].time < result.total_time
        assert fleet.peak_dp == 2
        assert fleet.mean_dp > 1.0
        assert result.router.idle_fraction[late[0].replica_id] == 1.0
        assert fleet.active_replica_seconds == pytest.approx(
            2 * result.total_time - late[0].time
        )
