"""The event-coupled cluster simulator.

Contracts pinned by this PR:

1. **Golden equivalence** — ``coupled=True`` with the ``static`` policy
   reproduces the decoupled per-replica results bit-exactly on offline
   (t=0) workloads, for every engine (the replica event loops are the
   same generators, so totals, phase times, iteration counts and latency
   records all match).
2. **Observed JSQ property** — the coupled ``jsq`` policy never
   dispatches to a replica showing strictly more observed queued prefill
   tokens than another replica at the decision instant.
3. **Stepping interface** — ``start_replica`` exposes
   ``next_event_time()`` / ``advance(until)`` / ``inject`` with a
   monotone clock and event-at-a-time execution.
4. **Observed storms** — measured preemptions re-dispatch still-pending
   requests to a calm replica.
5. **Acceptance** — ``coupled_sweep`` shows observed-load routing
   beating its decoupled counterpart under bursty arrivals on at least
   one swept load point.
"""

import math

import pytest

from repro.cluster import ClusterSimulator
from repro.core.engine import SeesawEngine
from repro.core.options import SeesawOptions
from repro.engines.base import EngineOptions
from repro.engines.decode_prioritized import DecodePrioritizedEngine
from repro.engines.disaggregated import DisaggregatedEngine, DisaggregationPlan
from repro.engines.vllm_like import VllmLikeEngine
from repro.experiments.coupled_sweep import run_coupled_sweep
from repro.models.registry import get_model
from repro.parallel.config import parse_config, parse_transition
from repro.routing.policies import DEFAULT_STORM_PREEMPTIONS, JSQRouter
from repro.runtime.request import Request
from repro.workloads.arrivals import bursty_arrivals, poisson_arrivals
from repro.workloads.datasets import sharegpt_workload
from repro.workloads.synthetic import bimodal_workload, constant_workload


def assert_identical(decoupled, coupled):
    assert coupled.total_time == decoupled.total_time
    assert coupled.phase_time == decoupled.phase_time
    assert coupled.iterations == decoupled.iterations
    assert coupled.transitions == decoupled.transitions
    assert coupled.num_requests == decoupled.num_requests
    assert (coupled.latency is None) == (decoupled.latency is None)
    if coupled.latency is not None:
        for attr in ("ttft", "e2e", "queue_delay"):
            assert getattr(coupled.latency, attr).p99 == getattr(
                decoupled.latency, attr
            ).p99
    assert coupled.router is not None and coupled.router.coupled


class TestGoldenEquivalence:
    """--coupled + static == the decoupled path, engine by engine."""

    def run_pair(self, make_engine, workload):
        return (
            make_engine(EngineOptions(coupled=False)).run(workload),
            make_engine(EngineOptions(coupled=True)).run(workload),
        )

    def test_vllm_dp_offline(self, tiny_model, cluster_a10_4):
        wl = sharegpt_workload(40, seed=7)
        dec, cpl = self.run_pair(
            lambda o: VllmLikeEngine(tiny_model, cluster_a10_4, parse_config("D2T2"), o),
            wl,
        )
        assert_identical(dec, cpl)

    def test_vllm_chunked_offline(self, tiny_model, cluster_a10_4):
        wl = sharegpt_workload(40, seed=7)
        mk = lambda c: VllmLikeEngine(
            tiny_model,
            cluster_a10_4,
            parse_config("D2T2"),
            EngineOptions(coupled=c, chunked_prefill=True, chunk_size=512),
        )
        assert_identical(mk(False).run(wl), mk(True).run(wl))

    def test_decode_prioritized_offline(self, tiny_model, cluster_a10_4):
        wl = sharegpt_workload(40, seed=7)
        dec, cpl = self.run_pair(
            lambda o: DecodePrioritizedEngine(
                tiny_model, cluster_a10_4, parse_config("D2T2"), o
            ),
            wl,
        )
        assert_identical(dec, cpl)

    def test_seesaw_offline(self, tiny_model, cluster_a10_4):
        self.check_seesaw(tiny_model, cluster_a10_4, sharegpt_workload(40, seed=7))

    def test_seesaw_single_token_offline(self, tiny_model, cluster_a10_4):
        """Single-token outputs all finish before the prefill pipeline
        drains; the coupled replica still runs its event loop's tail."""
        self.check_seesaw(tiny_model, cluster_a10_4, constant_workload(16, 256, 1))

    def check_seesaw(self, model, cluster, wl):
        cp, cd = parse_transition("D2P2->D2T2")
        mk = lambda c: SeesawEngine(model, cluster, cp, cd, SeesawOptions(coupled=c))
        assert_identical(mk(False).run(wl), mk(True).run(wl))

    def test_disaggregated_offline(self, tiny_model, cluster_a10_4):
        wl = constant_workload(16, 256, 32)
        plan = DisaggregationPlan(
            prefill_config=parse_config("D2"), decode_config=parse_config("D2")
        )
        mk = lambda c: DisaggregatedEngine(
            tiny_model, cluster_a10_4, plan, EngineOptions(coupled=c)
        )
        assert_identical(mk(False).run(wl), mk(True).run(wl))

    def test_disaggregated_single_token(self, tiny_model, cluster_a10_4):
        """Single-token outputs leave the decode pool no work; the coupled
        pool still ends at the decoupled pool's positive-time floor."""
        wl = constant_workload(16, 256, 1)
        plan = DisaggregationPlan(
            prefill_config=parse_config("D2"), decode_config=parse_config("D2")
        )
        mk = lambda c: DisaggregatedEngine(
            tiny_model, cluster_a10_4, plan, EngineOptions(coupled=c)
        )
        assert_identical(mk(False).run(wl), mk(True).run(wl))

    def test_vllm_static_online_equivalent(self, tiny_model, cluster_a10_4):
        """Static membership is index-based, so even under live arrivals
        coupled co-simulation reproduces the decoupled replica runs."""
        wl = bursty_arrivals(bimodal_workload(32), 8.0, burstiness=8.0, seed=11)
        dec, cpl = self.run_pair(
            lambda o: VllmLikeEngine(tiny_model, cluster_a10_4, parse_config("D2T2"), o),
            wl,
        )
        assert_identical(dec, cpl)

    def test_single_replica_coupled(self, tiny_model, cluster_a10_4):
        wl = poisson_arrivals(constant_workload(12, 256, 16), 4.0, seed=1)
        dec, cpl = self.run_pair(
            lambda o: VllmLikeEngine(tiny_model, cluster_a10_4, parse_config("T2"), o),
            wl,
        )
        assert_identical(dec, cpl)


def record_jsq_decisions(monkeypatch) -> list[tuple[dict[int, float], int]]:
    """Wrap ``JSQRouter.select`` to record, per decision, the observed
    queued-prefill depth of every candidate replica and the pick."""
    decisions: list[tuple[dict[int, float], int]] = []
    select = JSQRouter.select

    def recording_select(self, request, index, now):
        depths = {load.replica_id: load.queued_prefill_tokens(now) for load in self.loads}
        rid = select(self, request, index, now)
        decisions.append((depths, rid))
        return rid

    monkeypatch.setattr(JSQRouter, "select", recording_select)
    return decisions


class TestObservedJSQ:
    def test_never_picks_a_strictly_longer_queue(
        self, tiny_model, cluster_a10_4, monkeypatch
    ):
        """Property: every coupled-jsq dispatch goes to a replica whose
        observed queued-prefill depth is minimal at that instant."""
        decisions = record_jsq_decisions(monkeypatch)
        wl = bursty_arrivals(bimodal_workload(48), 10.0, burstiness=8.0, seed=3)
        engine = VllmLikeEngine(
            tiny_model,
            cluster_a10_4,
            parse_config("D2T2"),
            EngineOptions(coupled=True, router="jsq"),
        )
        ClusterSimulator(engine, list(wl.requests)).run()
        assert len(decisions) == wl.num_requests  # one per dispatch
        for depths, rid in decisions:
            assert depths[rid] <= min(depths.values()) + 1e-9

    def test_jsq_flattens_token_imbalance_vs_static(self, tiny_model, cluster_a10_4):
        """On the round-robin-adversarial bimodal workload the observed
        jsq spreads dispatched tokens more evenly than the static deal."""
        wl = bursty_arrivals(bimodal_workload(48), 10.0, burstiness=8.0, seed=3)
        run = lambda policy: VllmLikeEngine(
            tiny_model,
            cluster_a10_4,
            parse_config("D2T2"),
            EngineOptions(coupled=True, router=policy),
        ).run(wl)
        static = run("static").router
        jsq = run("jsq").router
        assert jsq is not None and static is not None
        assert jsq.token_imbalance <= static.token_imbalance


class TestSteppingInterface:
    def test_replica_sim_steps_and_injects(self, tiny_model, cluster_a10_4):
        engine = VllmLikeEngine(tiny_model, cluster_a10_4, parse_config("T2"))
        sim = engine.start_replica(0)
        assert math.isinf(sim.next_event_time())  # nothing injected yet
        sim.inject(Request(0, 256, 8, arrival_time=1.0))
        assert sim.next_event_time() == 1.0
        sim.advance(0.5)
        assert sim.clock == 0.0  # arrival still in the future
        sim.advance(2.0)
        assert sim.clock >= 1.0  # idle jump + first iterations executed
        # A later arrival re-arms the loop after exhaustion.
        sim.finish()
        drained_clock = sim.clock
        assert math.isinf(sim.next_event_time())
        sim.inject(Request(1, 256, 8, arrival_time=drained_clock + 5.0))
        assert sim.next_event_time() == pytest.approx(drained_clock + 5.0)
        sim.finish()
        assert sim.clock > drained_clock + 5.0
        assert len(sim.state.finished) == 2
        assert sim.idle_time() > 0  # both arrival gaps were slept through

    def test_clock_monotone_under_advance(self, tiny_model, cluster_a10_4):
        engine = VllmLikeEngine(tiny_model, cluster_a10_4, parse_config("T2"))
        sim = engine.start_replica(0)
        for i, t in enumerate((0.0, 0.1, 0.5, 2.0)):
            sim.advance(t)
            sim.inject(Request(i, 512, 16, arrival_time=t))
        clocks = []
        while not math.isinf(sim.next_event_time()):
            sim._step()
            clocks.append(sim.clock)
        assert clocks == sorted(clocks)


class TestObservedStorms:
    def test_redispatch_moves_pending_to_calm_replica(
        self, tiny_model, cluster_a10_4
    ):
        """A replica whose *measured* preemption count crossed the storm
        threshold loses every request its scheduler has not yet seen."""
        reqs = [
            Request(i, 200, 4, arrival_time=float(i)) for i in range(6)
        ]
        engine = VllmLikeEngine(
            tiny_model,
            cluster_a10_4,
            parse_config("D2T2"),
            EngineOptions(coupled=True, router="jsq"),
        )
        sim = ClusterSimulator(engine, reqs)
        src = sim.sims[0]
        for r in reqs[:3]:
            src.inject(r)
        # Mark the replica as storming via the engines' measured counter.
        src.state.metrics.preemptions = DEFAULT_STORM_PREEMPTIONS
        moved = sim._redispatch_storms(0.0)
        assert moved == 3
        assert not src.state.pending
        assert not src.state.requests
        target = sim.sims[1]
        assert len(target.state.requests) == 3
        assert target.redispatched_in == 3
        # The watermark reset: the same preemptions do not re-trigger.
        assert sim._redispatch_storms(0.0) == 0

    def test_static_policy_never_redispatches(self, tiny_model, cluster_a10_4):
        wl = bursty_arrivals(bimodal_workload(24), 8.0, burstiness=8.0, seed=5)
        r = VllmLikeEngine(
            tiny_model,
            cluster_a10_4,
            parse_config("D2T2"),
            EngineOptions(coupled=True, router="static"),
        ).run(wl)
        assert r.router is not None
        assert r.router.redispatched_requests == 0


class TestCoupledStats:
    def test_coupled_stats_carried_through_result(self, tiny_model, cluster_a10_4):
        wl = bursty_arrivals(bimodal_workload(24), 8.0, burstiness=8.0, seed=5)
        r = VllmLikeEngine(
            tiny_model,
            cluster_a10_4,
            parse_config("D2T2"),
            EngineOptions(coupled=True, router="jsq"),
        ).run(wl)
        stats = r.router
        assert stats is not None and stats.coupled
        assert stats.num_requests == 24
        assert stats.idle_fraction is not None
        assert len(stats.idle_fraction) == 2
        assert all(0.0 <= f <= 1.0 for f in stats.idle_fraction)
        assert stats.observed_preemptions is not None
        assert "idle" in stats.describe()

    def test_observed_preemptions_measured_on_pressure(self):
        """A KV-tight DP cell under a long-output burst shows *measured*
        preemptions in the coupled stats (the decoupled ledger predicts
        none here — the gap the coupled router exists to close)."""
        model = get_model("13b")
        from repro.hardware.cluster import make_cluster

        cluster = make_cluster("A10", 8)
        wl = bimodal_workload(40, long_prompt=6144, short_prompt=512, output_len=768)
        online = bursty_arrivals(wl, 0.29, burstiness=10.0, seed=0)
        run = lambda c: VllmLikeEngine(
            model,
            cluster,
            parse_config("D4T2"),
            EngineOptions(coupled=c, router="jsq", router_seed=0),
        ).run(online)
        coupled = run(True)
        decoupled = run(False)
        assert coupled.router is not None and decoupled.router is not None
        assert coupled.router.total_observed_preemptions > 0
        assert decoupled.router.total_predicted_preemptions == 0


class TestCoupledSweepAcceptance:
    def test_observed_routing_beats_planned_on_a_load_point(self):
        """Acceptance: under bursty arrivals, observed-load dispatch wins
        on p99 TTFT or SLO attainment at one swept load point."""
        sweep = run_coupled_sweep(
            policies=("slo",), load_fractions=(1.1,), num_requests=40, seed=0
        )
        wins = sweep.observed_wins()
        assert wins, "coupled slo should beat planned slo at 1.1x load"
        win = wins[0]
        planned = sweep.point(win.load_fraction, win.policy, coupled=False)
        assert (
            win.ttft_p99 < planned.ttft_p99
            or win.attainment(sweep.ttft_slo) > planned.attainment(sweep.ttft_slo)
        )
