"""The multi-replica routing subsystem.

Covers the four contracts the PR pins down:

1. **Golden equivalence** — the ``static`` policy is bit-exact with the
   seed's t=0 round-robin deal, so every pinned golden offline
   number survives (the engines now always route through the router).
2. **JSQ balances** — under a bursty, round-robin-adversarial workload
   JSQ strictly reduces the max/mean queued-prefill-token imbalance and
   the p99 TTFT versus static.
3. **po2 determinism** — the sampled policy is a pure function of its
   seed.
4. **Storm rebalancing** — a replica predicted to thrash its KV cache
   has its still-pending requests re-routed away.
5. **Ledger == oracle ledger** — the ledger of tuple records with inlined
   reads and memoized folds routes exactly like the frozen-dataclass,
   full-rescan ledger kept verbatim below (:class:`OracleReplicaLoad`),
   and least-work dispatch of an offline workload does linear work.
"""

import math
from collections import deque
from dataclasses import dataclass
from typing import Iterator

import pytest

import repro.routing.load as load_mod
import repro.routing.policies as policies
from repro.engines.base import EngineOptions
from repro.engines.vllm_like import VllmLikeEngine
from repro.errors import ConfigurationError
from repro.experiments.routing_sweep import run_routing_sweep
from repro.parallel.config import parse_config
from repro.routing import (
    JSQRouter,
    LeastWorkRouter,
    Po2Router,
    ROUTER_POLICIES,
    ReplicaLoad,
    RouterContext,
    SLORouter,
    StaticRouter,
    make_router,
)
from repro.routing.load import _COMPENSATED_SUM, _EPS, _remaining
from repro.runtime.request import Request
from repro.workloads.arrivals import bursty_arrivals, poisson_arrivals
from repro.workloads.datasets import sharegpt_workload
from repro.workloads.synthetic import bimodal_workload, constant_workload

from golden_offline import scenarios
from test_online_serving import GOLDEN_SEED


def requests_at(arrivals, prompt_len=100, output_len=10):
    return [
        Request(request_id=i, prompt_len=prompt_len, output_len=output_len, arrival_time=t)
        for i, t in enumerate(arrivals)
    ]


def ctx(prefill=1000.0, decode=1000.0, kv=None):
    return RouterContext(
        prefill_tokens_per_s=prefill,
        decode_tokens_per_s=decode,
        kv_capacity_tokens=kv,
    )


class TestConstruction:
    def test_make_router_policies(self):
        for policy in ROUTER_POLICIES:
            router = make_router(policy, 2)
            assert router.name == policy

    def test_unknown_policy_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown router policy"):
            make_router("round-robin", 2)

    def test_engine_options_validate_policy(self):
        with pytest.raises(ConfigurationError, match="unknown router policy"):
            EngineOptions(router="fastest")

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    @pytest.mark.parametrize("field", ["ttft_slo", "tpot_slo"])
    def test_engine_options_reject_non_finite_slo(self, field, bad):
        with pytest.raises(ConfigurationError, match=field):
            EngineOptions(**{field: bad})

    def test_needs_a_replica(self):
        with pytest.raises(ConfigurationError):
            StaticRouter(0)

    def test_empty_request_list_rejected(self):
        with pytest.raises(ConfigurationError):
            StaticRouter(2).route([])


def seed_deal(reqs, num_parts):
    """The seed's t=0 partition: request ``i`` to replica ``i % num_parts``."""
    return [list(reqs[i::num_parts]) for i in range(num_parts)]


class TestStaticEquivalence:
    def test_partitions_match_split_requests_offline(self):
        reqs = requests_at([0.0] * 11)
        plan = StaticRouter(3).route(reqs)
        assert [list(p) for p in plan.partitions] == seed_deal(reqs, 3)

    def test_partitions_match_split_requests_online(self):
        """Membership stays a pure function of the submission index even
        when arrivals are stamped (the seed's deal, made arrival-aware)."""
        wl = poisson_arrivals(constant_workload(20, 100, 10), 5.0, seed=3)
        reqs = list(wl.requests)
        plan = StaticRouter(4, context=ctx()).route(reqs)
        assert [list(p) for p in plan.partitions] == seed_deal(reqs, 4)

    @pytest.mark.parametrize("name", sorted(GOLDEN_SEED))
    def test_explicit_static_router_reproduces_seed_golden(self, name):
        """Acceptance: --router static == the pinned seed numbers for all
        four engines (scenarios default to the static router)."""
        result = scenarios()[name]()
        golden = GOLDEN_SEED[name]
        assert result.total_time == pytest.approx(golden["total_time"], rel=1e-12)
        for phase, seconds in golden["phase_time"].items():
            assert result.phase_time[phase] == pytest.approx(seconds, rel=1e-12)

    def test_static_option_is_the_default_and_identical(
        self, tiny_model, cluster_a10_4
    ):
        wl = bursty_arrivals(constant_workload(24, 256, 32), 10.0, seed=5)
        run = lambda opts: VllmLikeEngine(
            tiny_model, cluster_a10_4, parse_config("D2T2"), opts
        ).run(wl)
        default = run(EngineOptions())
        explicit = run(EngineOptions(router="static"))
        assert default.total_time == explicit.total_time
        assert default.phase_time == explicit.phase_time
        assert default.router is not None
        assert default.router.policy == "static"

    def test_static_never_rebalances(self):
        # A capacity small enough that every dispatch predicts a preemption.
        reqs = requests_at([float(i) * 0.01 for i in range(40)])
        plan = StaticRouter(2, context=ctx(kv=50)).route(reqs)
        assert plan.stats.rebalanced_requests == 0
        assert [list(p) for p in plan.partitions] == seed_deal(reqs, 2)


class TestJSQ:
    def bursty_bimodal(self, n=48, rate=10.0):
        return list(
            bursty_arrivals(bimodal_workload(n), rate, burstiness=8.0, seed=11).requests
        )

    def test_reduces_queued_token_imbalance_vs_static(self):
        """Round-robin sends every long prompt to replica 0; JSQ must
        strictly flatten both the max and the max/mean of the peak
        queued-prefill-token depth."""
        reqs = self.bursty_bimodal()
        context = ctx(prefill=20000.0, decode=50000.0)
        static = StaticRouter(2, context=context).route(reqs).stats
        jsq = JSQRouter(2, context=context).route(reqs).stats
        assert jsq.peak_queue_imbalance < static.peak_queue_imbalance
        assert jsq.max_peak_queued_tokens < static.max_peak_queued_tokens
        assert jsq.token_imbalance < static.token_imbalance

    def test_prefers_idle_replica(self):
        context = ctx()
        router = JSQRouter(2, context=context)
        # Pile work on replica 0 by hand, then ask where the next goes.
        router.loads[0].dispatch(0, Request(0, 5000, 10), 0.0)
        assert router.select(Request(1, 100, 10), 1, 0.0) == 1

    def test_engine_run_carries_jsq_stats(self, tiny_model, cluster_a10_4):
        wl = bursty_arrivals(bimodal_workload(32), 8.0, burstiness=8.0, seed=11)
        r = VllmLikeEngine(
            tiny_model,
            cluster_a10_4,
            parse_config("D2T2"),
            EngineOptions(router="jsq"),
        ).run(wl)
        assert r.router is not None
        assert r.router.policy == "jsq"
        assert r.router.num_requests == 32
        assert r.latency is not None and r.latency.num_requests == 32


class TestLeastWork:
    def test_counts_decode_backlog_jsq_ignores(self):
        """A replica with a drained prefill queue but a deep predicted
        decode backlog looks idle to JSQ and busy to least-work."""
        context = ctx(prefill=1e9, decode=100.0)  # prefill is near-instant
        router = LeastWorkRouter(2, context=context)
        router.loads[0].dispatch(0, Request(0, 10, 5000), 0.0)
        for load in router.loads:
            load.advance(1.0)  # prefill done; ~49s of decode remains
        assert router.loads[0].queued_prefill_tokens() == pytest.approx(0.0)
        assert router.loads[0].outstanding_tokens() > 0
        assert router.select(Request(1, 10, 10), 1, 1.0) == 1

    def test_drains_over_time(self):
        load = LeastWorkRouter(1, context=ctx(prefill=100.0, decode=100.0)).loads[0]
        load.dispatch(0, Request(0, 100, 101), 0.0)  # 1s prefill + 1s decode
        assert load.outstanding_tokens(0.0) == pytest.approx(200.0)
        load.advance(1.0)
        assert load.outstanding_tokens() == pytest.approx(100.0)
        load.advance(2.0)
        assert load.outstanding_tokens() == pytest.approx(0.0)
        assert not load.records  # retired


class TestPo2:
    def test_deterministic_per_seed(self):
        reqs = requests_at([float(i) * 0.05 for i in range(60)])
        plan = lambda seed: Po2Router(4, context=ctx(), seed=seed).route(reqs)
        assert plan(7).assignments == plan(7).assignments
        assert plan(None).assignments == plan(None).assignments  # default seed

    def test_seed_changes_sampling(self):
        reqs = requests_at([float(i) * 0.05 for i in range(60)])
        a = Po2Router(4, context=ctx(), seed=7).route(reqs).assignments
        b = Po2Router(4, context=ctx(), seed=8).route(reqs).assignments
        assert a != b

    def test_single_replica_trivial(self):
        plan = Po2Router(1, context=ctx(), seed=0).route(requests_at([0.0, 1.0]))
        assert plan.assignments == (0, 0)


class TestSLORouter:
    def slo_ctx(self, kv=None, ttft_slo=None):
        return RouterContext(
            prefill_tokens_per_s=1000.0,
            decode_tokens_per_s=1000.0,
            kv_capacity_tokens=kv,
            ttft_slo=ttft_slo,
        )

    def test_in_policy_registry(self):
        assert "slo" in ROUTER_POLICIES
        assert make_router("slo", 2).name == "slo"

    def test_deterministic(self):
        """Same inputs, same assignments — no stochastic state at all."""
        reqs = requests_at([float(i) * 0.05 for i in range(60)])
        plan = lambda: SLORouter(
            3, context=self.slo_ctx(ttft_slo=1.0)
        ).route(reqs)
        first = plan().assignments
        assert first == plan().assignments
        # The seed argument is inert for this policy (no sampling).
        seeded = SLORouter(3, context=self.slo_ctx(ttft_slo=1.0), seed=99)
        assert seeded.route(reqs).assignments == first

    def test_prefers_soonest_predicted_first_token(self):
        router = SLORouter(2, context=self.slo_ctx())
        router.loads[0].dispatch(0, Request(0, 5000, 10), 0.0)  # 5s of prefill
        assert router.select(Request(1, 100, 10), 1, 0.0) == 1

    def test_penalizes_predicted_preemption(self):
        """A replica predicted to preempt loses even when its predicted
        TTFT is better."""
        router = SLORouter(2, context=self.slo_ctx(kv=800))
        # Replica 0: one request fully resident, filling KV to the brim.
        router.loads[0].dispatch(0, Request(0, 100, 700), 0.0)
        # Replica 1: KV-light, but a long prompt queued (unstarted) behind
        # a small one -> far worse predicted TTFT, no KV pressure.
        router.loads[1].dispatch(1, Request(1, 50, 2), 0.0)
        router.loads[1].dispatch(2, Request(2, 5000, 2), 0.0)
        probe = Request(3, 100, 150)
        assert router.loads[0].would_preempt(probe, 0.0)
        assert not router.loads[1].would_preempt(probe, 0.0)
        assert router.loads[0].predicted_ttft(probe, 0.0) < router.loads[
            1
        ].predicted_ttft(probe, 0.0)
        assert router.select(probe, 3, 0.0) == 1

    def test_slo_miss_breaks_toward_meeting_replica(self):
        """With a TTFT SLO set, a replica predicted to meet it wins over
        one predicted to miss, regardless of raw TTFT ordering among the
        missing class."""
        router = SLORouter(2, context=self.slo_ctx(ttft_slo=0.5))
        router.loads[0].dispatch(0, Request(0, 1000, 10), 0.0)  # 1s drain
        # Replica 0 predicted TTFT ~1.1s (miss); replica 1 ~0.1s (meet).
        assert router.select(Request(1, 100, 10), 1, 0.0) == 1

    def test_engine_run_carries_slo_stats(self, tiny_model, cluster_a10_4):
        wl = bursty_arrivals(bimodal_workload(32), 8.0, burstiness=8.0, seed=11)
        r = VllmLikeEngine(
            tiny_model,
            cluster_a10_4,
            parse_config("D2T2"),
            EngineOptions(router="slo", ttft_slo=2.0, tpot_slo=0.5),
        ).run(wl)
        assert r.router is not None
        assert r.router.policy == "slo"
        assert r.router.num_requests == 32


class TestStormRebalance:
    def storm_router(self):
        # Tiny KV and a slow replica: one long-prompt pile-up predicts
        # preemptions and leaves plenty of still-queued work to move.
        return JSQRouter(2, context=ctx(prefill=100.0, decode=1e9, kv=400))

    def test_rebalances_pending_away_from_storm(self):
        router = self.storm_router()
        # Force everything onto replica 0 initially: simultaneous arrivals
        # tie-break to the lowest id until queues differentiate.
        reqs = requests_at([0.0] * 8, prompt_len=200, output_len=2)
        plan = router.route(reqs)
        assert plan.stats.rebalanced_requests > 0
        assert plan.stats.rebalances > 0
        assert plan.stats.total_predicted_preemptions > 0
        # The moved requests really live on the other replica now.
        assert all(len(p) > 0 for p in plan.partitions)
        assert sorted(r.request_id for p in plan.partitions for r in p) == list(
            range(8)
        )

    def test_no_rebalance_without_pressure(self):
        router = JSQRouter(2, context=ctx(prefill=1e9, decode=1e9, kv=10**9))
        plan = router.route(requests_at([float(i) for i in range(8)]))
        assert plan.stats.rebalanced_requests == 0
        assert plan.stats.total_predicted_preemptions == 0


class TestPlanInvariants:
    @pytest.mark.parametrize("policy", ROUTER_POLICIES)
    def test_partitions_are_a_partition(self, policy):
        reqs = list(
            bursty_arrivals(bimodal_workload(30), 6.0, burstiness=8.0, seed=3).requests
        )
        plan = make_router(policy, 3, context=ctx(), seed=0).route(reqs)
        ids = sorted(r.request_id for part in plan.partitions for r in part)
        assert ids == sorted(r.request_id for r in reqs)
        assert len(plan.assignments) == len(reqs)
        assert all(0 <= a < 3 for a in plan.assignments)
        assert plan.stats.num_requests == len(reqs)

    def test_stats_describe_mentions_policy(self):
        plan = StaticRouter(2).route(requests_at([0.0, 0.0]))
        assert "static" in plan.stats.describe()


class TestRoutingSweep:
    def test_jsq_beats_static_p99_ttft_under_bursty(self, tiny_model, cluster_a10_4):
        """Acceptance: at the same offered rate, bursty arrivals give JSQ a
        strictly lower p99 TTFT than the static deal (which lets a burst
        of long prompts pile onto one replica)."""
        sweep = run_routing_sweep(
            tiny_model,
            cluster_a10_4,
            bimodal_workload(48),
            config=parse_config("D2T2"),
            policies=("static", "jsq"),
            rate_rps=10.0,
            burstiness=8.0,
            seed=0,
        )
        assert sweep.ttft_p99("bursty", "jsq") < sweep.ttft_p99("bursty", "static")
        # The latency win comes from balance: JSQ's queue imbalance is flat.
        static_stats = sweep.result("bursty", "static").router
        jsq_stats = sweep.result("bursty", "jsq").router
        assert jsq_stats.peak_queue_imbalance < static_stats.peak_queue_imbalance

    def test_same_offered_rate_across_policies(self, tiny_model, cluster_a10_4):
        sweep = run_routing_sweep(
            tiny_model,
            cluster_a10_4,
            bimodal_workload(24),
            config=parse_config("D2T2"),
            policies=("static", "jsq"),
            rate_rps=6.0,
            seed=0,
        )
        assert sweep.rate_rps == 6.0
        for point in sweep.points:
            assert point.result.num_requests == 24

    def test_requires_data_parallel_config(self, tiny_model, cluster_a10_4):
        with pytest.raises(ConfigurationError, match="data-parallel"):
            run_routing_sweep(
                tiny_model,
                cluster_a10_4,
                bimodal_workload(8),
                config=parse_config("T2"),
                rate_rps=1.0,
            )


class TestDrainClamp:
    """Regression: the ledger's drain is clamped to dispatched work, so a
    provably idle replica reports exactly zero predicted load."""

    def test_idle_replica_reports_exactly_zero_work(self):
        """Retirement tolerates a 1e-12 epsilon; before the clamp, a
        record whose float finish landed just past the clock left a stale
        positive busy_until on an empty ledger forever after."""
        load = ReplicaLoad(0, ctx(prefill=10.0, decode=1000.0))
        load.advance(0.1)
        # prompt 2 @ 10 tok/s from t=0.1: finish = 0.1 + 0.2 = 0.30000...04
        load.dispatch(0, Request(0, 2, 1), 0.1)
        assert load.busy_until > 0.3  # float residue above the clock
        load.advance(0.3)
        assert not load.records  # retired within the epsilon
        assert load.work_seconds() == 0.0  # exactly zero, not 1e-17 stale
        probe = Request(1, 50, 1)
        assert load.predicted_ttft(probe) == 50 / 10.0

    def test_queue_views_clamped_to_dispatched_work(self):
        """Property: queued/outstanding depth is never negative and never
        exceeds the live dispatched work, across dispatch / advance /
        steal sequences."""
        import random

        rng = random.Random(7)
        for _ in range(200):
            load = ReplicaLoad(0, ctx(prefill=100.0, decode=50.0, kv=2000))
            now, rid = 0.0, 0
            for _step in range(20):
                now += rng.random()
                load.advance(now)
                op = rng.random()
                if op < 0.6:
                    load.dispatch(rid, Request(rid, rng.randint(1, 400), rng.randint(1, 40)), now)
                    rid += 1
                elif op < 0.8:
                    load.steal_queued(now)
                live_prompt = sum(r.request.prompt_len for r in load.records)
                live_total = sum(
                    r.request.prompt_len + r.request.output_len - 1
                    for r in load.records
                )
                q = load.queued_prefill_tokens(now)
                o = load.outstanding_tokens(now)
                assert 0.0 <= q <= live_prompt + 1e-9
                assert 0.0 <= o <= live_total + 1e-9
                assert load.work_seconds(now) >= 0.0
                if not load.records:
                    assert load.work_seconds(now) == 0.0


class TestLedgerFold:
    """The per-instant memos of ``queued_prefill_tokens`` and
    ``outstanding_tokens`` and the early-exit ``resident_kv_tokens`` scan
    equal the plain whole-ledger sums with ``==`` (not approx), on
    randomized online ledgers with simultaneous arrivals, storm steals
    and retirement."""

    @staticmethod
    def plain_queued(load, now):
        return sum(
            _remaining(rec.request.prompt_len, rec.start, rec.prefill_done, now)
            for rec in load.records
        )

    @staticmethod
    def plain_resident(load, now):
        return sum(
            rec.request.total_tokens
            for rec in load.records
            if rec.started_by(now) and not rec.finished_by(now)
        )

    @staticmethod
    def plain_outstanding(load, now):
        total = 0.0
        for rec in load.records:
            total += _remaining(rec.request.prompt_len, rec.start, rec.prefill_done, now)
            total += _remaining(
                rec.request.output_len - 1, rec.prefill_done, rec.finish, now
            )
        return total

    def check(self, load, now):
        starts = [rec.start for rec in load.records]
        assert starts == sorted(starts)
        # Twice: the second call is answered from the memo.
        for _ in range(2):
            assert load.queued_prefill_tokens(now) == self.plain_queued(load, now)
            assert load.outstanding_tokens(now) == self.plain_outstanding(load, now)
        assert load.resident_kv_tokens(now) == self.plain_resident(load, now)

    def test_randomized_ledgers(self):
        import random

        rng = random.Random(12)
        for _ in range(150):
            load = ReplicaLoad(
                0, ctx(prefill=rng.uniform(50, 500), decode=rng.uniform(20, 200), kv=3000)
            )
            now, rid = 0.0, 0
            retired = stolen = 0
            for _step in range(40):
                op = rng.random()
                if op < 0.25:
                    now += rng.expovariate(2.0)  # the clock moves
                before = len(load.records)
                load.advance(now)
                retired += before - len(load.records)
                self.check(load, now)
                if op < 0.85:
                    # A burst of simultaneous arrivals at this instant.
                    for _ in range(rng.randint(1, 4)):
                        req = Request(rid, rng.randint(1, 600), rng.randint(1, 60))
                        load.dispatch(rid, req, now)
                        rid += 1
                        self.check(load, now)
                else:
                    stolen += len(load.steal_queued(now))
                    self.check(load, now)
            assert rid > 0
        assert retired and stolen

    def test_same_instant_retirement_drops_the_memo(self):
        """A record predicted to finish within the retirement epsilon
        leaves the ledger at the very instant it was folded in."""
        load = ReplicaLoad(0, ctx(prefill=1e15, decode=1e15))
        load.advance(1.0)
        for rid in range(3):
            load.dispatch(rid, Request(rid, 50, 2), 1.0)
            self.check(load, 1.0)
        load.advance(1.0)
        assert not load.records
        self.check(load, 1.0)
        load.dispatch(3, Request(3, 50, 2), 1.0)
        self.check(load, 1.0)

    def test_routed_storms_keep_ledgers_exact(self, monkeypatch):
        """Every dispatch and steal inside ``Router.route`` — including the
        storm rebalancer's steal/re-dispatch pass — leaves every ledger's
        folds equal to the plain sums and its starts non-decreasing."""
        seen = {"dispatch": 0, "steal": 0}
        dispatch, steal = ReplicaLoad.dispatch, ReplicaLoad.steal_queued

        def checked_dispatch(load, index, request, now):
            rec = dispatch(load, index, request, now)
            seen["dispatch"] += 1
            self.check(load, now)
            return rec

        def checked_steal(load, now):
            out = steal(load, now)
            seen["steal"] += len(out)
            self.check(load, now)
            return out

        monkeypatch.setattr(ReplicaLoad, "dispatch", checked_dispatch)
        monkeypatch.setattr(ReplicaLoad, "steal_queued", checked_steal)
        arrivals = [0.0] * 12 + [0.5 + 0.05 * (i // 3) for i in range(36)]
        reqs = requests_at(arrivals, prompt_len=200, output_len=4)
        plan = JSQRouter(3, context=ctx(prefill=150.0, decode=400.0, kv=350)).route(reqs)
        assert plan.stats.rebalanced_requests > 0
        assert seen["dispatch"] == len(reqs) + plan.stats.rebalanced_requests
        assert seen["steal"] == plan.stats.rebalanced_requests


# --------------------------------------------------------------------------- #
# Ledger differential: the frozen-dataclass ledger with the full-rescan
# least-work view, kept verbatim below (helpers included) as the oracle
# the ledger (slotted records, inlined reads, memoized least-work fold)
# must match.
# --------------------------------------------------------------------------- #


def _oracle_duration(tokens: int, rate: float | None) -> float:
    """Predicted seconds to process ``tokens`` at ``rate`` tokens/s."""
    if tokens <= 0:
        return 0.0
    if rate is None:
        return math.inf
    return tokens / rate


def _oracle_tail(records: deque, start: int) -> Iterator["OracleDispatchRecord"]:
    """``records[start:]``, indexed from the right end of the deque (an
    extension by a few freshly appended records costs O(1), not O(n))."""
    if start == 0:
        return iter(records)
    return (records[j] for j in range(start - len(records), 0))


def _oracle_remaining(tokens: int, start: float, end: float, now: float) -> float:
    """Tokens of a [start, end] processing window still ahead of ``now``,
    prorated linearly (the whole amount while the window has not opened,
    zero once it has closed)."""
    if tokens <= 0 or now >= end:
        return 0.0
    if now <= start or math.isinf(end):
        return float(tokens)
    return tokens * (end - now) / (end - start)


@dataclass(frozen=True)
class OracleDispatchRecord:
    """The frozen-dataclass record the oracle ledger builds."""

    index: int  # submission index within the routed request list
    request: Request
    start: float  # predicted service start (end of queueing)
    prefill_done: float  # predicted prefill completion
    finish: float  # predicted last-token time

    def started_by(self, now: float) -> bool:
        return self.start <= now + _EPS

    def finished_by(self, now: float) -> bool:
        return self.finish <= now + _EPS


class OracleReplicaLoad:
    """The ledger before its records became tuples and its least-work
    view a per-instant memo, kept verbatim as the oracle."""

    def __init__(self, replica_id: int, context: RouterContext) -> None:
        self.replica_id = replica_id
        self.context = context
        self.records: deque[OracleDispatchRecord] = deque()
        self.clock = 0.0
        self.busy_until = 0.0
        # Dispatch accounting (survives record retirement; adjusted when a
        # rebalance steals queued work back).
        self.num_dispatched = 0
        self.dispatched_prompt_tokens = 0
        self.dispatched_tokens = 0
        self.peak_queued_prefill_tokens = 0.0
        self.predicted_preemptions = 0  # total over the run (stats)
        self.storm_preemptions = 0  # since the last rebalance (trigger)
        self._reset_fold()

    def _reset_fold(self) -> None:
        """Drop the queued-prefill memo: the fold of the first
        ``_fold_len`` records at instant ``_fold_now`` (running sum plus
        its compensation term)."""
        self._fold_now: float | None = None
        self._fold_len = 0
        self._fold_sum: float = 0  # int 0 like ``sum``'s start: empty -> 0
        self._fold_comp = 0.0

    # ------------------------------------------------------------------ #
    # Clock and load views
    # ------------------------------------------------------------------ #

    def advance(self, now: float) -> None:
        """Move the ledger's clock to ``now``, retiring finished entries.

        Drain is clamped to dispatched work: once the FIFO holds no
        unfinished records the replica is provably idle, so ``busy_until``
        snaps back to ``now``. Retirement tolerates an epsilon
        (``finished_by``), and without the clamp that epsilon residue
        leaves an idle replica reporting a stale positive
        ``work_seconds``/``predicted_ttft`` bias forever after.
        """
        if now < self.clock:
            now = self.clock  # simultaneous arrivals never rewind the clock
        self.clock = now
        if self.records and self.records[0].finished_by(now):
            self._reset_fold()
            while self.records and self.records[0].finished_by(now):
                self.records.popleft()
        if not self.records:
            self.busy_until = min(self.busy_until, now)

    def queued_prefill_tokens(self, now: float | None = None) -> float:
        """Prompt tokens dispatched here but not yet prefilled (JSQ's
        queue-length metric). ``_remaining`` bounds each record's share to
        ``[0, tokens]``, so the depth is clamped to live dispatched work
        by construction.

        Memoized per instant: records only ever join at the tail, so a
        call at the same ``now`` extends the previous left fold by the new
        records' terms — the same float as ``sum`` over the whole ledger,
        in the same order. Offline dispatch (every arrival at one
        instant, nothing retiring) thus costs O(1) instead of O(n). The
        memo is rebuilt when ``now`` differs and dropped on retirement
        or steal.
        """
        now = self.clock if now is None else now
        if now != self._fold_now:
            self._reset_fold()
            self._fold_now = now
        records = self.records
        total, comp = self._fold_sum, self._fold_comp
        for rec in _oracle_tail(records, self._fold_len):
            x = _oracle_remaining(rec.request.prompt_len, rec.start, rec.prefill_done, now)
            if _COMPENSATED_SUM:
                t = total + x
                if abs(total) >= abs(x):
                    comp += (total - t) + x
                else:
                    comp += (x - t) + total
                total = t
            else:
                total += x
        self._fold_len = len(records)
        self._fold_sum, self._fold_comp = total, comp
        if comp and math.isfinite(comp):
            return total + comp
        return total

    def outstanding_tokens(self, now: float | None = None) -> float:
        """Unprefilled prompt tokens plus predicted undecoded tokens (the
        least-work metric); bounded like :meth:`queued_prefill_tokens`."""
        now = self.clock if now is None else now
        total = 0.0
        for rec in self.records:
            total += _oracle_remaining(rec.request.prompt_len, rec.start, rec.prefill_done, now)
            total += _oracle_remaining(
                rec.request.output_len - 1, rec.prefill_done, rec.finish, now
            )
        return total

    def resident_kv_tokens(self, now: float | None = None) -> int:
        """Predicted KV tokens resident on the replica: the final context
        length of every request in service (reservation-style accounting,
        matching how admission pressure builds in the engines).

        Predicted starts are non-decreasing along the FIFO (each dispatch
        starts at or after its predecessor's finish), so the scan stops at
        the first unstarted record.
        """
        now = self.clock if now is None else now
        total = 0
        for rec in self.records:
            if not rec.started_by(now):
                break
            if not rec.finished_by(now):
                total += rec.request.total_tokens
        return total

    def work_seconds(self, now: float | None = None) -> float:
        """Predicted seconds until this replica drains its queue."""
        now = self.clock if now is None else now
        return max(0.0, self.busy_until - now)

    def predicted_ttft(self, request: Request, now: float | None = None) -> float:
        """Predicted TTFT of dispatching ``request`` here at ``now``:
        queue drain (the serial FIFO ahead of it) plus its own prefill."""
        now = self.clock if now is None else now
        return self.work_seconds(now) + _oracle_duration(
            request.prompt_len, self.context.prefill_tokens_per_s
        )

    def would_preempt(self, request: Request, now: float | None = None) -> bool:
        """Whether dispatching ``request`` here is predicted to push the
        resident KV past capacity (always False without a capacity)."""
        cap = self.context.kv_capacity_tokens
        if cap is None:
            return False
        now = self.clock if now is None else now
        return self.resident_kv_tokens(now) + request.total_tokens > cap

    # ------------------------------------------------------------------ #
    # Dispatch and rebalance
    # ------------------------------------------------------------------ #

    def dispatch(self, index: int, request: Request, now: float) -> OracleDispatchRecord:
        """Assign ``request`` to this replica at ``now``; returns the
        predicted-schedule record appended to the ledger."""
        ctx = self.context
        start = max(now, self.busy_until)
        prefill_done = start + _oracle_duration(request.prompt_len, ctx.prefill_tokens_per_s)
        finish = prefill_done + _oracle_duration(
            request.output_len - 1, ctx.decode_tokens_per_s
        )
        if ctx.kv_capacity_tokens is not None:
            resident = self.resident_kv_tokens(now) + request.total_tokens
            if resident > ctx.kv_capacity_tokens:
                self.predicted_preemptions += 1
                self.storm_preemptions += 1
        rec = OracleDispatchRecord(
            index=index,
            request=request,
            start=start,
            prefill_done=prefill_done,
            finish=finish,
        )
        self.records.append(rec)
        self.busy_until = finish
        self.num_dispatched += 1
        self.dispatched_prompt_tokens += request.prompt_len
        self.dispatched_tokens += request.total_tokens
        self.peak_queued_prefill_tokens = max(
            self.peak_queued_prefill_tokens, self.queued_prefill_tokens(now)
        )
        return rec

    def steal_queued(self, now: float) -> list[OracleDispatchRecord]:
        """Remove and return every dispatched-but-unstarted entry (the
        still-pending requests a storm rebalance re-routes elsewhere).
        Resets the storm counter when anything was stolen."""
        kept = [rec for rec in self.records if rec.started_by(now)]
        stolen = [rec for rec in self.records if not rec.started_by(now)]
        if not stolen:
            return []
        self.records = deque(kept)
        self._reset_fold()
        self.busy_until = kept[-1].finish if kept else now
        for rec in stolen:
            self.num_dispatched -= 1
            self.dispatched_prompt_tokens -= rec.request.prompt_len
            self.dispatched_tokens -= rec.request.total_tokens
        self.storm_preemptions = 0
        return stolen


# A KV capacity tight enough that every dynamic policy rebalances on every
# workload below (ShareGPT requests average about 600 tokens).
TIGHT_KV = 2000


def differential_workloads() -> dict[str, list[Request]]:
    base = sharegpt_workload(160, seed=5)
    reqs = list(base.requests)
    return {
        "offline": reqs,
        "poisson": list(poisson_arrivals(base, 6.0, seed=5).requests),
        "bursty": list(bursty_arrivals(base, 6.0, burstiness=8.0, seed=5).requests),
        # Groups of eight at one instant: ties broken by submission index.
        "simultaneous": [
            Request(r.request_id, r.prompt_len, r.output_len, arrival_time=0.5 * (i // 8))
            for i, r in enumerate(reqs)
        ],
    }


class TestLedgerDifferential:
    """Routing through the ledger equals routing through the oracle ledger:
    identical assignments, partitions and ``RouterStats`` repr for every
    policy, dp 1, 2 and 4, offline, Poisson, bursty and simultaneous
    arrivals, with and without a storm-firing KV capacity."""

    @staticmethod
    def route(policy, dp, reqs, context, monkeypatch, load_cls=None):
        with monkeypatch.context() as m:
            if load_cls is not None:
                m.setattr(policies, "ReplicaLoad", load_cls)
            router = make_router(policy, dp, context=context, seed=7)
            assert all(
                type(load) is (load_cls or ReplicaLoad) for load in router.loads
            )
            return router.route(reqs)

    @pytest.mark.parametrize("policy", ROUTER_POLICIES)
    def test_routes_like_the_oracle_ledger(self, policy, monkeypatch):
        rebalances = 0
        for name, reqs in differential_workloads().items():
            for dp in (1, 2, 4):
                for kv in (None, TIGHT_KV):
                    context = ctx(prefill=3000.0, decode=300.0, kv=kv)
                    case = (name, dp, kv)
                    plan = self.route(policy, dp, reqs, context, monkeypatch)
                    ref = self.route(
                        policy, dp, reqs, context, monkeypatch, OracleReplicaLoad
                    )
                    assert plan.assignments == ref.assignments, case
                    assert plan.partitions == ref.partitions, case
                    assert repr(plan.stats) == repr(ref.stats), case
                    # The one-pass deal equals the per-replica rescan.
                    assert plan.partitions == tuple(
                        tuple(r for r, a in zip(reqs, plan.assignments, strict=True) if a == rid)
                        for rid in range(dp)
                    ), case
                    rebalances += plan.stats.rebalances
        if make_router(policy, 2).rebalance_on_storm:
            assert rebalances > 0  # storm steals were exercised
        else:
            assert rebalances == 0


class TestLeastWorkLinear:
    """Offline least-work dispatch probes every replica at one instant per
    arrival; the memoized fold makes the ledger's ``_remaining``
    evaluations grow linearly in the request count (a full rescan per
    probe grows quadratically)."""

    def test_remaining_evaluations_grow_linearly(self, monkeypatch):
        calls = [0]

        def counted(tokens, start, end, now):
            calls[0] += 1
            return _remaining(tokens, start, end, now)

        monkeypatch.setattr(load_mod, "_remaining", counted)
        base = sharegpt_workload(4000, seed=0)
        per_request = {}
        for n in (500, 1000, 2000, 4000):
            calls[0] = 0
            router = LeastWorkRouter(4, context=ctx(prefill=3000.0, decode=300.0))
            router.route(base.requests[:n])
            per_request[n] = calls[0] / n
        # One queued-prefill term and two outstanding terms per dispatch.
        assert per_request[4000] <= 3.0, per_request
        assert per_request[4000] <= 1.01 * per_request[500], per_request
