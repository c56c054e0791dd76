"""The serving-objective layer: analytic queueing + SLO-aware search.

Pins the tentpole contracts:

1. **Default equivalence** — the throughput objective reproduces the
   seed's analytic ordering bit-exactly (goldens survive).
2. **Queueing sanity** — predicted attainment is non-increasing in the
   offered rate, zero past capacity, and 1.0 with no bounds.
3. **Simulation agreement** — the analytic classification (comfortable
   vs. overloaded) matches measured attainment on a small workload.
4. **Plumbing bugfix** — ``best_seesaw_pair`` forwards engine options to
   the simulated re-ranking (it used to silently drop them).
"""

import pytest

from repro.autotuner.objective import OBJECTIVES, ServingObjective
from repro.autotuner.predictor import predict_request_rate
from repro.autotuner.search import (
    best_seesaw_pair,
    rank_seesaw_pairs,
    rank_static_configs,
)
from repro.core.options import SeesawOptions
from repro.engines.vllm_like import VllmLikeEngine
from repro.errors import ConfigurationError
from repro.workloads.arrivals import poisson_arrivals


def rates_for(model, cluster, workload, label="T4P2"):
    from repro.parallel.config import parse_config

    cfg = parse_config(label)
    n = workload.num_requests
    return predict_request_rate(
        model,
        cluster,
        cfg,
        cfg,
        workload.total_input_tokens / n,
        workload.total_output_tokens / n,
        concurrency=n,
    )


class TestValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown objective"):
            ServingObjective(kind="latency")

    def test_negative_rate_rejected(self):
        with pytest.raises(ConfigurationError):
            ServingObjective(request_rate=-1.0)

    def test_nonpositive_slo_rejected(self):
        with pytest.raises(ConfigurationError):
            ServingObjective(ttft_slo=0.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    @pytest.mark.parametrize("field", ["ttft_slo", "tpot_slo"])
    def test_non_finite_slo_rejected(self, field, bad):
        # NaN passes a bare ``slo <= 0`` check; None is "no bound".
        with pytest.raises(ConfigurationError, match=field):
            ServingObjective(kind="slo", request_rate=1.0, **{field: bad})

    def test_objectives_tuple(self):
        assert OBJECTIVES == ("throughput", "slo")


class TestAnalyticQueueing:
    def test_attainment_non_increasing_in_offered_rate(
        self, model_34b, cluster_a10_8, small_arxiv
    ):
        rates = rates_for(model_34b, cluster_a10_8, small_arxiv)
        n = small_arxiv.num_requests
        avg_in = small_arxiv.total_input_tokens / n
        avg_out = small_arxiv.total_output_tokens / n
        capacity = rates.request_rate
        attainments = []
        for frac in (0.0, 0.2, 0.4, 0.6, 0.8, 0.95, 1.0, 1.5):
            obj = ServingObjective(
                kind="slo", request_rate=frac * capacity, ttft_slo=30.0
            )
            attainments.append(obj.predict(rates, avg_in, avg_out).attainment)
        assert attainments == sorted(attainments, reverse=True)
        assert attainments[0] == 1.0  # offline: no queueing term
        assert attainments[-1] == 0.0  # past capacity: unstable queue

    def test_utilization_and_goodput(self, model_34b, cluster_a10_8, small_arxiv):
        rates = rates_for(model_34b, cluster_a10_8, small_arxiv)
        n = small_arxiv.num_requests
        avg_in = small_arxiv.total_input_tokens / n
        avg_out = small_arxiv.total_output_tokens / n
        obj = ServingObjective(kind="slo", request_rate=0.5 * rates.request_rate)
        pred = obj.predict(rates, avg_in, avg_out)
        assert pred.utilization == pytest.approx(0.5)
        assert pred.stable
        # No bounds given: attainment 1.0, goodput = the served rate.
        assert pred.attainment == 1.0
        assert pred.goodput_rps == pytest.approx(obj.request_rate)

    def test_tpot_bound_is_a_hard_gate(self, model_34b, cluster_a10_8, small_arxiv):
        rates = rates_for(model_34b, cluster_a10_8, small_arxiv)
        n = small_arxiv.num_requests
        avg_in = small_arxiv.total_input_tokens / n
        avg_out = small_arxiv.total_output_tokens / n
        loose = ServingObjective(kind="slo", tpot_slo=10.0)
        tight = ServingObjective(kind="slo", tpot_slo=1e-6)
        assert loose.predict(rates, avg_in, avg_out).attainment == 1.0
        assert tight.predict(rates, avg_in, avg_out).attainment == 0.0

    def test_unreachable_ttft_slo_is_zero(self, model_34b, cluster_a10_8, small_arxiv):
        """A TTFT bound below the bare prefill latency can never be met."""
        rates = rates_for(model_34b, cluster_a10_8, small_arxiv)
        n = small_arxiv.num_requests
        avg_in = small_arxiv.total_input_tokens / n
        avg_out = small_arxiv.total_output_tokens / n
        obj = ServingObjective(kind="slo", request_rate=0.0, ttft_slo=1e-6)
        assert obj.predict(rates, avg_in, avg_out).attainment == 0.0


class TestRankingObjectives:
    def test_throughput_objective_matches_seed_ordering(
        self, model_34b, cluster_a10_8, small_arxiv
    ):
        """Default ranking is bit-exact with the explicit throughput
        objective (and therefore with the seed's ordering)."""
        default = rank_static_configs(model_34b, cluster_a10_8, small_arxiv)
        explicit = rank_static_configs(
            model_34b, cluster_a10_8, small_arxiv, objective=ServingObjective()
        )
        assert [r.config for r in default] == [r.config for r in explicit]
        assert [r.predicted_rps for r in default] == [
            r.predicted_rps for r in explicit
        ]

    def test_slo_objective_can_dethrone_the_throughput_pick(
        self, model_34b, cluster_a10_8, small_arxiv
    ):
        """A TPOT bound the throughput winner's decode iteration misses
        must hand the top slot to a compliant configuration."""
        by_thr = rank_static_configs(model_34b, cluster_a10_8, small_arxiv)
        thr_pick = by_thr[0]
        obj = ServingObjective(
            kind="slo",
            request_rate=0.3 * thr_pick.predicted_rps,
            ttft_slo=30.0,
            tpot_slo=0.07,  # between D2T4's ~56ms and D2T2P2's ~79ms
        )
        by_slo = rank_static_configs(
            model_34b, cluster_a10_8, small_arxiv, objective=obj
        )
        assert by_slo[0].config != thr_pick.config
        assert by_slo[0].predicted_attainment > 0.0
        # The dethroned throughput pick is gated to zero attainment.
        dethroned = next(r for r in by_slo if r.config == thr_pick.config)
        assert dethroned.predicted_attainment == 0.0
        assert dethroned.predicted_goodput_rps == 0.0

    def test_slo_objective_ranks_pairs_too(
        self, model_34b, cluster_a10_8, small_arxiv
    ):
        obj = ServingObjective(kind="slo", request_rate=0.2, ttft_slo=30.0)
        pairs = rank_seesaw_pairs(
            model_34b, cluster_a10_8, small_arxiv, objective=obj
        )
        assert all(p.prefill_config.dp == p.decode_config.dp for p in pairs)
        goodputs = [p.predicted_goodput_rps for p in pairs]
        assert goodputs == sorted(goodputs, reverse=True)

    def test_analytic_agrees_with_simulation_on_classification(
        self, model_34b, cluster_a10_8, small_arxiv
    ):
        """Comfortable load (analytic attainment ~1) must measure high;
        overload (analytic 0) must measure low — the cheap-search contract
        that analytic ranking points at the right region."""
        from repro.parallel.config import parse_config

        cfg = parse_config("T4P2")
        rates = rates_for(model_34b, cluster_a10_8, small_arxiv)
        workload = small_arxiv.subset(24)
        low, high = 0.1 * rates.request_rate, 3.0 * rates.request_rate
        n = small_arxiv.num_requests
        avg_in = small_arxiv.total_input_tokens / n
        avg_out = small_arxiv.total_output_tokens / n
        for rate, comfortable in ((low, True), (high, False)):
            obj = ServingObjective(kind="slo", request_rate=rate, ttft_slo=10.0)
            analytic = obj.predict(rates, avg_in, avg_out).attainment
            online = poisson_arrivals(workload, rate, seed=0)
            result = VllmLikeEngine(model_34b, cluster_a10_8, cfg).run(online)
            assert result.latency is not None
            measured = result.latency.slo_attainment(ttft_slo=10.0)
            if comfortable:
                assert analytic > 0.9 and measured > 0.75
            else:
                assert analytic == 0.0 and measured < 0.5


class TestSeesawPairOptions:
    def test_options_reach_the_simulated_reranking(
        self, model_34b, cluster_a10_8, small_arxiv, monkeypatch
    ):
        """Regression: best_seesaw_pair had no ``options`` parameter, so
        simulated re-ranking ignored arrival/router engine options."""
        import repro.core.engine as core_engine

        seen = []
        real = core_engine.SeesawEngine

        class Spy(real):
            def __init__(self, model, cluster, cp, cd, options=None):
                seen.append(options)
                super().__init__(model, cluster, cp, cd, options)

        monkeypatch.setattr(core_engine, "SeesawEngine", Spy)
        opts = SeesawOptions(max_num_seqs=17)
        best_seesaw_pair(
            model_34b,
            cluster_a10_8,
            small_arxiv,
            simulate_top=2,
            sample_requests=8,
            options=opts,
        )
        assert seen and all(o is opts for o in seen)

    def test_slo_objective_injects_arrival_rate(
        self, model_34b, cluster_a10_8, small_arxiv, monkeypatch
    ):
        """Under an SLO objective the engines used for validation are told
        the predicted arrival rate (the wait-vs-re-shard signal)."""
        import repro.core.engine as core_engine

        seen = []
        real = core_engine.SeesawEngine

        class Spy(real):
            def __init__(self, model, cluster, cp, cd, options=None):
                seen.append(options)
                super().__init__(model, cluster, cp, cd, options)

        monkeypatch.setattr(core_engine, "SeesawEngine", Spy)
        online = poisson_arrivals(small_arxiv, 0.2, seed=0)
        best_seesaw_pair(
            model_34b,
            cluster_a10_8,
            online,
            simulate_top=2,
            sample_requests=8,
            objective=ServingObjective(kind="slo", request_rate=0.2, ttft_slo=30.0),
        )
        assert seen and all(o.arrival_rate == pytest.approx(0.2) for o in seen)

    def test_coupled_validation_gets_no_arrival_rate(
        self, model_34b, cluster_a10_8, small_arxiv, monkeypatch
    ):
        """A coupled replica cannot see planned arrivals, so the hint stays
        off its validation engines (the options would reject it)."""
        import repro.core.engine as core_engine

        seen = []
        real = core_engine.SeesawEngine

        class Spy(real):
            def __init__(self, model, cluster, cp, cd, options=None):
                seen.append(options)
                super().__init__(model, cluster, cp, cd, options)

        monkeypatch.setattr(core_engine, "SeesawEngine", Spy)
        online = poisson_arrivals(small_arxiv, 0.2, seed=0)
        best_seesaw_pair(
            model_34b,
            cluster_a10_8,
            online,
            simulate_top=2,
            sample_requests=8,
            options=SeesawOptions(coupled=True),
            objective=ServingObjective(kind="slo", request_rate=0.2, ttft_slo=30.0),
        )
        assert seen and all(o.arrival_rate is None for o in seen)


class TestErlangC:
    """The M/M/c queueing correction (satellite of the coupled-sim PR)."""

    def reference(self, c, a):
        """Textbook Erlang C with explicit factorials."""
        import math

        rho = a / c
        summed = sum(a**k / math.factorial(k) for k in range(c))
        tail = a**c / (math.factorial(c) * (1.0 - rho))
        return tail / (summed + tail)

    def test_matches_textbook_formula(self):
        from repro.autotuner.objective import erlang_c

        for c in (1, 2, 3, 4, 8):
            for rho in (0.1, 0.5, 0.9):
                a = rho * c
                assert erlang_c(c, a) == pytest.approx(self.reference(c, a))

    def test_single_server_is_exactly_rho(self):
        from repro.autotuner.objective import erlang_c

        for rho in (0.0, 0.3, 0.7, 0.999):
            assert erlang_c(1, rho) == rho  # bit-exact, not approx

    def test_unstable_and_invalid(self):
        from repro.autotuner.objective import erlang_c
        from repro.errors import ConfigurationError

        assert erlang_c(4, 4.0) == 1.0
        assert erlang_c(2, 5.0) == 1.0
        with pytest.raises(ConfigurationError):
            erlang_c(0, 1.0)
        with pytest.raises(ConfigurationError):
            erlang_c(2, -0.1)

    def test_multi_server_waits_less_often_than_pooled_rho(self):
        """An arrival queues only when every replica is busy: for c > 1
        the wait probability sits strictly below the pooled model's rho."""
        from repro.autotuner.objective import erlang_c

        for c in (2, 4, 8):
            for rho in (0.2, 0.5, 0.8):
                assert erlang_c(c, rho * c) < rho

    def test_dp1_prediction_identical_to_mm1(self):
        """The dp == 1 case keeps the seed's M/M/1 numbers bit-exactly."""
        import math

        from repro.autotuner.predictor import PredictedRates
        from repro.parallel.config import parse_config

        rates = PredictedRates(
            config=parse_config("T4"),
            prefill_tokens_per_s=10000.0,
            decode_tokens_per_s=40000.0,
            request_rate=2.0,
            max_batch_size=64,
        )
        obj = ServingObjective(kind="slo", request_rate=1.3, ttft_slo=3.0)
        pred = obj.predict(rates, 2000, 200)
        mu, lam = 2.0, 1.3
        rho = lam / mu
        prefill_latency = 2000 * 1 / 10000.0
        assert pred.queue_wait_mean_s == rho / (mu - lam)
        assert pred.attainment == 1.0 - rho * math.exp(
            -(mu - lam) * (3.0 - prefill_latency)
        )

    def test_dp_group_wait_uses_erlang_c(self):
        from repro.autotuner.objective import erlang_c
        from repro.autotuner.predictor import PredictedRates
        from repro.parallel.config import parse_config

        rates = PredictedRates(
            config=parse_config("D4T2"),
            prefill_tokens_per_s=40000.0,
            decode_tokens_per_s=160000.0,
            request_rate=8.0,
            max_batch_size=64,
        )
        obj = ServingObjective(kind="slo", request_rate=5.0, ttft_slo=3.0)
        pred = obj.predict(rates, 2000, 200)
        expected = erlang_c(4, 5.0 / (8.0 / 4)) / (8.0 - 5.0)
        assert pred.queue_wait_mean_s == pytest.approx(expected)
        # Strictly below the pooled-M/M/1 wait the seed model reported.
        assert pred.queue_wait_mean_s < (5.0 / 8.0) / (8.0 - 5.0)


class TestContextGrowthAwareTpot:
    """The analytic TPOT must track measured inter-token time at high
    batch: mean context grows over a request's decode, so the iteration
    estimate averages the in -> in+out trajectory (overhead included)
    instead of evaluating one fixed context."""

    def test_analytic_tpot_gap_bounded_on_high_batch_config(
        self, tiny_model, cluster_a10_4
    ):
        from repro.parallel.config import parse_config
        from repro.workloads.synthetic import constant_workload

        cfg = parse_config("T2")
        n, prompt, output = 64, 256, 96  # one 64-deep decode batch
        measured = (
            VllmLikeEngine(tiny_model, cluster_a10_4, cfg)
            .run(constant_workload(n, prompt, output))
            .latency.tpot.mean
        )
        rates = predict_request_rate(
            tiny_model, cluster_a10_4, cfg, cfg, prompt, output, concurrency=n
        )
        assert rates.tpot_s is not None
        new_gap = abs(rates.tpot_s - measured) / measured
        # The first-order quotient (batch / decode rate, no overhead, one
        # mid-point context) under-predicts; the growth-aware estimate
        # must be strictly closer and within a tight bound.
        old_estimate = rates.max_batch_size / rates.decode_tokens_per_s
        old_gap = abs(old_estimate - measured) / measured
        assert new_gap < old_gap
        assert new_gap < 0.05

    def test_objective_consumes_growth_aware_tpot(
        self, tiny_model, cluster_a10_4
    ):
        from dataclasses import replace

        from repro.parallel.config import parse_config

        cfg = parse_config("T2")
        rates = predict_request_rate(
            tiny_model, cluster_a10_4, cfg, cfg, 256.0, 96.0
        )
        objective = ServingObjective(kind="slo", request_rate=0.1)
        pred = objective.predict(rates, 256.0, 96.0)
        assert pred.tpot_s == rates.tpot_s
        # Without the field the objective falls back to the old quotient.
        legacy = replace(rates, tpot_s=None)
        fallback = objective.predict(legacy, 256.0, 96.0)
        assert fallback.tpot_s == pytest.approx(
            rates.max_batch_size / rates.decode_tokens_per_s
        )
