"""Autotuner: analytic predictor and configuration search."""

import pytest

from repro.autotuner.predictor import (
    predict_decode_rate,
    predict_prefill_rate,
    predict_request_rate,
)
from repro.autotuner.search import (
    best_seesaw_pair,
    best_static_config,
    compare_best,
    rank_seesaw_pairs,
    rank_static_configs,
    tune_chunk_size,
)
from repro.errors import CapacityError
from repro.parallel.config import parse_config


class TestPredictor:
    def test_prefill_rate_pp_beats_tp(self, model_34b, cluster_a10_8):
        """Observation 1 at the predictor level."""
        pp8 = predict_prefill_rate(model_34b, cluster_a10_8, parse_config("P8"))
        t8 = predict_prefill_rate(model_34b, cluster_a10_8, parse_config("T8"))
        assert pp8 > 1.5 * t8

    def test_decode_rate_tp_beats_pp(self, model_34b, cluster_a10_8):
        """Observation 2 at the predictor level (modest batches)."""
        t8, _ = predict_decode_rate(
            model_34b, cluster_a10_8, parse_config("T8"), 2048, concurrency=32
        )
        p8, _ = predict_decode_rate(
            model_34b, cluster_a10_8, parse_config("P8"), 2048, concurrency=32
        )
        assert t8 > 1.5 * p8

    def test_dp_scales_batch_linearly(self, model_34b, cluster_a10_8):
        _, b1 = predict_decode_rate(model_34b, cluster_a10_8, parse_config("T4"), 2048)
        _, b2 = predict_decode_rate(
            model_34b, cluster_a10_8, parse_config("D2T4"), 2048
        )
        assert b2 == pytest.approx(2 * b1, abs=2)

    def test_concurrency_caps_batch(self, model_34b, cluster_a10_8):
        _, b = predict_decode_rate(
            model_34b, cluster_a10_8, parse_config("T4P2"), 1024, concurrency=10
        )
        assert b <= 10

    def test_request_rate_positive(self, model_34b, cluster_a10_8):
        rates = predict_request_rate(
            model_34b,
            cluster_a10_8,
            parse_config("P8"),
            parse_config("T4P2"),
            3000,
            200,
        )
        assert rates.request_rate > 0
        assert rates.max_batch_size >= 1

    def test_request_rate_validates(self, model_34b, cluster_a10_8):
        with pytest.raises(CapacityError):
            predict_request_rate(
                model_34b,
                cluster_a10_8,
                parse_config("P8"),
                parse_config("T4P2"),
                0,
                10,
            )


class TestSearch:
    def test_rank_static_sorted(self, model_34b, cluster_a10_8, small_arxiv):
        ranked = rank_static_configs(model_34b, cluster_a10_8, small_arxiv)
        rates = [r.predicted_rps for r in ranked]
        assert rates == sorted(rates, reverse=True)
        assert all(r.config.num_gpus == 8 for r in ranked)

    def test_rank_pairs_dp_matched(self, model_34b, cluster_a10_8, small_arxiv):
        pairs = rank_seesaw_pairs(model_34b, cluster_a10_8, small_arxiv)
        assert all(p.prefill_config.dp == p.decode_config.dp for p in pairs)

    def test_best_static_feasible(self, model_70b, cluster_a10_8, small_arxiv):
        cfg = best_static_config(model_70b, cluster_a10_8, small_arxiv)
        assert cfg.num_gpus == 8
        assert cfg.tp * cfg.pp >= 8  # 70B needs the full machine per replica

    def test_best_pair_prefers_pp_prefill_tp_decode_for_arxiv(
        self, model_34b, cluster_a10_8, small_arxiv
    ):
        cp, cd = best_seesaw_pair(model_34b, cluster_a10_8, small_arxiv)
        # Prefill side should use less TP than decode side (the paper's
        # central finding); allow equality only on TP.
        assert cp.tp <= cd.tp
        assert cp.pp >= cd.pp

    def test_simulated_validation_runs(self, model_34b, cluster_a10_8, small_arxiv):
        cfg = best_static_config(
            model_34b, cluster_a10_8, small_arxiv, simulate_top=2, sample_requests=12
        )
        assert cfg.num_gpus == 8

    def test_tune_chunk_size_returns_candidate(
        self, model_34b, cluster_a10_8, small_arxiv
    ):
        size = tune_chunk_size(
            model_34b,
            cluster_a10_8,
            parse_config("T2P2D2"),
            small_arxiv,
            candidates=(512, 2048),
            sample_requests=8,
        )
        assert size in (512, 2048)

    def test_static_ranking_is_the_pair_rankings_diagonal(
        self, model_34b, cluster_a10_8, small_arxiv
    ):
        """A static config ranks as the degenerate pair (c, c): the static
        ranking is the pair ranking restricted to its diagonal."""
        static = rank_static_configs(model_34b, cluster_a10_8, small_arxiv)
        pairs = rank_seesaw_pairs(model_34b, cluster_a10_8, small_arxiv)
        assert all(r.prefill_config == r.decode_config for r in static)
        assert static == [p for p in pairs if p.prefill_config == p.decode_config]

    def test_compare_best_is_the_paper_recipe(self, tiny_model, cluster_a10_4):
        """The shared recipe: best static config with a tuned chunk size,
        the better of chunked and plain vLLM, against the best pair."""
        from repro.core.engine import SeesawEngine
        from repro.engines.base import EngineOptions
        from repro.engines.vllm_like import VllmLikeEngine
        from repro.workloads.synthetic import constant_workload

        wl = constant_workload(16, 512, 64)
        vllm, seesaw = compare_best(tiny_model, cluster_a10_4, wl, simulate_top=2)
        cfg = best_static_config(tiny_model, cluster_a10_4, wl, simulate_top=2)
        chunk = tune_chunk_size(tiny_model, cluster_a10_4, cfg, wl)
        runs = [
            VllmLikeEngine(tiny_model, cluster_a10_4, cfg, opts).run(wl)
            for opts in (
                EngineOptions(chunked_prefill=True, chunk_size=chunk),
                EngineOptions(),
            )
        ]
        want = max(runs, key=lambda r: r.throughput_rps)
        assert (vllm.label, vllm.total_time) == (want.label, want.total_time)
        cp, cd = best_seesaw_pair(tiny_model, cluster_a10_4, wl, simulate_top=2)
        ref = SeesawEngine(tiny_model, cluster_a10_4, cp, cd).run(wl)
        assert (seesaw.label, seesaw.total_time) == (ref.label, ref.total_time)

    def test_infeasible_model_raises(self, model_70b, cluster_a10_4, small_arxiv):
        with pytest.raises(CapacityError):
            rank_static_configs(model_70b, cluster_a10_4, small_arxiv)
