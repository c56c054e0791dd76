"""Workload samplers: shapes, determinism, statistics."""

import pytest

from repro.errors import ConfigurationError
from repro.workloads.arrivals import poisson_arrivals
from repro.workloads.datasets import arxiv_workload, sample_dataset, sharegpt_workload
from repro.workloads.spec import WorkloadSpec, workload_stats
from repro.workloads.synthetic import (
    constant_workload,
    ratio_workload,
    uniform_workload,
)


class TestSpec:
    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            WorkloadSpec.from_requests("x", ())

    def test_totals(self):
        wl = constant_workload(10, 100, 20)
        assert wl.total_input_tokens == 1000
        assert wl.total_output_tokens == 200
        assert wl.decode_prefill_ratio == pytest.approx(0.2)

    def test_subset(self):
        wl = constant_workload(10, 100, 20)
        assert wl.subset(3).num_requests == 3
        with pytest.raises(ConfigurationError):
            wl.subset(0)

    def test_offline_subset_keeps_zero_arrivals(self):
        wl = constant_workload(10, 100, 20)
        assert all(r.arrival_time == 0.0 for r in wl.subset(4).requests)

    def test_subset_preserves_offered_rate(self):
        """Regression: a raw prefix kept the original timestamps, so a
        bursty workload's subsample could grossly misstate the offered
        load that simulate_top / tune_chunk_size tuned against."""
        from repro.workloads.arrivals import bursty_arrivals, offered_rate

        wl = bursty_arrivals(
            constant_workload(64, 100, 20), 4.0, burstiness=16.0, seed=3
        )
        full = offered_rate(wl)
        for n in (8, 16, 48):
            sub = wl.subset(n)
            assert sub.num_requests == n
            assert offered_rate(sub) == pytest.approx(full)
            # Arrival order survives the rescale.
            stamps = [r.arrival_time for r in sub.requests]
            assert stamps == sorted(stamps)
        # The full-size "subset" is the identity on timestamps.
        assert [r.arrival_time for r in wl.subset(64).requests] == [
            r.arrival_time for r in wl.requests
        ]

    def test_subset_of_burst_prefix_spreads_at_full_rate(self):
        """A prefix that is entirely a t=0 burst of an online workload is
        re-stamped (evenly) rather than mistaken for an offline run."""
        from dataclasses import replace

        from repro.workloads.arrivals import offered_rate

        base = constant_workload(8, 100, 20)
        stamps = [0.0, 0.0, 0.0, 1.0, 2.0, 3.0, 4.0, 4.0]
        wl = WorkloadSpec.from_requests(
            "burst",
            tuple(
                replace(r, arrival_time=t)
                for r, t in zip(base.requests, stamps)
            ),
        )
        sub = wl.subset(3)
        assert offered_rate(sub) == pytest.approx(offered_rate(wl))
        assert all(r.arrival_time > 0 for r in sub.requests)

    def test_stats(self):
        stats = workload_stats(constant_workload(5, 100, 20))
        assert stats.input_mean == 100
        assert stats.output_p90 == 20


class TestSynthetic:
    def test_constant(self):
        wl = constant_workload(4, 128, 32)
        assert all(r.prompt_len == 128 and r.output_len == 32 for r in wl.requests)

    def test_uniform_in_range(self):
        wl = uniform_workload(50, (10, 20), (1, 5), seed=3)
        assert all(10 <= r.prompt_len <= 20 for r in wl.requests)
        assert all(1 <= r.output_len <= 5 for r in wl.requests)

    def test_uniform_deterministic(self):
        a = uniform_workload(10, (10, 20), (1, 5), seed=3)
        b = uniform_workload(10, (10, 20), (1, 5), seed=3)
        assert [r.prompt_len for r in a.requests] == [r.prompt_len for r in b.requests]

    def test_uniform_invalid_range(self):
        with pytest.raises(ConfigurationError):
            uniform_workload(10, (20, 10), (1, 5))

    def test_ratio(self):
        wl = ratio_workload(10, 0.1, prompt_len=3000)
        assert wl.requests[0].output_len == 300
        assert wl.requests[0].prompt_len == 3000

    def test_ratio_zero_gives_prefill_only(self):
        wl = ratio_workload(10, 0.0)
        assert all(r.output_len == 1 for r in wl.requests)

    def test_ratio_negative_rejected(self):
        with pytest.raises(ConfigurationError):
            ratio_workload(10, -0.1)

    def test_poisson_arrivals_increase(self):
        base = constant_workload(20, 100, 10)
        wl = poisson_arrivals(base, rate_rps=2.0, seed=1)
        times = [r.arrival_time for r in wl.requests]
        assert times == sorted(times)
        assert times[0] > 0


class TestDatasets:
    def test_arxiv_shape(self):
        """Fig. 9a: long inputs, short outputs -> low D:P."""
        stats = workload_stats(arxiv_workload(500, seed=1))
        assert stats.input_mean > 2000
        assert stats.output_mean < 400
        assert stats.decode_prefill_ratio < 0.15

    def test_sharegpt_shape(self):
        """Fig. 9b: comparable input/output lengths -> D:P near 1."""
        stats = workload_stats(sharegpt_workload(2000, seed=1))
        assert 150 < stats.input_mean < 800
        assert 150 < stats.output_mean < 500
        assert 0.3 < stats.decode_prefill_ratio < 1.5

    def test_arxiv_much_longer_inputs_than_sharegpt(self):
        a = workload_stats(arxiv_workload(300, seed=2))
        s = workload_stats(sharegpt_workload(300, seed=2))
        assert a.input_mean > 3 * s.input_mean

    def test_deterministic(self):
        a = sharegpt_workload(50, seed=9)
        b = sharegpt_workload(50, seed=9)
        assert [r.prompt_len for r in a.requests] == [r.prompt_len for r in b.requests]

    def test_sample_dataset_defaults(self):
        assert sample_dataset("sharegpt").num_requests == 2000
        assert sample_dataset("arxiv").num_requests == 500

    def test_sample_dataset_unknown(self):
        with pytest.raises(ConfigurationError):
            sample_dataset("wikipedia")

    def test_lengths_positive_and_bounded(self):
        for wl in (arxiv_workload(200, seed=3), sharegpt_workload(200, seed=3)):
            for r in wl.requests:
                assert 1 <= r.prompt_len <= 8192
                assert 1 <= r.output_len <= 4096
