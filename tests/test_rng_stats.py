"""RNG determinism and statistics helpers."""

import numpy as np
import pytest

from repro.utils.rng import make_rng, spawn_rng
from repro.utils.stats import Summary, geomean, mean, percentile, summarize


class TestRng:
    def test_default_seed_is_deterministic(self):
        a = make_rng().integers(0, 1000, 10)
        b = make_rng().integers(0, 1000, 10)
        assert np.array_equal(a, b)

    def test_explicit_seed(self):
        a = make_rng(7).random(5)
        b = make_rng(7).random(5)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        assert not np.array_equal(make_rng(1).random(8), make_rng(2).random(8))

    def test_spawn_is_deterministic(self):
        c1 = spawn_rng(make_rng(3), "workload").random(4)
        c2 = spawn_rng(make_rng(3), "workload").random(4)
        assert np.array_equal(c1, c2)

    def test_spawn_keys_are_independent(self):
        parent = make_rng(3)
        a = spawn_rng(parent, "a").random(4)
        parent2 = make_rng(3)
        b = spawn_rng(parent2, "b").random(4)
        assert not np.array_equal(a, b)


class TestGeomean:
    def test_simple(self):
        assert geomean([1, 4]) == pytest.approx(2.0)

    def test_identity(self):
        assert geomean([3.0, 3.0, 3.0]) == pytest.approx(3.0)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            geomean([])

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            geomean([1.0, 0.0])

    def test_less_than_arithmetic_mean(self):
        values = [1.0, 2.0, 10.0]
        assert geomean(values) < mean(values)


class TestSummarize:
    def test_fields(self):
        s = summarize([1, 2, 3, 4, 5])
        assert isinstance(s, Summary)
        assert s.count == 5
        assert s.mean == pytest.approx(3.0)
        assert s.minimum == 1
        assert s.maximum == 5
        assert s.p50 == pytest.approx(3.0)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            summarize([])

    @pytest.mark.parametrize("n", [1, 2, 3, 100, 101, 4096, 50_001])
    @pytest.mark.parametrize("ties", [False, True])
    def test_percentiles_match_separate_calls(self, n, ties):
        # summarize reads its three ranks from one np.percentile call;
        # each must equal the call for that rank alone, bit for bit.
        values = np.random.default_rng(n).lognormal(0.0, 1.5, n)
        if ties:
            values = np.round(values, 1)  # many repeated values
        s = summarize(values)
        for got, q in ((s.p50, 50), (s.p90, 90), (s.p99, 99)):
            assert got.hex() == float(np.percentile(values, q)).hex(), q

    def test_percentile(self):
        assert percentile([0, 10], 50) == pytest.approx(5.0)
        with pytest.raises(ValueError):
            percentile([], 50)
