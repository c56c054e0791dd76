"""Columnar workloads: every builder against its per-object oracle.

The workload builders write numpy columns; the per-object builders they
replaced are kept here, verbatim in behaviour, as the oracles. For every
dataset sampler, synthetic builder, arrival stamper and both branches of
``subset``, the ``requests`` view must equal the oracle's tuple field for
field, with floats compared by ``.hex()`` (bit for bit) and with the same
Python types. Also here: the ``WorkloadSpec`` value semantics, the
duplicate-id rejection on every simulation path, and the promise that the
fluid tier and the result cache never build the ``requests`` view.
"""

import json
import math
import pickle
from dataclasses import replace

import numpy as np
import pytest

from repro.cluster.fleet import workload_averages
from repro.cluster.fluid import FluidSimulator
from repro.engines.base import EngineOptions
from repro.engines.vllm_like import VllmLikeEngine
from repro.errors import ConfigurationError
from repro.exec import CellExecutor, CellSpec, ResultCache
from repro.hardware.cluster import make_cluster
from repro.models.registry import get_model
from repro.parallel.config import parse_config
from repro.runtime.request import Request
from repro.utils.rng import make_rng
from repro.workloads.arrivals import (
    _stationary_times,
    bursty_arrivals,
    diurnal_arrivals,
    poisson_arrivals,
    stamp_arrivals,
    trace_arrivals,
)
from repro.workloads.datasets import arxiv_workload, sharegpt_workload
from repro.workloads.spec import WorkloadSpec, mean_context
from repro.workloads.synthetic import (
    bimodal_workload,
    constant_workload,
    ratio_workload,
    uniform_workload,
)
from test_arrivals import _scalar_diurnal

# ---------------------------------------------------------------------- #
# Per-object oracles (the builders the columnar ones replaced)
# ---------------------------------------------------------------------- #


def _lognormal(rng, n, median, sigma, lo, hi):
    raw = rng.lognormal(mean=np.log(median), sigma=sigma, size=n)
    return np.clip(np.round(raw), lo, hi).astype(int)


def _pairs(inputs, outputs):
    return tuple(
        Request(i, p, o)
        for i, (p, o) in enumerate(zip(inputs.tolist(), outputs.tolist(), strict=True))
    )


def oracle_sharegpt(n, seed):
    rng = make_rng(seed)
    inputs = _lognormal(rng, n, 250, 1.0, 4, 4096)
    latent = rng.normal(size=n)
    out_raw = np.exp(np.log(200) + 0.85 * (0.3 * latent + 0.7 * rng.normal(size=n)))
    outputs = np.clip(np.round(out_raw), 4, 2048).astype(int)
    return _pairs(inputs, outputs)


def oracle_arxiv(n, seed):
    rng = make_rng(seed)
    inputs = _lognormal(rng, n, 2800, 0.40, 512, 6144)
    outputs = _lognormal(rng, n, 180, 0.45, 32, 640)
    return _pairs(inputs, outputs)


def oracle_constant(n, p, o):
    return tuple(Request(request_id=i, prompt_len=p, output_len=o) for i in range(n))


def oracle_uniform(n, prompt_range, output_range, seed):
    rng = make_rng(seed)
    prompts = rng.integers(prompt_range[0], prompt_range[1] + 1, size=n)
    outputs = rng.integers(output_range[0], output_range[1] + 1, size=n)
    return tuple(
        Request(request_id=i, prompt_len=int(p), output_len=int(o))
        for i, (p, o) in enumerate(zip(prompts, outputs, strict=True))
    )


def oracle_bimodal(n, long_prompt, short_prompt, output_len, period):
    return tuple(
        Request(
            request_id=i,
            prompt_len=long_prompt if i % period == 0 else short_prompt,
            output_len=output_len,
        )
        for i in range(n)
    )


def oracle_stamp(reqs, arrivals):
    times = np.asarray(arrivals, dtype=float).tolist()
    return tuple(
        Request(r.request_id, r.prompt_len, r.output_len, t)
        for r, t in zip(reqs, times, strict=True)
    )


def oracle_subset(reqs, n):
    head = reqs[:n]
    full_span = max(r.arrival_time for r in reqs)
    if full_span <= 0:
        return head
    target_span = len(head) * full_span / len(reqs)
    raw_span = max(r.arrival_time for r in head)
    if raw_span > 0:
        scale = target_span / raw_span
        return tuple(replace(r, arrival_time=r.arrival_time * scale) for r in head)
    gap = target_span / len(head)
    return tuple(replace(r, arrival_time=(i + 1) * gap) for i, r in enumerate(head))


def rows(reqs):
    """Each request as typed fields, floats as hex (bit-exact)."""
    out = []
    for r in reqs:
        assert type(r.request_id) is int
        assert type(r.prompt_len) is int
        assert type(r.output_len) is int
        assert type(r.arrival_time) is float
        out.append((r.request_id, r.prompt_len, r.output_len, r.arrival_time.hex()))
    return out


def assert_view_matches(workload, oracle):
    assert rows(workload.requests) == rows(oracle)
    assert workload.num_requests == len(oracle)


# ---------------------------------------------------------------------- #
# Differential tests
# ---------------------------------------------------------------------- #


class TestBuildersMatchOracle:
    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_datasets(self, seed):
        assert_view_matches(sharegpt_workload(500, seed=seed), oracle_sharegpt(500, seed))
        assert_view_matches(arxiv_workload(300, seed=seed), oracle_arxiv(300, seed))

    def test_synthetic(self):
        assert_view_matches(constant_workload(9, 128, 32), oracle_constant(9, 128, 32))
        assert_view_matches(
            uniform_workload(40, (10, 20), (1, 5), seed=3),
            oracle_uniform(40, (10, 20), (1, 5), 3),
        )
        assert_view_matches(
            bimodal_workload(11, 6144, 256, 16, period=3),
            oracle_bimodal(11, 6144, 256, 16, 3),
        )
        assert_view_matches(
            ratio_workload(5, 0.1, prompt_len=3000), oracle_constant(5, 3000, 300)
        )

    @pytest.mark.parametrize("seed", [0, 5])
    def test_stationary_stampers(self, seed):
        base = sharegpt_workload(300, seed=seed)
        reqs = oracle_sharegpt(300, seed)
        assert_view_matches(
            poisson_arrivals(base, 4.0, seed=seed),
            oracle_stamp(reqs, _stationary_times(300, 4.0, None, seed)),
        )
        assert_view_matches(
            bursty_arrivals(base, 4.0, burstiness=6.0, seed=seed),
            oracle_stamp(reqs, _stationary_times(300, 4.0, 6.0, seed)),
        )

    @pytest.mark.parametrize("burstiness", [1.0, 8.0])
    def test_diurnal(self, burstiness):
        base = sharegpt_workload(400, seed=2)
        got = diurnal_arrivals(base, 6.0, 30.0, burstiness=burstiness, seed=2)
        want = _scalar_diurnal(base, 6.0, 30.0, burstiness=burstiness, seed=2)
        assert_view_matches(got, oracle_stamp(oracle_sharegpt(400, 2), want))

    def test_trace_replay(self, tmp_path):
        stamps = [1700000003.5, 1700000000.25, 1700000001.0, 1700000007.75, 9e9]
        path = tmp_path / "trace.json"
        path.write_text(json.dumps(stamps))
        base = constant_workload(4, 100, 10)
        for rate in (None, 2.5):
            shifted = [t - min(stamps) for t in sorted(stamps)[:4]]
            if rate is not None:
                scale = (len(shifted) / shifted[-1]) / rate
                shifted = [t * scale for t in shifted]
            assert_view_matches(
                trace_arrivals(base, path, rate_rps=rate),
                oracle_stamp(oracle_constant(4, 100, 10), shifted),
            )

    def test_explicit_stamp_mixed_types(self):
        base = constant_workload(4, 100, 10)
        stamps = [0, 0.5, np.float64(1.25), 2]
        assert_view_matches(
            stamp_arrivals(base, stamps), oracle_stamp(base.requests, stamps)
        )

    @pytest.mark.parametrize("n", [1, 3, 17, 64, 200])
    def test_subset_rescale_branch(self, n):
        wl = bursty_arrivals(sharegpt_workload(64, seed=4), 3.0, burstiness=9.0, seed=4)
        assert_view_matches(wl.subset(n), oracle_subset(wl.requests, n))

    def test_subset_even_spread_branch(self):
        stamps = [0.0, 0.0, 0.0, 0.7, 1.9, 3.1, 4.0, 4.0]
        wl = stamp_arrivals(constant_workload(8, 100, 20), stamps)
        for n in (1, 2, 3):
            assert_view_matches(wl.subset(n), oracle_subset(wl.requests, n))

    def test_subset_offline_branch(self):
        wl = sharegpt_workload(50, seed=1)
        assert_view_matches(wl.subset(20), oracle_subset(wl.requests, 20))


# ---------------------------------------------------------------------- #
# Value semantics and validation
# ---------------------------------------------------------------------- #


class TestWorkloadSpec:
    def test_columns_are_read_only_typed_copies(self):
        prompts = np.array([5, 6, 7])
        wl = WorkloadSpec("w", prompt_len=prompts, output_len=[1, 2, 3])
        assert [c.dtype for c in wl.columns] == [np.int64] * 3 + [np.float64]
        assert wl.request_id.tolist() == [0, 1, 2]
        assert wl.arrival_time.tolist() == [0.0, 0.0, 0.0]
        with pytest.raises(ValueError):
            wl.prompt_len[0] = 9
        prompts[0] = 99  # the caller's array is neither frozen nor aliased
        assert wl.prompt_len[0] == 5

    def test_view_is_built_once_and_cached(self):
        wl = sharegpt_workload(20, seed=0)
        assert wl._requests is None
        assert wl.requests is wl.requests

    def test_from_requests_keeps_the_given_objects(self):
        reqs = (Request(4, 10, 2, 0.5), Request(2, 11, 3, 0.25))
        wl = WorkloadSpec.from_requests("hand", reqs)
        assert wl.requests == reqs
        assert wl.request_id.tolist() == [4, 2]
        assert wl.arrival_time.tolist() == [0.5, 0.25]

    def test_equality_hash_and_pickle(self):
        a = poisson_arrivals(sharegpt_workload(30, seed=3), 2.0, seed=3)
        b = poisson_arrivals(sharegpt_workload(30, seed=3), 2.0, seed=3)
        assert a == b and hash(a) == hash(b)
        a.requests  # noqa: B018 - build the view on one side only
        restored = pickle.loads(pickle.dumps(a))
        assert restored == a
        assert restored._requests is None
        with pytest.raises(ValueError):
            restored.arrival_time[0] = 1.0
        nudged = a.arrival_time.copy()
        nudged[7] = np.nextafter(nudged[7], np.inf)
        assert stamp_arrivals(a, nudged) != a
        assert stamp_arrivals(a, a.arrival_time, name="other") != a

    @pytest.mark.parametrize(
        "row",
        [(3, 0, 5, 0.0), (3, 4, 0, 0.0), (3, 4, 5, math.inf), (3, 4, 5, math.nan),
         (3, 4, 5, -1.0)],
    )
    def test_first_invalid_row_reported_as_request_would(self, row):
        good = [(0, 1, 1, 0.0), (1, 2, 2, 1.0)]
        cols = list(zip(*good, row, (9, 0, 0, -2.0), strict=True))
        with pytest.raises(ConfigurationError) as per_object:
            Request(*row)
        with pytest.raises(ConfigurationError) as columnar:
            WorkloadSpec(
                "bad",
                request_id=cols[0],
                prompt_len=cols[1],
                output_len=cols[2],
                arrival_time=cols[3],
            )
        assert str(columnar.value) == str(per_object.value)

    def test_shape_and_empty_errors(self):
        with pytest.raises(ConfigurationError, match="no requests"):
            WorkloadSpec("e", prompt_len=[], output_len=[])
        with pytest.raises(ConfigurationError, match="equal length"):
            WorkloadSpec("m", prompt_len=[1, 2], output_len=[1])
        with pytest.raises(ConfigurationError, match="equal length"):
            WorkloadSpec("m", prompt_len=[[1, 2]], output_len=[[1, 2]])

    def test_duplicate_ids_rejected_naming_the_first(self):
        with pytest.raises(ConfigurationError, match="duplicate request id 7"):
            WorkloadSpec(
                "dup",
                request_id=[7, 5, 9, 7, 5],
                prompt_len=[1] * 5,
                output_len=[1] * 5,
            )
        reqs = [Request(i % 5, 64, 8) for i in range(6)]
        with pytest.raises(ConfigurationError, match="duplicate request id 0"):
            WorkloadSpec.from_requests("dup", reqs)

    def test_unsorted_unique_ids_accepted(self):
        wl = WorkloadSpec("u", request_id=[3, 1, 2], prompt_len=[1] * 3, output_len=[1] * 3)
        assert [r.request_id for r in wl.requests] == [3, 1, 2]


# ---------------------------------------------------------------------- #
# Simulation paths
# ---------------------------------------------------------------------- #

MODEL = get_model("15b")
CLUSTER = make_cluster("A10", 8)


def engine(**kw):
    return VllmLikeEngine(MODEL, CLUSTER, parse_config("D2T2"), EngineOptions(**kw))


PATHS = {
    "decoupled": {},
    "event": {"coupled": True, "router": "jsq"},
    "fluid": {"coupled": True, "router": "jsq", "fidelity": "fluid"},
}


class TestSimulationPaths:
    @pytest.mark.parametrize("path", sorted(PATHS))
    def test_duplicate_ids_rejected_before_simulating(self, path):
        """Two requests sharing id 0: the event tier used to simulate the
        whole run and fail late on the latency merge, and the fluid tier
        silently reported every request."""
        reqs = [Request(i % 5, 64, 8, 0.1 * i) for i in range(6)]
        with pytest.raises(ConfigurationError, match="duplicate request id 0"):
            engine(**PATHS[path]).run(reqs)

    @pytest.mark.parametrize("path", sorted(PATHS))
    def test_request_list_and_workload_agree(self, path):
        wl = poisson_arrivals(sharegpt_workload(60, seed=5), 6.0, seed=5)
        a = engine(**PATHS[path]).run(wl)
        b = engine(**PATHS[path]).run(list(wl.requests))
        assert a.total_time.hex() == b.total_time.hex()
        assert a.latency == b.latency

    def test_fluid_run_never_builds_the_view(self):
        wl = diurnal_arrivals(sharegpt_workload(3000, seed=1), 40.0, 60.0, seed=1)
        result = engine(**PATHS["fluid"], autoscaler="threshold", max_dp=4).run(wl)
        assert result.num_requests == 3000
        assert wl._requests is None

    def test_cached_fluid_cell_never_builds_the_view(self, tmp_path):
        wl = poisson_arrivals(sharegpt_workload(2000, seed=2), 30.0, seed=2)
        spec = CellSpec(
            engine="vllm", model=MODEL, cluster=CLUSTER, config="D2T2",
            options=EngineOptions(**PATHS["fluid"]), workload=wl,
        )
        executor = CellExecutor(jobs=1, cache=ResultCache(root=tmp_path))
        cold = executor.run([spec])[0]
        warm = executor.run([replace(spec)])[0]
        assert executor.cache.hits == 1
        assert cold.latency == warm.latency
        assert wl._requests is None

    def test_router_context_and_residency_match_per_request_loops(self):
        wl = sharegpt_workload(2000, seed=9)
        eng = engine(**PATHS["fluid"])
        assert eng.router_context(wl) == eng.router_context(list(wl.requests))
        sim = FluidSimulator(eng, wl)
        w_num = w_den = 0.0
        for r in wl.requests:
            weight = max(0, r.output_len - 1)
            w_num += weight * (r.prompt_len + r.output_len / 2.0)
            w_den += weight
        assert sim.resident_ctx.hex() == (w_num / w_den).hex()

    @pytest.mark.parametrize(
        "wl",
        [
            sharegpt_workload(3000, seed=4),
            arxiv_workload(800, seed=4),
            constant_workload(257, 1024, 32),
        ],
        ids=["sharegpt", "arxiv", "const"],
    )
    def test_setup_column_sums_match_generator_sums(self, wl):
        # The column sums router_context and workload_averages read
        # against the per-request generator sums they replaced.
        reqs = list(wl.requests)
        n = len(reqs)
        ctx = sum(p + o / 2.0 for p, o in zip(
            [r.prompt_len for r in reqs], [r.output_len for r in reqs], strict=True
        )) / n
        averages = (
            sum(r.prompt_len for r in reqs) / n,
            sum(r.output_len for r in reqs) / n,
        )
        assert mean_context(wl).hex() == mean_context(reqs).hex() == ctx.hex()
        assert [a.hex() for a in workload_averages(wl)] == [a.hex() for a in averages]
        assert [a.hex() for a in workload_averages(reqs)] == [a.hex() for a in averages]
        eng = engine(**PATHS["fluid"])
        assert eng.router_context(wl) == eng.router_context(reqs)
