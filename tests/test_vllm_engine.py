"""The vLLM-like static engine: correctness and scheduling behaviour."""

import pytest

from repro.cluster.replica import NO_PROGRESS_LIMIT
from repro.engines.base import EngineOptions
from repro.engines.vllm_like import VllmLikeEngine
from repro.errors import CapacityError, ConfigurationError, SchedulingError
from repro.parallel.config import parse_config
from repro.runtime.request import Request
from repro.workloads.synthetic import constant_workload


class TestCompletion:
    def test_all_requests_complete(self, tiny_model, cluster_a10_4):
        wl = constant_workload(16, 256, 32)
        r = VllmLikeEngine(tiny_model, cluster_a10_4, parse_config("T2P2")).run(wl)
        assert r.num_requests == 16
        assert r.output_tokens == 16 * 32
        assert r.total_time > 0

    def test_empty_workload_rejected(self, tiny_model, cluster_a10_4):
        with pytest.raises(ConfigurationError):
            VllmLikeEngine(tiny_model, cluster_a10_4, parse_config("T2P2")).run([])

    def test_config_must_fit_cluster(self, tiny_model, cluster_a10_4):
        with pytest.raises(ConfigurationError):
            VllmLikeEngine(tiny_model, cluster_a10_4, parse_config("T4P2"))

    def test_oversized_prompt_raises(self, tiny_model, cluster_a10_4):
        wl = constant_workload(1, 4_000_000, 4)
        with pytest.raises(CapacityError):
            VllmLikeEngine(tiny_model, cluster_a10_4, parse_config("T2P2")).run(wl)

    def test_model_must_fit(self, model_70b, cluster_a10_8):
        with pytest.raises(CapacityError):
            VllmLikeEngine(model_70b, cluster_a10_8, parse_config("T2")).run(
                constant_workload(2, 16, 4)
            )

    @pytest.mark.parametrize("label", ["T4", "P4", "T2P2", "D2T2", "D2P2", "D4"])
    def test_all_configs_complete(self, tiny_model, cluster_a10_4, label):
        wl = constant_workload(12, 300, 20)
        r = VllmLikeEngine(tiny_model, cluster_a10_4, parse_config(label)).run(wl)
        assert r.num_requests == 12

    def test_deterministic(self, tiny_model, cluster_a10_4):
        wl = constant_workload(8, 200, 16)
        eng = lambda: VllmLikeEngine(tiny_model, cluster_a10_4, parse_config("T2P2"))
        assert eng().run(wl).total_time == pytest.approx(eng().run(wl).total_time)


    def test_livelock_guard_names_time_replica_and_engine(
        self, tiny_model, cluster_a10_4, monkeypatch
    ):
        # An iteration that never makes progress: the replica watchdog
        # fires at its bound with the rule, the virtual time, the replica
        # and the engine label in its message.
        calls = []

        def stuck(self, state, now):
            calls.append(now)
            return now

        monkeypatch.setattr(VllmLikeEngine, "_chunked_iteration", stuck)
        engine = VllmLikeEngine(
            tiny_model, cluster_a10_4, parse_config("D2T2"),
            EngineOptions(chunked_prefill=True),
        )
        requests = [Request(i, 16, 4, arrival_time=1.5) for i in range(2)]
        with pytest.raises(SchedulingError) as exc:
            engine.run(requests)
        assert str(exc.value) == (
            f"no-progress watchdog: {NO_PROGRESS_LIMIT} resumes in a row left "
            "the queues, finished count, decode backlog and head prefill "
            "unchanged at t=1.5 s on replica 0 of vllm[D2T2+chunked]"
        )
        # The admitting resume, then the bound's repeats.
        assert len(calls) == NO_PROGRESS_LIMIT + 1


class TestScheduling:
    def test_phase_times_cover_total(self, tiny_model, cluster_a10_4, small_sharegpt):
        r = VllmLikeEngine(tiny_model, cluster_a10_4, parse_config("T2P2")).run(
            small_sharegpt
        )
        assert sum(r.phase_time.values()) == pytest.approx(r.total_time, rel=1e-6)

    def test_static_engine_has_no_transitions(self, tiny_model, cluster_a10_4):
        wl = constant_workload(8, 200, 16)
        r = VllmLikeEngine(tiny_model, cluster_a10_4, parse_config("T4")).run(wl)
        assert r.transitions == 0

    def test_batching_amortizes_decode(self, tiny_model, cluster_a10_4):
        """Throughput grows with request count (bigger decode batches)."""
        engine = VllmLikeEngine(tiny_model, cluster_a10_4, parse_config("T4"))
        small = engine.run(constant_workload(2, 256, 64))
        large = engine.run(constant_workload(64, 256, 64))
        assert large.throughput_rps > 1.5 * small.throughput_rps

    def test_preemption_under_pressure(self, tiny_model, cluster_a10_4):
        """Long outputs with tight KV must finish via recompute preemption."""
        opts = EngineOptions(max_num_seqs=64)
        wl = constant_workload(48, 2000, 800)
        r = VllmLikeEngine(tiny_model, cluster_a10_4, parse_config("T2"), opts).run(wl)
        assert r.num_requests == 48


class TestChunkedPrefill:
    def test_completes(self, tiny_model, cluster_a10_4, small_arxiv):
        opts = EngineOptions(chunked_prefill=True, chunk_size=1024)
        r = VllmLikeEngine(
            tiny_model, cluster_a10_4, parse_config("T2P2"), opts
        ).run(small_arxiv)
        assert r.num_requests == small_arxiv.num_requests
        assert "+chunked" in r.label

    def test_mixed_phase_present(self, tiny_model, cluster_a10_4, small_sharegpt):
        opts = EngineOptions(chunked_prefill=True, chunk_size=512)
        r = VllmLikeEngine(
            tiny_model, cluster_a10_4, parse_config("T2"), opts
        ).run(small_sharegpt)
        assert r.phase_time.get("mixed", 0.0) > 0.0

    def test_same_tokens_as_plain(self, tiny_model, cluster_a10_4, small_arxiv):
        plain = VllmLikeEngine(tiny_model, cluster_a10_4, parse_config("T2")).run(
            small_arxiv
        )
        chunked = VllmLikeEngine(
            tiny_model,
            cluster_a10_4,
            parse_config("T2"),
            EngineOptions(chunked_prefill=True, chunk_size=1024),
        ).run(small_arxiv)
        assert chunked.output_tokens == plain.output_tokens

    def test_tiny_chunk_slower(self, tiny_model, cluster_a10_4, small_arxiv):
        """The paper: a chunk size that is too small reduces efficiency."""
        big = VllmLikeEngine(
            tiny_model,
            cluster_a10_4,
            parse_config("T2"),
            EngineOptions(chunked_prefill=True, chunk_size=4096),
        ).run(small_arxiv)
        tiny = VllmLikeEngine(
            tiny_model,
            cluster_a10_4,
            parse_config("T2"),
            EngineOptions(chunked_prefill=True, chunk_size=64),
        ).run(small_arxiv)
        assert tiny.total_time > big.total_time


class TestChunkedUnderKVPressure:
    """Chunked prefill completes the KV-bound runs the non-chunked engine
    completes, with every token and KV block accounted for."""

    @pytest.mark.parametrize(
        "gpus,label,chunk,prompt,output,n,rate",
        [
            # A recompute victim's tail past its prompt outgrows the chunk.
            (2, "T2", 512, 2048, 2048, 8, 0.0),
            # The KV sits with a partially prefilled queued prompt.
            (2, "T2", 2048, 2048, 2048, 12, 0.0),
            # The KV sits with a prompt whose prefill completes this
            # iteration.
            (8, "D4T2", 512, 12000, 1000, 40, 1.0),
        ],
        ids=["victim-tail", "partial-prefill", "completing-prefill"],
    )
    def test_completes_clean(self, gpus, label, chunk, prompt, output, n, rate):
        from repro.check import Sanitizer
        from repro.engines.base import RunHooks
        from repro.hardware.cluster import make_cluster
        from repro.models.registry import get_model
        from repro.workloads.arrivals import poisson_arrivals

        wl = constant_workload(n, prompt, output)
        if rate:
            wl = poisson_arrivals(wl, rate, seed=4)
        opts = EngineOptions(
            chunked_prefill=True, chunk_size=chunk, router="jsq" if rate else "static"
        )
        san = Sanitizer()
        r = VllmLikeEngine(
            get_model("13b"), make_cluster("A10", gpus), parse_config(label), opts
        ).run(wl, RunHooks(sanitize=san))
        assert r.num_requests == n
        assert r.output_tokens == n * output
        assert r.latency.num_requests == n
        assert (r.latency.finish > 0).all()
        assert r.latency.num_preemptions.sum() > 0
        assert san.summary()["S3"] > 0
        assert san.summary()["S4"] > 0
