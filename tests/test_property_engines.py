"""Property-based tests: engine-level invariants on random workloads."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import SeesawEngine
from repro.engines.vllm_like import VllmLikeEngine
from repro.hardware.cluster import make_cluster
from repro.models.config import ModelConfig
from repro.parallel.config import parse_config
from repro.runtime.request import Request
from repro.workloads.spec import WorkloadSpec

TINY = ModelConfig(
    name="prop-tiny",
    num_layers=8,
    hidden_size=1024,
    num_heads=8,
    num_kv_heads=2,
    intermediate_size=2816,
    vocab_size=32000,
)
CLUSTER = make_cluster("A10", 4)


@st.composite
def workloads(draw):
    n = draw(st.integers(min_value=1, max_value=24))
    reqs = []
    for i in range(n):
        reqs.append(
            Request(
                request_id=i,
                prompt_len=draw(st.integers(min_value=1, max_value=4096)),
                output_len=draw(st.integers(min_value=1, max_value=512)),
            )
        )
    return WorkloadSpec.from_requests("prop", reqs)


class TestEngineInvariants:
    @given(wl=workloads())
    @settings(max_examples=25, deadline=None)
    def test_vllm_conserves_tokens(self, wl):
        r = VllmLikeEngine(TINY, CLUSTER, parse_config("T2P2")).run(wl)
        assert r.num_requests == wl.num_requests
        assert r.input_tokens == wl.total_input_tokens
        assert r.output_tokens == wl.total_output_tokens
        assert r.total_time > 0

    @given(wl=workloads())
    @settings(max_examples=25, deadline=None)
    def test_seesaw_conserves_tokens(self, wl):
        r = SeesawEngine(
            TINY, CLUSTER, parse_config("P4"), parse_config("T4")
        ).run(wl)
        assert r.num_requests == wl.num_requests
        assert r.output_tokens == wl.total_output_tokens
        # Swap accounting balances: nothing stays parked.
        assert r.swapped_in_tokens == r.swapped_out_tokens

    @given(wl=workloads())
    @settings(max_examples=15, deadline=None)
    def test_more_work_takes_longer(self, wl):
        engine = VllmLikeEngine(TINY, CLUSTER, parse_config("T2P2"))
        base = engine.run(wl).total_time
        bigger = WorkloadSpec.from_requests(
            "prop2",
            wl.requests
            + tuple(
                Request(request_id=1000 + i, prompt_len=512, output_len=64)
                for i in range(8)
            ),
        )
        assert engine.run(bigger).total_time > base

    @given(wl=workloads())
    @settings(max_examples=15, deadline=None)
    def test_phase_times_account_for_wall_clock(self, wl):
        r = SeesawEngine(
            TINY, CLUSTER, parse_config("P4"), parse_config("T4")
        ).run(wl)
        assert sum(r.phase_time.values()) == r.total_time or abs(
            sum(r.phase_time.values()) - r.total_time
        ) <= 1e-6 * r.total_time
