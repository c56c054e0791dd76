"""Runtime substrate: requests, KV cache, CPU buffer, channels, metrics."""

import functools
import operator
import random
import pytest

from repro.costmodel.breakdown import COMPONENTS, Breakdown
from repro.errors import CapacityError, ConfigurationError, SimulationError
from repro.runtime.channel import TransferChannel
from repro.runtime.cpu_buffer import CPUKVBuffer
from repro.runtime.kvcache import KVCacheManager
from repro.runtime.metrics import EngineResult, PhaseTimer, RunMetrics, merge_dp_results
from repro.runtime.request import Request, Sequence, SequenceState


def hexes(bd: Breakdown) -> list[str]:
    """Every component, read by name, exactly."""
    return [getattr(bd, name).hex() for name in COMPONENTS]


class TestRequest:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            Request(request_id=0, prompt_len=0, output_len=1)
        with pytest.raises(ConfigurationError):
            Request(request_id=0, prompt_len=1, output_len=0)

    @pytest.mark.parametrize("t", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_arrival_rejected(self, t):
        with pytest.raises(ConfigurationError, match="finite"):
            Request(0, 1, 1, t)

    def test_total_tokens(self):
        assert Request(request_id=0, prompt_len=10, output_len=5).total_tokens == 15


class TestSequence:
    def make(self, prompt=100, out=10):
        return Sequence(Request(request_id=1, prompt_len=prompt, output_len=out))

    def test_initial_state(self):
        s = self.make()
        assert s.state is SequenceState.WAITING
        assert s.remaining_prefill == 100
        assert s.context_len == 0

    def test_prefill_then_decode(self):
        s = self.make(prompt=100, out=3)
        s.advance_prefill(100)
        s.state = SequenceState.RUNNING
        assert s.is_prefill_complete
        assert s.context_len == 100
        assert s.remaining_decode == 2  # first token came from prefill
        s.advance_decode()
        assert s.context_len == 101
        s.advance_decode()
        assert s.remaining_decode == 0

    def test_stores_request_fields(self):
        req = Request(request_id=9, prompt_len=37, output_len=5, arrival_time=2.5)
        s = Sequence(req)
        assert (s.seq_id, s.prompt_len, s.arrival_time) == (
            req.request_id, req.prompt_len, req.arrival_time
        )
        assert s.prefill_target == req.prompt_len
        assert not hasattr(s, "__dict__")
        with pytest.raises(AttributeError):
            s.extra = 1
        # The stored copies stay out of the repr, which shows the request.
        assert "seq_id" not in repr(s) and "request_id=9" in repr(s)

    def test_identity_equality(self):
        a, b = self.make(), self.make()
        assert a != b
        assert a in [a] and b not in [a]

    def test_preempt_recompute_extends_target(self):
        s = self.make(prompt=100, out=10)
        s.advance_prefill(100)
        s.state = SequenceState.RUNNING
        s.advance_decode()
        s.advance_decode()
        s.preempt_recompute()
        assert s.state is SequenceState.WAITING
        assert s.remaining_prefill == 102
        assert s.generated_tokens == 2

    def test_output_len_one_needs_no_decode(self):
        s = self.make(out=1)
        s.advance_prefill(100)
        assert s.remaining_decode == 0

    def test_mark_finished(self):
        s = self.make()
        s.mark_finished(12.5)
        assert s.is_finished and s.finish_time == 12.5


class TestKVCacheManager:
    def test_block_rounding(self):
        kv = KVCacheManager(capacity_tokens=1600, block_size=16)
        assert kv.blocks_for(1) == 1
        assert kv.blocks_for(16) == 1
        assert kv.blocks_for(17) == 2

    def test_allocate_free_cycle(self):
        kv = KVCacheManager(capacity_tokens=160, block_size=16)
        kv.allocate(1, 100)
        assert kv.holds(1)
        assert kv.num_sequences == 1
        used = kv.used_blocks
        kv.free(1)
        assert kv.used_blocks == used - 7

    def test_capacity_enforced(self):
        kv = KVCacheManager(capacity_tokens=160, block_size=16)
        with pytest.raises(CapacityError):
            kv.allocate(1, 200)

    def test_double_allocate_rejected(self):
        kv = KVCacheManager(capacity_tokens=160, block_size=16)
        kv.allocate(1, 16)
        with pytest.raises(SimulationError):
            kv.allocate(1, 16)

    def test_grow_within_block_free(self):
        kv = KVCacheManager(capacity_tokens=160, block_size=16)
        kv.allocate(1, 10)
        before = kv.used_blocks
        kv.grow(1, 16)
        assert kv.used_blocks == before

    def test_grow_allocates_blocks(self):
        kv = KVCacheManager(capacity_tokens=160, block_size=16)
        kv.allocate(1, 16)
        kv.grow(1, 33)
        assert kv.used_blocks == 3

    def test_grow_capacity_error(self):
        kv = KVCacheManager(capacity_tokens=32, block_size=16)
        kv.allocate(1, 32)
        with pytest.raises(CapacityError):
            kv.grow(1, 33)

    def test_free_unknown_rejected(self):
        kv = KVCacheManager(capacity_tokens=32, block_size=16)
        with pytest.raises(SimulationError):
            kv.free(9)

    def test_reservation_lifecycle(self):
        kv = KVCacheManager(capacity_tokens=64, block_size=16)
        kv.reserve(1, 32)
        assert kv.free_tokens == 32
        kv.allocate(1, 32)  # consumes the reservation
        assert kv.free_tokens == 32
        kv.free(1)
        assert kv.free_tokens == 64

    def test_reservation_cancel(self):
        kv = KVCacheManager(capacity_tokens=64, block_size=16)
        kv.reserve(1, 32)
        kv.cancel_reservation(1)
        assert kv.free_tokens == 64

    def test_cannot_reserve_twice(self):
        kv = KVCacheManager(capacity_tokens=64, block_size=16)
        kv.reserve(1, 16)
        with pytest.raises(SimulationError):
            kv.reserve(1, 16)


class TestCPUBuffer:
    def test_fifo_order(self):
        buf = CPUKVBuffer(capacity_tokens=1000)
        buf.push(1, 100)
        buf.push(2, 200)
        assert buf.peek() == (1, 100)
        assert buf.pop() == (1, 100)
        assert buf.pop() == (2, 200)
        assert buf.is_empty

    def test_capacity(self):
        buf = CPUKVBuffer(capacity_tokens=100)
        buf.push(1, 80)
        assert not buf.fits(30)
        with pytest.raises(CapacityError):
            buf.push(2, 30)

    def test_remove_specific(self):
        buf = CPUKVBuffer(capacity_tokens=1000)
        buf.push(1, 100)
        buf.push(2, 100)
        assert buf.remove(2) == 100
        assert 2 not in buf and 1 in buf
        assert buf.used_tokens == 100

    def test_peek_empty_rejected(self):
        with pytest.raises(SimulationError):
            CPUKVBuffer(capacity_tokens=10).peek()

    def test_duplicate_push_rejected(self):
        buf = CPUKVBuffer(capacity_tokens=1000)
        buf.push(1, 10)
        with pytest.raises(SimulationError):
            buf.push(1, 10)

    def test_zero_capacity_fits_nothing(self):
        buf = CPUKVBuffer(capacity_tokens=0)
        assert not buf.fits(1)
        assert buf.fits(0)


class TestTransferChannel:
    def test_serializes(self):
        ch = TransferChannel("d2h")
        end1 = ch.submit(0.0, 1.0)
        end2 = ch.submit(0.0, 1.0)
        assert end1 == pytest.approx(1.0)
        assert end2 == pytest.approx(2.0)

    def test_idle_gap(self):
        ch = TransferChannel("d2h")
        ch.submit(0.0, 1.0)
        end = ch.submit(5.0, 1.0)
        assert end == pytest.approx(6.0)
        assert ch.busy_time == pytest.approx(2.0)

    def test_idle_until(self):
        ch = TransferChannel("h2d")
        ch.idle_until(4.0)
        assert ch.submit(0.0, 1.0) == pytest.approx(5.0)

    def test_rejects_negative(self):
        ch = TransferChannel("x")
        with pytest.raises(SimulationError):
            ch.submit(0.0, -1.0)
        with pytest.raises(SimulationError):
            ch.submit(-1.0, 1.0)

    def test_job_count(self):
        ch = TransferChannel("x")
        ch.submit(0, 0.5)
        ch.submit(0, 0.5)
        assert ch.jobs_completed == 2


class TestMetrics:
    def test_phase_timer(self):
        t = PhaseTimer()
        t.add("prefill", 1.0)
        t.add("prefill", 0.5)
        assert t.get("prefill") == pytest.approx(1.5)
        assert t.total == pytest.approx(1.5)
        with pytest.raises(SimulationError):
            t.add("x", -1.0)

    def make_result(self, n=10, time=5.0, out=100):
        return EngineResult(
            engine="t",
            label="T1",
            num_requests=n,
            total_time=time,
            input_tokens=n * 50,
            output_tokens=out,
            phase_time={"decode": time},
            breakdown=Breakdown(),
            iterations=3,
            transitions=1,
        )

    def test_throughputs(self):
        r = self.make_result(n=10, time=5.0, out=100)
        assert r.throughput_rps == pytest.approx(2.0)
        assert r.throughput_tokens_per_s == pytest.approx(20.0)
        assert r.total_tokens_per_s == pytest.approx((500 + 100) / 5)

    def test_zero_time_rejected(self):
        with pytest.raises(SimulationError):
            self.make_result(time=0.0)

    def test_merge_dp(self):
        a = self.make_result(n=10, time=4.0)
        b = self.make_result(n=12, time=5.0)
        merged = merge_dp_results([a, b], engine="e", label="D2")
        assert merged.num_requests == 22
        assert merged.total_time == pytest.approx(5.0)
        assert merged.phase_time["decode"] == pytest.approx(5.0)

    def test_merge_empty_rejected(self):
        with pytest.raises(SimulationError):
            merge_dp_results([], engine="e", label="x")

    def test_describe(self):
        assert "req/s" in self.make_result().describe()

    def test_run_metrics_accumulates_breakdown(self):
        m = RunMetrics()
        m.add_phase("decode", 1.0, Breakdown(linear_dm=1.0))
        m.add_phase("decode", 1.0, Breakdown(linear_dm=2.0))
        assert m.breakdown.linear_dm == pytest.approx(3.0)
        assert m.phase_timer.get("decode") == pytest.approx(2.0)

    def test_run_metrics_breakdown_matches_reduce_oracle(self):
        """The in-place accumulator sums exactly like chained Breakdown
        additions, left to right; a phase without a breakdown adds nothing."""
        rng = random.Random(5)
        bds = [
            Breakdown(*(rng.uniform(0.1, 10.0) ** rng.randint(-3, 3) for _ in range(6)))
            for _ in range(10_000)
        ]
        m = RunMetrics()
        for bd in bds:
            m.add_phase("decode", 0.5, bd)
        before = hexes(m.breakdown)
        m.add_phase("idle", 1.0)
        oracle = functools.reduce(operator.add, bds, Breakdown())
        assert hexes(m.breakdown) == hexes(oracle)
        assert hexes(m.breakdown) == before
