"""Roofline cost model: breakdowns, layer time, pipeline, transfer, step."""

import pickle

import pytest

from repro.costmodel.breakdown import COMPONENTS, Breakdown
from repro.costmodel.pipeline import (
    pipeline_time,
    pipeline_time_heterogeneous,
    steady_state_period,
)
from repro.costmodel.roofline import layer_time
from repro.costmodel.step import StepCostModel
from repro.costmodel.transfer import KVLayout, TransferModel
from repro.errors import ConfigurationError
from repro.parallel.config import parse_config

# TP-only, PP-only and mixed configs on 8 GPUs, for the fast-path oracles.
LABELS = ("T1", "T2", "T8", "P2", "P8", "T2P2", "T4P2", "T2P4")


def hexes(bd: Breakdown) -> list[str]:
    """Every component, read by name, exactly: equal lists mean
    bit-identical floats."""
    return [getattr(bd, name).hex() for name in COMPONENTS]


class TestBreakdown:
    def test_total_roofline(self):
        b = Breakdown(linear_dm=2, linear_comp=1, attn_dm=1, attn_comp=3, comm=0.5, overhead=0.1)
        assert b.total == pytest.approx(2 + 3 + 0.5 + 0.1)

    def test_add_and_scale(self):
        b = Breakdown(linear_dm=1, comm=2)
        s = (b + b).scale(0.5)
        assert s.linear_dm == pytest.approx(1)
        assert s.comm == pytest.approx(2)

    def test_attribution_bandwidth_bound(self):
        b = Breakdown(linear_dm=5, linear_comp=1, comm=2)
        att = b.attributed()
        assert att["weight_transfer"] == pytest.approx(5)
        assert att["communication"] == pytest.approx(2)

    def test_attribution_compute_bound(self):
        b = Breakdown(linear_dm=1, linear_comp=5)
        att = b.attributed()
        assert att["weight_transfer"] == 0.0
        assert att["compute"] == pytest.approx(5)

    def test_as_dict_has_total(self):
        assert "total" in Breakdown().as_dict()


class TestBreakdownRecord:
    """The record's behaviour, pinned in hex: any form it takes must give
    these bits, refuse assignment and round-trip through pickle."""

    A = Breakdown(1.1, 2.2, 0.3, 0.7, 0.05, 0.013)
    B = Breakdown(
        linear_dm=3.3, linear_comp=0.1, attn_dm=0.9, attn_comp=0.2,
        comm=0.17, overhead=4e-4,
    )

    def test_assignment_raises(self):
        for name in COMPONENTS:
            with pytest.raises(AttributeError):
                setattr(self.A, name, 1.0)
        with pytest.raises(AttributeError):
            self.A.extra = 1.0

    def test_add_scale_total_pinned(self):
        assert hexes(self.A + self.B) == [
            "0x1.199999999999ap+2", "0x1.2666666666667p+1",
            "0x1.3333333333333p+0", "0x1.cccccccccccccp-1",
            "0x1.c28f5c28f5c2ap-3", "0x1.b71758e219652p-7",
        ]
        assert hexes(self.A.scale(0.37)) == [
            "0x1.a0c49ba5e3540p-2", "0x1.a0c49ba5e3540p-1",
            "0x1.c6a7ef9db22d1p-4", "0x1.09374bc6a7efap-2",
            "0x1.2f1a9fbe76c8bp-6", "0x1.3b3a68b19a416p-8",
        ]
        assert self.A.total.hex() == "0x1.7b4395810624ep+1"
        assert self.B.total.hex() == "0x1.17b4a2339c0ecp+2"

    def test_attributed_pinned(self):
        def hexed(d):
            return {k: v.hex() for k, v in d.items()}

        assert hexed(self.A.attributed()) == {
            "communication": "0x1.999999999999ap-5",
            "compute": "0x1.74dd2f1a9fbe8p+1",
            "weight_transfer": "0x0.0p+0",
        }
        assert hexed(self.B.attributed()) == {
            "communication": "0x1.5c28f5c28f5c3p-3",
            "compute": "0x1.cd013a92a3055p-1",
            "weight_transfer": "0x1.a666666666666p+1",
        }
        assert hexed(self.A.as_dict()) == {
            "linear_dm": "0x1.199999999999ap+0",
            "linear_comp": "0x1.199999999999ap+1",
            "attn_dm": "0x1.3333333333333p-2",
            "attn_comp": "0x1.6666666666666p-1",
            "comm": "0x1.999999999999ap-5",
            "overhead": "0x1.a9fbe76c8b439p-7",
            "total": "0x1.7b4395810624ep+1",
        }
        assert list(self.A.as_dict()) == [*COMPONENTS, "total"]

    def test_repr_equality_and_pickle(self):
        assert repr(self.A) == (
            "Breakdown(linear_dm=1.1, linear_comp=2.2, attn_dm=0.3, "
            "attn_comp=0.7, comm=0.05, overhead=0.013)"
        )
        assert repr(Breakdown()) == (
            "Breakdown(linear_dm=0.0, linear_comp=0.0, attn_dm=0.0, "
            "attn_comp=0.0, comm=0.0, overhead=0.0)"
        )
        assert self.A == Breakdown(1.1, 2.2, 0.3, 0.7, 0.05, 0.013)
        assert self.A != self.B
        assert hash(self.A) == hash(Breakdown(1.1, 2.2, 0.3, 0.7, 0.05, 0.013))
        # A value, not a sequence: equal only to another Breakdown.
        plain = (1.1, 2.2, 0.3, 0.7, 0.05, 0.013)
        assert self.A != plain and not self.A == plain
        assert plain != self.A and not plain == self.A
        with pytest.raises(TypeError):
            self.A + plain
        back = pickle.loads(pickle.dumps(self.A))
        assert type(back) is Breakdown and back == self.A
        assert hexes(back) == hexes(self.A)

    def test_tuple_operators_refuse(self):
        # A plain tuple on the left would concatenate, * would repeat and
        # < would order lexicographically; each raises as on a record.
        plain = (1.1, 2.2, 0.3, 0.7, 0.05, 0.013)
        for op in (
            lambda: plain + self.A,
            lambda: 0 + self.A,
            lambda: sum([self.A, self.B]),
            lambda: self.A * 2,
            lambda: 2 * self.A,
            lambda: self.A < self.B,
            lambda: self.A <= self.B,
            lambda: self.A > self.B,
            lambda: self.A >= self.B,
            lambda: plain < self.A,
        ):
            with pytest.raises(TypeError):
                op()
        # Iteration, indexing and len are the documented tuple surface.
        assert list(self.A) == [getattr(self.A, n) for n in COMPONENTS]
        assert self.A[0] == self.A.linear_dm and len(self.A) == 6
        assert sum([self.A, self.B], Breakdown()) == self.A + self.B


class TestLayerTime:
    @pytest.fixture
    def setup(self, model_34b, cluster_a10_8):
        return model_34b, cluster_a10_8.gpu, cluster_a10_8.fabric

    def test_zero_tokens_free(self, setup):
        m, g, f = setup
        b = layer_time(m, g, f, 1, new_tokens=0, context_tokens=0, sum_sq_seq_len=0, phase="decode")
        assert b.total == 0.0

    def test_unknown_phase(self, setup):
        m, g, f = setup
        with pytest.raises(ConfigurationError):
            layer_time(m, g, f, 1, new_tokens=1, context_tokens=0, sum_sq_seq_len=0, phase="train")

    def test_tp_shards_weights(self, setup):
        m, g, f = setup
        b1 = layer_time(m, g, f, 1, new_tokens=8, context_tokens=8000, sum_sq_seq_len=0, phase="decode")
        b4 = layer_time(m, g, f, 4, new_tokens=8, context_tokens=8000, sum_sq_seq_len=0, phase="decode")
        assert b4.linear_dm == pytest.approx(b1.linear_dm / 4)

    def test_tp1_has_no_comm(self, setup):
        m, g, f = setup
        b = layer_time(m, g, f, 1, new_tokens=100, context_tokens=0, sum_sq_seq_len=100 * 100, phase="prefill")
        assert b.comm == 0.0

    def test_comm_grows_with_tp(self, setup):
        m, g, f = setup
        kw = dict(new_tokens=4096, context_tokens=0, sum_sq_seq_len=4096.0**2, phase="prefill")
        b2 = layer_time(m, g, f, 2, **kw)
        b8 = layer_time(m, g, f, 8, **kw)
        assert b8.comm > b2.comm

    def test_decode_is_bandwidth_bound_small_batch(self, setup):
        m, g, f = setup
        b = layer_time(m, g, f, 1, new_tokens=4, context_tokens=4000, sum_sq_seq_len=0, phase="decode")
        assert b.linear_dm > b.linear_comp

    def test_prefill_is_compute_bound(self, setup):
        m, g, f = setup
        b = layer_time(m, g, f, 1, new_tokens=8192, context_tokens=0, sum_sq_seq_len=8192.0**2, phase="prefill")
        assert b.linear_comp > b.linear_dm


class TestPipeline:
    def test_formula(self):
        assert pipeline_time(1.0, 4, 4) == pytest.approx(7.0)

    def test_zero_microbatches(self):
        assert pipeline_time(1.0, 4, 0) == 0.0

    def test_heterogeneous_matches_uniform(self):
        assert pipeline_time_heterogeneous([1.0] * 4, 4) == pytest.approx(
            pipeline_time(1.0, 4, 4)
        )

    def test_steady_state_period(self):
        assert steady_state_period(0.5, 4) == pytest.approx(2.0)

    def test_invalid(self):
        with pytest.raises(ConfigurationError):
            pipeline_time(1.0, 0, 1)


class TestTransferModel:
    def test_hnd_faster_than_nhd(self, cluster_a10_8):
        hnd = TransferModel(cluster=cluster_a10_8, layout=KVLayout.HND)
        nhd = TransferModel(cluster=cluster_a10_8, layout=KVLayout.NHD)
        assert hnd.kv_swap_time(1e9) < nhd.kv_swap_time(1e9)

    def test_unpinned_slower(self, cluster_a10_8):
        pinned = TransferModel(cluster=cluster_a10_8, pinned=True)
        unpinned = TransferModel(cluster=cluster_a10_8, pinned=False)
        assert pinned.kv_swap_time(1e9) < unpinned.kv_swap_time(1e9)
        assert pinned.overlappable and not unpinned.overlappable

    def test_negative_rejected(self, cluster_a10_8):
        with pytest.raises(ConfigurationError):
            TransferModel(cluster=cluster_a10_8).kv_swap_time(-1)


class TestStepCostModel:
    def test_config_must_fit_cluster(self, model_34b, cluster_a10_4):
        with pytest.raises(ConfigurationError):
            StepCostModel(model_34b, cluster_a10_4, parse_config("T4P2"))

    def test_decode_iteration_pp_amplifies_weight_traffic(
        self, model_34b, cluster_a10_8
    ):
        """Observation 2: per decode iteration, PP does not reduce per-GPU
        weight traffic while TP divides it."""
        t8 = StepCostModel(model_34b, cluster_a10_8, parse_config("T8"))
        p8 = StepCostModel(model_34b, cluster_a10_8, parse_config("P8"))
        it_t8 = t8.decode_iteration_time(64, 64 * 1024)
        it_p8 = p8.decode_iteration_time(64, 64 * 1024)
        assert it_p8.linear_dm > 4 * it_t8.linear_dm

    def test_prefill_pp_beats_tp(self, model_34b, cluster_a10_8):
        """Observation 1: for prefill, PP streaming beats TP all-reduce."""
        t8 = StepCostModel(model_34b, cluster_a10_8, parse_config("T8"))
        p8 = StepCostModel(model_34b, cluster_a10_8, parse_config("P8"))
        # Per-token cost: one TP8 pass vs PP8 steady-state stage time.
        tp_time = t8.prefill_pass_time([8192]).total
        pp_stage = p8.prefill_stage_time([8192]).total
        assert pp_stage < tp_time

    def test_decode_empty_batch_free(self, model_34b, cluster_a10_8):
        m = StepCostModel(model_34b, cluster_a10_8, parse_config("T4P2"))
        assert m.decode_iteration_time(0, 0).total == 0.0

    def test_mixed_reduces_to_decode(self, model_34b, cluster_a10_8):
        """A chunk-free mixed iteration is a decode iteration, every
        component bit for bit (one kernel serves both)."""
        for label in LABELS:
            m = StepCostModel(model_34b, cluster_a10_8, parse_config(label))
            mixed = m.mixed_iteration_time(0, 0, 32, 32 * 1000)
            decode = m.decode_iteration_time(32, 32 * 1000)
            assert hexes(mixed) == hexes(decode), label

    def test_mixed_piggyback_cheaper_than_separate(self, model_34b, cluster_a10_8):
        """One mixed pass must cost less than a prefill pass plus a decode
        iteration (that's the point of piggybacking)."""
        m = StepCostModel(model_34b, cluster_a10_8, parse_config("T2P2"))
        mixed = m.mixed_iteration_time(1024, 0, 64, 64 * 1500).total
        separate = (
            m.prefill_pass_time([1024]).total
            + m.decode_iteration_time(64, 64 * 1500).total
        )
        assert mixed < separate

    def test_kv_swap_time_scales(self, model_70b, cluster_a10_8):
        m = StepCostModel(model_70b, cluster_a10_8, parse_config("T4P2"))
        assert m.kv_swap_time(2000) == pytest.approx(2 * m.kv_swap_time(1000))
        assert m.kv_swap_time(0) == 0.0

    @pytest.mark.parametrize("model_name", ["15b", "34b", "70b"])
    @pytest.mark.parametrize("gpu", ["A10", "L4", "A100-SXM"])
    def test_decode_fast_path_equals_reference(self, model_name, gpu):
        """The hoisted-constant decode path is the layer-composed reference
        bit for bit, PP > 1 and rounded-up micro-batches included."""
        from repro.hardware.cluster import make_cluster
        from repro.models.registry import get_model

        model = get_model(model_name)
        cluster = make_cluster(gpu, 8)
        for label in LABELS:
            m = StepCostModel(model, cluster, parse_config(label))
            for seqs in (1, 3, 7, 64, 257):
                for ctx_per_seq in (1, 513, 2047):
                    ctx = seqs * ctx_per_seq + 5
                    fast = m.decode_iteration_time(seqs, ctx)
                    ref = m.decode_iteration_time_reference(seqs, ctx)
                    assert hexes(fast) == hexes(ref), (label, seqs, ctx)

    @pytest.mark.parametrize("model_name", ["15b", "34b", "70b"])
    @pytest.mark.parametrize("gpu", ["A10", "L4", "A100-SXM"])
    def test_decode_attention_equals_reference(self, model_name, gpu):
        """A stretch's per-step kernel gives the reference iteration's two
        attention terms bit for bit: decode iterations (chunk 0) and mixed
        ones, PP 1, 2, 4 and 8, zero chunk and decode contexts included."""
        from repro.hardware.cluster import make_cluster
        from repro.models.registry import get_model

        model = get_model(model_name)
        cluster = make_cluster(gpu, 8)
        for label in LABELS:
            m = StepCostModel(model, cluster, parse_config(label))
            for chunk in (0, 1, 511, 512, 2048):
                attention = m.decode_attention(chunk)
                for chunk_ctx in (0, 1, 4097):
                    for seqs in (0, 1, 3, 64, 257):
                        for ctx_per_seq in (0, 1, 513, 2047):
                            ctx = seqs * ctx_per_seq + (5 if seqs else 0)
                            args = (chunk, chunk_ctx, seqs, ctx)
                            ref = m.mixed_iteration_time_reference(*args)
                            got = attention(ctx, chunk_ctx)
                            assert [x.hex() for x in got] == [
                                ref.attn_dm.hex(), ref.attn_comp.hex()
                            ], (label, args)
                            if not chunk and seqs:
                                dec = m.decode_iteration_time_reference(seqs, ctx)
                                assert got == (dec.attn_dm, dec.attn_comp)

    @pytest.mark.parametrize("model_name", ["15b", "34b", "70b"])
    @pytest.mark.parametrize("gpu", ["A10", "L4", "A100-SXM"])
    def test_mixed_fast_path_equals_reference(self, model_name, gpu):
        """The hoisted-constant iteration kernel is the layer-composed
        mixed reference bit for bit: chunk-only, decode-only and mixed
        batches, PP > 1 and rounded-up micro-batches included."""
        from repro.hardware.cluster import make_cluster
        from repro.models.registry import get_model

        model = get_model(model_name)
        cluster = make_cluster(gpu, 8)
        for label in LABELS:
            m = StepCostModel(model, cluster, parse_config(label))
            for chunk in (0, 1, 7, 513, 2048):
                for chunk_ctx in (0, 1, 4097):
                    for seqs in (0, 1, 3, 64, 257):
                        for ctx_per_seq in (1, 2047):
                            args = (chunk, chunk_ctx, seqs, seqs * ctx_per_seq + 5)
                            fast = m.mixed_iteration_time(*args)
                            ref = m.mixed_iteration_time_reference(*args)
                            assert hexes(fast) == hexes(ref), (label, args)

    @pytest.mark.parametrize("model_name", ["15b", "34b", "70b"])
    @pytest.mark.parametrize("gpu", ["A10", "L4", "A100-SXM"])
    def test_prefill_fast_path_equals_reference(self, model_name, gpu):
        """The hoisted-constant prefill kernel is the layer-composed stage
        (per-layer roofline, layer scaling, PP activation send) bit for
        bit: an empty micro-batch, one 1-token prompt, one budget-sized
        prompt, several mixed prompts and a 32k prompt."""
        from repro.engines.base import EngineOptions
        from repro.hardware.cluster import make_cluster
        from repro.models.registry import get_model

        model = get_model(model_name)
        cluster = make_cluster(gpu, 8)
        budget = EngineOptions().max_batched_tokens
        batches = ([], [1], [budget], [3, 700, 1, 129, 4095, 2048], [32768])
        for label in LABELS:
            m = StepCostModel(model, cluster, parse_config(label))
            for lens in batches:
                fast = m.prefill_stage_time(lens)
                ref = m.prefill_stage_time_reference(lens)
                assert hexes(fast) == hexes(ref), (label, lens)
                assert hexes(m.prefill_pass_time(lens)) == hexes(ref.scale(m.config.pp))

    def test_prefill_rejects_negative_tokens(self, model_34b, cluster_a10_8):
        m = StepCostModel(model_34b, cluster_a10_8, parse_config("T4P2"))
        for fn in (m.prefill_stage_time, m.prefill_stage_time_reference):
            with pytest.raises(ConfigurationError, match="non-negative"):
                fn([5, -9])

    def test_reshard_time_zero_for_same(self, model_34b, cluster_a10_8):
        m = StepCostModel(model_34b, cluster_a10_8, parse_config("T4P2"))
        assert m.reshard_time(parse_config("T4P2")) == 0.0
        assert m.reshard_time(parse_config("P8")) > 0.0
