"""Step-level cost model: the facade engines use for every timed action.

A :class:`StepCostModel` binds (model, cluster, parallel config) and
answers, in seconds-with-breakdown:

- ``prefill_stage_time(seq_lens)``   — one prefill micro-batch through one
  pipeline stage (L/PP layers at TP degree ``tp``);
- ``prefill_pass_time(seq_lens)``    — the same micro-batch through all
  stages (a single micro-batch gets no pipelining benefit);
- ``mixed_iteration_time(...)``      — one engine iteration: a prompt
  chunk with piggybacked decodes (Sarathi-style baselines), PP
  micro-batches through the pipeline in steady state;
- ``decode_iteration_time(n, ctx)``  — its chunk-free case: every
  in-flight sequence advances one token;
- ``kv_swap_time(tokens)``           — tiered-KV transfer over host links;
- ``reshard_time(dst)``              — weight reload for a config switch.

Both iteration calls share one roofline kernel fed by hoisted per-config
constants, and ``prefill_stage_time`` is a second kernel fed from the
same cache; the ``*_reference`` methods (``prefill_stage_time_reference``,
``decode_iteration_time_reference``, ``mixed_iteration_time_reference``)
compose the same numbers layer by layer through ``roofline.layer_time``
and are the test oracles the kernels match bit for bit. The iteration
kernel's attention formula is also what ``decode_attention(chunk)`` hands
a stretch of fixed-batch iterations (decode, or with a fixed-size prompt
chunk), whose later iterations change nothing else.

All per-replica quantities assume the engine has already divided work
across DP replicas.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import mul
from typing import Callable, Sequence

from repro.costmodel.breakdown import Breakdown
from repro.costmodel.pipeline import steady_state_period
from repro.costmodel.roofline import ATTN_COMPUTE_EFFICIENCY, layer_time
from repro.costmodel.transfer import KVLayout, TransferModel
from repro.errors import ConfigurationError
from repro.hardware.cluster import ClusterSpec
from repro.hardware.interconnect import allreduce_time, p2p_time
from repro.models.config import ModelConfig
from repro.parallel.config import ParallelConfig
from repro.parallel.resharding import plan_reshard

# Fixed engine bookkeeping per scheduling iteration (batch formation,
# Python-side dispatch). Charged by engines once per iteration.
ITERATION_OVERHEAD = 400e-6


@dataclass
class StepCostModel:
    """Cost oracle for one (model, cluster, parallel config) binding."""

    model: ModelConfig
    cluster: ClusterSpec
    config: ParallelConfig
    kv_layout: KVLayout = KVLayout.HND
    transfer: TransferModel = field(init=False)

    def __post_init__(self) -> None:
        if self.config.num_gpus > self.cluster.num_gpus:
            raise ConfigurationError(
                f"config {self.config.label()} needs {self.config.num_gpus} GPUs, "
                f"cluster has {self.cluster.num_gpus}"
            )
        self.transfer = TransferModel(cluster=self.cluster, layout=self.kv_layout)

    # ------------------------------------------------------------------ #
    # Structural helpers
    # ------------------------------------------------------------------ #

    @property
    def layers_per_stage(self) -> float:
        """Layers per pipeline stage (fractional for uneven splits; the
        slowest stage has ceil(L/PP) and bounds the pipeline)."""
        pp = self.config.pp
        return -(-self.model.num_layers // pp)  # ceil division

    def _stage(self, per_layer: Breakdown, new_tokens: int) -> Breakdown:
        """Scale a per-layer cost to one pipeline stage, adding the
        inter-stage activation send (negligible next to all-reduce, but
        modeled for completeness)."""
        stage = per_layer.scale(self.layers_per_stage)
        if self.config.pp > 1 and new_tokens > 0:
            act = new_tokens * self.model.activation_bytes_per_token()
            send = p2p_time(self.cluster.fabric, act)
            stage = stage + Breakdown(comm=send)
        return stage

    # ------------------------------------------------------------------ #
    # Prefill
    # ------------------------------------------------------------------ #

    def prefill_stage_time(self, seq_lens: Sequence[int]) -> Breakdown:
        """One prefill micro-batch through ONE pipeline stage.

        Hot path of every prefill wave and micro-batch: the Appendix A
        roofline of :meth:`prefill_stage_time_reference` bit for bit
        (pinned by tests) from hoisted constants, without the per-layer
        and send Breakdowns.
        """
        new_tokens = int(sum(seq_lens))
        if new_tokens <= 0:
            if new_tokens < 0:
                raise ConfigurationError("token counts must be non-negative")
            return Breakdown()
        sum_sq = float(sum(map(mul, seq_lens, seq_lens)))
        (
            tp, lps, bw, flops, attn_eff, linear_dm, overhead, lin_flops, c2,
            qkv_int, act_bytes, ar_fixed, ar_factor, ar_bw, p2p_lat, link_bw, pp,
        ) = self._prefill_consts()
        act = new_tokens * act_bytes
        comm = 0.0
        if tp > 1:
            comm = 2 * (ar_fixed + (ar_factor * act) / ar_bw) * lps
        if pp > 1:
            comm = comm + (p2p_lat + act / link_bw)
        # Positional: the components in field order.
        return Breakdown(
            linear_dm,
            (lin_flops * new_tokens / tp / flops) * lps,
            (float(new_tokens * qkv_int) / tp / bw) * lps,
            (c2 * sum_sq / tp / attn_eff) * lps,
            comm,
            overhead,
        )

    def prefill_stage_time_reference(self, seq_lens: Sequence[int]) -> Breakdown:
        """The layer-composed reference the kernel must match bit-exactly
        (kept as the oracle for the equivalence tests)."""
        new_tokens = int(sum(seq_lens))
        sum_sq = float(sum(s * s for s in seq_lens))
        per_layer = layer_time(
            self.model,
            self.cluster.gpu,
            self.cluster.fabric,
            self.config.tp,
            new_tokens=new_tokens,
            context_tokens=0,
            sum_sq_seq_len=sum_sq,
            phase="prefill",
        )
        return self._stage(per_layer, new_tokens)

    def prefill_pass_time(self, seq_lens: Sequence[int]) -> Breakdown:
        """One micro-batch through ALL stages (no pipelining overlap)."""
        return self.prefill_stage_time(seq_lens).scale(self.config.pp)

    # ------------------------------------------------------------------ #
    # Decode
    # ------------------------------------------------------------------ #

    def decode_stage_time(self, num_seqs: int, context_tokens: int) -> Breakdown:
        """One decode micro-batch (``num_seqs`` sequences, attending over
        ``context_tokens`` total cached tokens) through one stage."""
        per_layer = layer_time(
            self.model,
            self.cluster.gpu,
            self.cluster.fabric,
            self.config.tp,
            new_tokens=num_seqs,
            context_tokens=context_tokens,
            sum_sq_seq_len=0.0,
            phase="decode",
        )
        return self._stage(per_layer, num_seqs)

    def decode_iteration_time(self, num_seqs: int, context_tokens: int) -> Breakdown:
        """Advance every sequence of one DP replica by one token.

        The replica's batch splits into PP mutually-exclusive micro-batches
        (paper Section 3.1); in steady state the iteration takes PP stage
        periods, so each device re-streams its weights once per micro-batch
        — the weight-transfer amplification that makes PP slow at decode.
        The chunk-free case of :meth:`mixed_iteration_time`.
        """
        return self._iteration(0, 0, num_seqs, context_tokens)

    def decode_iteration_time_reference(
        self, num_seqs: int, context_tokens: int
    ) -> Breakdown:
        """The layer-composed reference the kernel must match bit-exactly
        (kept as the oracle for the equivalence test)."""
        if num_seqs <= 0:
            return Breakdown()
        pp = self.config.pp
        micro_seqs = -(-num_seqs // pp)
        micro_ctx = -(-context_tokens // pp)
        stage = self.decode_stage_time(micro_seqs, micro_ctx)
        period = steady_state_period(1.0, pp)  # = pp stage slots
        return stage.scale(period)

    # ------------------------------------------------------------------ #
    # Iterations: one roofline kernel for mixed and decode batches
    # ------------------------------------------------------------------ #

    def _iteration_consts(self) -> tuple:
        """Per-config constants of the iteration roofline, hoisted out of
        the per-iteration path. Keyed on (tp, pp) so a mutated config
        cannot serve stale numbers. The prefill kernel's constants are
        built alongside (:meth:`_prefill_consts`)."""
        key = (self.config.tp, self.config.pp)
        cached = getattr(self, "_iteration_cache", None)
        if cached is not None and cached[0] == key:
            return cached[1]
        tp, pp = key
        gpu = self.cluster.gpu
        fabric = self.cluster.fabric
        model = self.model
        bw = gpu.effective_bandwidth
        flops = gpu.effective_flops
        lps = self.layers_per_stage
        period = steady_state_period(1.0, pp)
        # Constant components get their layer and period scaling folded in;
        # token-dependent ones keep the reference expression's exact
        # floating-point operation order and scale at call time.
        linear_dm = (((model.layer_weight_bytes / tp) / bw) * lps) * period
        overhead = (gpu.kernel_overhead * lps) * period
        lin_flops = model.linear_flops_per_token_per_layer()
        attn_eff = flops * ATTN_COMPUTE_EFFICIENCY
        # Equals the reference's chunk 2.0 * 2.0 * H * d and decode 4.0 * H * d.
        c4 = (4.0 * model.num_heads) * model.head_dim
        kv_int = 2 * model.num_kv_heads * model.head_dim * model.dtype_bytes
        qkv_int = kv_int + model.num_heads * model.head_dim * model.dtype_bytes
        act_bytes = model.activation_bytes_per_token()
        if tp > 1:
            ar_fixed = (2 * (tp - 1)) * fabric.latency
            ar_factor = (2.0 * (tp - 1)) / tp
            ar_bw = fabric.collective_bandwidth(tp)
        else:
            ar_fixed = ar_factor = ar_bw = 0.0

        def attention(attn_bytes: float, attn_flops: float) -> tuple[float, float]:
            """``(attn_dm, attn_comp)`` of one iteration from its per-layer
            attention bytes and FLOPs: the one attention formula."""
            return (
                (attn_bytes / tp / bw * lps) * period,
                (attn_flops / tp / attn_eff * lps) * period,
            )

        consts = (
            tp, pp, lps, period, bw, flops, attention, linear_dm, overhead,
            lin_flops, c4, kv_int, qkv_int, act_bytes, ar_fixed, ar_factor,
            ar_bw, fabric.latency, fabric.effective_link_bandwidth,
        )
        # One stage of a prefill micro-batch: the per-layer constants get
        # the layer scaling only; the reference's 2.0 * H * d is c2.
        prefill = (
            tp, lps, bw, flops, attn_eff, ((model.layer_weight_bytes / tp) / bw) * lps,
            gpu.kernel_overhead * lps, lin_flops, (2.0 * model.num_heads) * model.head_dim,
            qkv_int, act_bytes, ar_fixed, ar_factor, ar_bw, fabric.latency,
            fabric.effective_link_bandwidth, pp,
        )
        self._iteration_cache = (key, consts, prefill)
        return consts

    def _prefill_consts(self) -> tuple:
        """The prefill kernel's hoisted constants, from the iteration cache."""
        self._iteration_consts()
        return self._iteration_cache[2]

    def mixed_iteration_time(
        self,
        chunk_tokens: int,
        chunk_context_tokens: int,
        decode_seqs: int,
        decode_context_tokens: int,
    ) -> Breakdown:
        """A Sarathi-style iteration: a prompt chunk plus piggybacked decodes.

        The chunk of ``chunk_tokens`` attends over ``chunk_context_tokens``
        already-prefilled tokens plus (causally) itself; decodes attend over
        their caches. Under pipeline parallelism the iteration splits into
        PP micro-batches exactly like a decode iteration (Sarathi's uniform
        chunks are what keep those micro-batches bubble-free), so the
        iteration occupies PP stage periods.

        Hot path of every engine loop: :meth:`mixed_iteration_time_reference`
        bit for bit (pinned by tests) from hoisted constants, without the
        intermediate Breakdowns; an absent chunk adds exact zeros.
        """
        if chunk_tokens + decode_seqs <= 0:
            return Breakdown()
        (
            tp, pp, lps, period, bw, flops, attention, linear_dm, overhead,
            lin_flops, c4, kv_int, qkv_int, act_bytes, ar_fixed, ar_factor,
            ar_bw, p2p_lat, link_bw,
        ) = self._iteration_consts()
        chunk = -(-chunk_tokens // pp)
        chunk_ctx = -(-chunk_context_tokens // pp) if chunk_tokens else 0
        dec_ctx = -(-decode_context_tokens // pp) if decode_seqs else 0
        m = chunk + -(-decode_seqs // pp)
        linear_comp = (lin_flops * m / tp / flops * lps) * period
        attended = chunk * (chunk_ctx + chunk / 2.0)
        attn_dm, attn_comp = attention(
            float(qkv_int * chunk) + float(kv_int * (chunk_ctx + dec_ctx)),
            c4 * attended + c4 * dec_ctx,
        )
        comm = 0.0
        if tp > 1:
            comm = 2 * (ar_fixed + (ar_factor * (m * act_bytes)) / ar_bw) * lps
        if pp > 1:
            comm = (comm + (p2p_lat + (m * act_bytes) / link_bw)) * period
        else:
            comm = comm * period
        return Breakdown(linear_dm, linear_comp, attn_dm, attn_comp, comm, overhead)

    # Decode iterations enter here, past any wrapper on the public name.
    _iteration = mixed_iteration_time

    def decode_attention(
        self, chunk_tokens: int = 0
    ) -> Callable[[int, int], tuple[float, float]]:
        """The per-step kernel of a stretch of fixed-batch iterations.

        Over a run of iterations whose batch and chunk size do not change,
        only the attended contexts move, so only the two attention terms
        do. The returned function maps ``(decode_context_tokens,
        chunk_context_tokens)`` to ``(attn_dm, attn_comp)``, exactly the
        terms :meth:`mixed_iteration_time` computes for a chunk of
        ``chunk_tokens`` with those contexts. A decode iteration is the
        chunk-0 case: its attention bytes are ``float(kv_int * dec_ctx)``
        and its FLOPs ``c4 * dec_ctx`` (adding the absent chunk's zeros is
        exact), and its chunk context is ignored.
        """
        consts = self._iteration_consts()
        pp, attention = consts[1], consts[6]
        c4, kv_int, qkv_int = consts[10], consts[11], consts[12]
        if not chunk_tokens:

            def step(decode_context_tokens: int, _: int) -> tuple[float, float]:
                dec_ctx = -(-decode_context_tokens // pp)
                return attention(float(kv_int * dec_ctx), c4 * dec_ctx)

            return step
        chunk = -(-chunk_tokens // pp)
        qkv = float(qkv_int * chunk)
        half = chunk / 2.0

        def chunk_step(
            decode_context_tokens: int, chunk_context_tokens: int
        ) -> tuple[float, float]:
            chunk_ctx = -(-chunk_context_tokens // pp)
            dec_ctx = -(-decode_context_tokens // pp)
            return attention(
                qkv + float(kv_int * (chunk_ctx + dec_ctx)),
                c4 * (chunk * (chunk_ctx + half)) + c4 * dec_ctx,
            )

        return chunk_step

    def mixed_iteration_time_reference(
        self, chunk_tokens: int, chunk_context_tokens: int,
        decode_seqs: int, decode_context_tokens: int,
    ) -> Breakdown:
        """The layer-composed reference the kernel must match bit-exactly
        (kept as the oracle for the equivalence tests)."""
        if chunk_tokens + decode_seqs == 0:
            return Breakdown()
        pp = self.config.pp
        m_chunk = -(-chunk_tokens // pp) if chunk_tokens else 0
        m_chunk_ctx = -(-chunk_context_tokens // pp) if chunk_tokens else 0
        m_dec = -(-decode_seqs // pp) if decode_seqs else 0
        m_dec_ctx = -(-decode_context_tokens // pp) if decode_seqs else 0
        stage = self._mixed_stage_time(m_chunk, m_chunk_ctx, m_dec, m_dec_ctx)
        return stage.scale(pp)

    def _mixed_stage_time(
        self,
        chunk_tokens: int,
        chunk_context_tokens: int,
        decode_seqs: int,
        decode_context_tokens: int,
    ) -> Breakdown:
        """One mixed micro-batch through one pipeline stage."""
        new_tokens = chunk_tokens + decode_seqs
        if new_tokens == 0:
            return Breakdown()
        gpu = self.cluster.gpu
        tp = self.config.tp
        bw = gpu.effective_bandwidth
        flops = gpu.effective_flops

        linear_dm = (self.model.layer_weight_bytes / tp) / bw
        linear_comp = (
            self.model.linear_flops_per_token_per_layer() * new_tokens / tp / flops
        )

        attn_flops_eff = flops * ATTN_COMPUTE_EFFICIENCY
        d = self.model.head_dim
        hq = self.model.num_heads
        # Chunk attention: each new token attends over prior context plus
        # the causal half of the chunk itself.
        chunk_attended = chunk_tokens * (chunk_context_tokens + chunk_tokens / 2.0)
        attn_comp = (
            2.0 * 2.0 * hq * d * chunk_attended
            + 4.0 * hq * d * decode_context_tokens
        ) / tp / attn_flops_eff
        attn_dm = (
            self.model.qkv_io_bytes_prefill_per_layer(chunk_tokens)
            + self.model.kv_read_bytes_decode_per_layer(
                (chunk_context_tokens if chunk_tokens > 0 else 0)
                + decode_context_tokens
            )
        ) / tp / bw

        comm = 0.0
        if tp > 1:
            act = new_tokens * self.model.activation_bytes_per_token()
            comm = 2 * allreduce_time(self.cluster.fabric, act, tp)

        per_layer = Breakdown(
            linear_dm=linear_dm,
            linear_comp=linear_comp,
            attn_dm=attn_dm,
            attn_comp=attn_comp,
            comm=comm,
            overhead=gpu.kernel_overhead,
        )
        return self._stage(per_layer, new_tokens)

    # ------------------------------------------------------------------ #
    # Transfers
    # ------------------------------------------------------------------ #

    def kv_swap_time(self, tokens: float) -> float:
        """Wall time to move ``tokens`` worth of *one replica's* KV cache
        between the CPU buffer and that replica's GPUs.

        Each GPU carries its own shard (1 / (TP*PP) of each token) over its
        own host link, all links running in parallel, so the replica's
        aggregate swap bandwidth scales with TP*PP. Engines account DP
        replicas separately (each replica swaps its own tokens).
        """
        if tokens < 0:
            raise ConfigurationError("tokens must be >= 0")
        total_bytes = tokens * self.model.kv_bytes_per_token
        agg_bw = self.transfer.effective_bandwidth_per_gpu * self.config.model_gpus
        return total_bytes / agg_bw

    def reshard_time(self, dst: ParallelConfig) -> float:
        """Wall time of switching this config's weights to ``dst``
        (parallel per-GPU reload from CPU memory over host links)."""
        plan = plan_reshard(self.model, self.config, dst)
        return plan.transfer_time(self.cluster)
