"""vLLM-style static-parallelism engine (the paper's baseline).

One fixed (DP, TP, PP) configuration for the whole run, continuous batching
with **prefill-prioritized** scheduling: whenever a waiting prompt fits in
the KV cache it is prefilled eagerly, otherwise the engine runs a decode
iteration over everything resident. With ``chunked_prefill`` enabled the
engine instead forms Sarathi-style mixed batches: a token budget per
iteration is filled first with one decode token per running sequence, the
remainder with a chunk of the next prompt (vLLM 0.5.4's behaviour with
``enable_chunked_prefill``, which the paper tunes per workload).
"""

from __future__ import annotations

from itertools import islice
from typing import Iterator

from repro.costmodel.step import ITERATION_OVERHEAD
from repro.engines.base import BaseEngine, ReplicaState
from repro.engines.slots import VECTORIZE_MIN_SEQS, np as _np
from repro.errors import CapacityError, SchedulingError
from repro.runtime.metrics import RunMetrics
from repro.runtime.request import Sequence, SequenceState


class VllmLikeEngine(BaseEngine):
    """Static-config continuous-batching engine."""

    name = "vllm"

    def label(self) -> str:
        suffix = "+chunked" if self.options.chunked_prefill else ""
        return f"{self.config.label()}{suffix}"

    # ------------------------------------------------------------------ #
    # Replica loop
    # ------------------------------------------------------------------ #

    def _replica_loop(self, state: ReplicaState, start: float) -> Iterator[float]:
        costs, metrics = state.costs, state.metrics
        now = start
        while state.has_work:
            state.guard += 1
            if state.guard > 80 * state.total_request_tokens:
                raise SchedulingError("scheduler made no progress (livelock guard)")
            state.admit_arrivals(now)
            if not state.waiting and not state.running:
                # Event-driven idle: jump to the next arrival.
                now = self.idle_advance(state, metrics, now)
            elif self.options.chunked_prefill:
                now = self._chunked_iteration(state, costs, metrics, now)
            else:
                now = self._prefill_prioritized_iteration(state, costs, metrics, now)
            yield now

    # ------------------------------------------------------------------ #
    # Non-chunked: eager prefill, whole prompts
    # ------------------------------------------------------------------ #

    def _prefill_prioritized_iteration(
        self, state: ReplicaState, costs, metrics: RunMetrics, now: float
    ) -> float:
        admitted = []
        if self._prefill_worthwhile(state):
            admitted = self._admit_prefills(state)
        if admitted:
            return self.prefill_wave(
                state, costs, metrics, now, admitted, len(state.running)
            )
        if state.running:
            return self.decode_step(state, costs, metrics, now)
        # Nothing admitted and nothing running: the head prompt cannot fit.
        head = state.waiting[0]
        raise CapacityError(
            f"prompt of {head.remaining_prefill} tokens exceeds KV capacity "
            f"{state.kv.capacity_tokens} under {self.config.label()}"
        )

    def _prefill_worthwhile(self, state: ReplicaState) -> bool:
        """Admission hysteresis for pipeline parallelism.

        Each prefill wave pays a (PP-1)-stage fill bubble, so prefilling a
        trickle of one prompt at a time whenever a decode frees a few
        blocks wastes most of the pipeline. Wait until enough KV space has
        freed to amortize the bubble over at least a pipeline's worth of
        micro-batches (or until nothing is decoding / the queue is nearly
        drained). With PP=1 there is no bubble and eager admission stands.
        """
        pp = self.replica_config.pp
        if pp <= 1 or not state.running or not state.waiting:
            return True
        # The decision only needs min(queued prefill, cap), so the scan
        # stops once the running total reaches the cap.
        cap = pp * self.options.max_batched_tokens
        remaining = 0
        for s in state.waiting:
            remaining += s.remaining_prefill
            if remaining >= cap:
                break
        return state.kv.free_tokens >= min(remaining, cap)

    def _admit_prefills(self, state: ReplicaState) -> list[Sequence]:
        """Admit waiting prompts while KV space and the per-iteration token
        budget allow. One scheduling iteration admits at most PP micro-
        batches worth of tokens so pipeline stages stay busy without
        starving resident decodes for long; with nothing decoding there is
        no one to starve, so the wave may grow to KV capacity and amortize
        the pipeline fill bubble."""
        budget = self.options.max_batched_tokens * self.replica_config.pp
        if not state.running:
            budget = max(budget, state.kv.capacity_tokens)
        if (
            self.options.vectorize
            and _np is not None
            and len(state.waiting) >= VECTORIZE_MIN_SEQS
        ):
            return self._admit_prefills_vectorized(state, budget)
        return self._admit_prefills_scalar(state, budget)

    def _admit_prefills_scalar(
        self, state: ReplicaState, budget: int
    ) -> list[Sequence]:
        admitted: list[Sequence] = []
        used = 0
        while state.waiting:
            seq = state.waiting[0]
            need = seq.remaining_prefill + 1  # +1: first generated token
            if len(state.running) + len(admitted) >= self.options.max_num_seqs:
                break
            if used + seq.remaining_prefill > budget and admitted:
                break
            if not state.kv.can_allocate(need):
                break
            state.kv.allocate(seq.seq_id, need)
            state.waiting.popleft()
            admitted.append(seq)
            used += seq.remaining_prefill
            if used >= budget:
                break
        return admitted

    def _admit_prefills_vectorized(
        self, state: ReplicaState, budget: int
    ) -> list[Sequence]:
        """The scalar scan as cumulative sums: prompt j is admitted iff its
        cumulative block demand fits the free pool and the tokens admitted
        before it leave budget headroom (the first prompt may exceed the
        budget alone, exactly like the scalar loop). Bit-exact because no
        admission in this path ever holds a reservation, so the scalar
        loop's rolling ``can_allocate`` is a pure prefix sum."""
        kv = state.kv
        cap = self.options.max_num_seqs - len(state.running)
        # Every admission consumes >= 1 block, so free_blocks bounds the
        # admissible prefix as tightly as the seq-count cap does.
        window = max(0, min(len(state.waiting), cap, kv.free_blocks))
        if window == 0:
            return []
        prefills = _np.fromiter(
            (seq.remaining_prefill for seq in islice(state.waiting, window)),
            dtype=_np.int64,
            count=window,
        )
        bs = kv.block_size
        blocks = (prefills + bs) // bs  # == blocks_for(remaining_prefill + 1)
        cum_blocks = _np.cumsum(blocks)
        cum_prefills = _np.cumsum(prefills)
        used_before = cum_prefills - prefills
        ok = (cum_blocks <= kv.free_blocks) & (used_before < budget)
        over = used_before + prefills > budget
        over[0] = False
        ok &= ~over
        k = window if bool(ok.all()) else int(ok.argmin())
        admitted: list[Sequence] = []
        for _ in range(k):
            seq = state.waiting.popleft()
            kv.allocate(seq.seq_id, seq.remaining_prefill + 1)
            admitted.append(seq)
        return admitted

    # ------------------------------------------------------------------ #
    # Chunked prefill (Sarathi-style mixed batches)
    # ------------------------------------------------------------------ #

    def _chunked_iteration(
        self, state: ReplicaState, costs, metrics: RunMetrics, now: float
    ) -> float:
        budget = max(0, self.options.chunk_size - len(state.running))
        chunk_tokens = 0
        chunk_ctx_weighted = 0.0
        # On the state, so the decode half can evict a completing prompt.
        completing: list[Sequence] = []
        state.completing = completing

        while budget > 0 and state.waiting:
            seq = state.waiting[0]
            if len(state.running) + len(completing) + 1 > self.options.max_num_seqs:
                break
            take = min(budget, seq.remaining_prefill)
            need_tokens = seq.prefilled_tokens + take
            will_complete = take == seq.remaining_prefill
            if will_complete:
                need_tokens += 1  # room for the first generated token
            if not self._ensure_chunk_space(state, seq, need_tokens):
                break
            chunk_ctx_weighted += take * seq.prefilled_tokens
            seq.mark_scheduled(now)
            seq.state = SequenceState.PREFILLING
            if will_complete:
                seq.advance_prefill(take)
            else:
                # A recompute victim's target runs past its prompt, where
                # advance_prefill clamps: a partial chunk there must still
                # count, or a tail longer than the budget never completes.
                seq.prefilled_tokens += take
            state.prefill_epoch += 1
            chunk_tokens += take
            budget -= take
            if will_complete:
                state.waiting.popleft()
                completing.append(seq)
            else:
                break  # budget exhausted mid-prompt

        if chunk_tokens == 0 and not state.running:
            head = state.waiting[0]
            raise CapacityError(
                f"prompt of {head.remaining_prefill} tokens exceeds KV capacity "
                f"{state.kv.capacity_tokens} under {self.config.label()}"
            )

        decode_seqs = len(state.running)
        eff_ctx = int(chunk_ctx_weighted / chunk_tokens) if chunk_tokens else 0
        bd = costs.mixed_iteration_time(
            chunk_tokens, eff_ctx, decode_seqs, self.decode_context(state)
        )
        elapsed = bd.total + ITERATION_OVERHEAD
        phase = "mixed" if (chunk_tokens and decode_seqs) else (
            "prefill" if chunk_tokens else "decode"
        )
        tr = self.hooks.tracing
        if tr is not None:
            tr.note_phase(
                state.replica_id, phase, now, elapsed, decode_seqs + len(completing),
                chunk_tokens + decode_seqs, decode_seqs,
            )
        now += elapsed
        metrics.add_phase(phase, elapsed, bd)
        metrics.iterations += 1

        if decode_seqs:
            self.advance_running(state, now, metrics)
        for seq in completing:
            seq.state = SequenceState.RUNNING
            seq.prefill_end_time = now
            seq.mark_first_token(now)
            state.start_running(seq)
        if tr is not None:
            for seq in completing:
                tr.note_resume(now, seq.seq_id)
        state.finish_ready(now)
        return now

    def _pick_victim(
        self, state: ReplicaState, exclude: Sequence
    ) -> Sequence | None:
        """The youngest running sequence; with chunked prefill and none to
        spare, the youngest prompt holding prefill KV (partially prefilled
        in the queue, or completing its prefill in this iteration)."""
        victim = super()._pick_victim(state, exclude)
        if victim is None and self.options.chunked_prefill:
            held = state.completing + [
                s for s in state.waiting if s.state is SequenceState.PREFILLING
            ]
            victim = held[-1] if held else None
        return victim

    def preempt(
        self, state: ReplicaState, victim: Sequence, now: float, metrics: RunMetrics
    ) -> None:
        """Recompute preemption; a prompt still in prefill is evicted the
        same way, as if it were running: its KV is dropped and it waits at
        the queue's head."""
        if victim.state is SequenceState.PREFILLING:
            held = state.completing if victim in state.completing else state.waiting
            held.remove(victim)
            state.running.append(victim)
        super().preempt(state, victim, now, metrics)

    def _ensure_chunk_space(
        self, state: ReplicaState, seq: Sequence, need_tokens: int
    ) -> bool:
        """Allocate or grow KV for a chunk; False if memory is exhausted."""
        try:
            if state.kv.holds(seq.seq_id):
                state.kv.grow(seq.seq_id, need_tokens)
            else:
                if not state.kv.can_allocate(need_tokens):
                    return False
                state.kv.allocate(seq.seq_id, need_tokens)
            return True
        except CapacityError:
            return False
