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

from typing import Iterator

from repro.costmodel.step import ITERATION_OVERHEAD
from repro.engines.base import BaseEngine, ReplicaState
from repro.errors import CapacityError
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
        now = start
        while state.unfinished:
            state.admit_arrivals(now)
            if not state.waiting and not state.running:
                # Event-driven idle: jump to the next arrival.
                now = self.idle_advance(state, now)
            elif self.options.chunked_prefill:
                now = self._chunked_iteration(state, now)
            else:
                now = self._prefill_prioritized_iteration(state, now)
            yield now

    # ------------------------------------------------------------------ #
    # Non-chunked: eager prefill, whole prompts
    # ------------------------------------------------------------------ #

    def _prefill_prioritized_iteration(self, state: ReplicaState, now: float) -> float:
        admitted = []
        if self._prefill_worthwhile(state):
            admitted = self._admit_prefills(state)
        if admitted:
            return self.prefill_wave(state, now, admitted, len(state.running))
        if state.running:
            # A decode stretch: the admission that just failed keeps
            # failing while it runs (the batch is fixed and free KV only
            # shrinks), so skipping these attempts changes nothing.
            return self.decode_step(state, now)
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
            left = s.prefill_target - s.prefilled_tokens
            if left > 0:  # remaining_prefill, clamped at 0
                remaining += left
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
        waiting, kv = state.waiting, state.kv
        seats = self.options.max_num_seqs - len(state.running)
        admitted: list[Sequence] = []
        used = 0
        while waiting:
            seq = waiting[0]
            tokens = seq.prefill_target - seq.prefilled_tokens
            if tokens < 0:  # remaining_prefill, clamped at 0
                tokens = 0
            if len(admitted) >= seats:
                break
            if used + tokens > budget and admitted:
                break
            need = tokens + 1  # +1: first generated token
            if not kv.can_allocate(need):
                break
            kv.allocate(seq.seq_id, need)
            waiting.popleft()
            admitted.append(seq)
            used += tokens
            if used >= budget:
                break
        return admitted

    # ------------------------------------------------------------------ #
    # Chunked prefill (Sarathi-style mixed batches)
    # ------------------------------------------------------------------ #

    def _chunked_iteration(self, state: ReplicaState, now: float) -> float:
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
            prefilled = seq.prefilled_tokens
            remaining = seq.prefill_target - prefilled
            if remaining < 0:  # remaining_prefill, clamped at 0
                remaining = 0
            take = min(budget, remaining)
            need_tokens = prefilled + take
            will_complete = take == remaining
            if will_complete:
                need_tokens += 1  # room for the first generated token
            if not self._ensure_chunk_space(state, seq, need_tokens):
                break
            chunk_ctx_weighted += take * prefilled
            seq.mark_scheduled(now)
            seq.state = SequenceState.PREFILLING
            if will_complete:
                seq.advance_prefill(take)
            else:
                # A recompute victim's target runs past its prompt, where
                # advance_prefill clamps: a partial chunk there must still
                # count, or a tail longer than the budget never completes.
                seq.prefilled_tokens = prefilled + take
            state.prefill_epoch += 1
            chunk_tokens += take
            budget -= take
            if will_complete:
                state.waiting.popleft()
                completing.append(seq)
            else:
                break  # budget exhausted mid-prompt

        if chunk_tokens == 0:
            if not state.running:
                head = state.waiting[0]
                raise CapacityError(
                    f"prompt of {head.remaining_prefill} tokens exceeds KV "
                    f"capacity {state.kv.capacity_tokens} under "
                    f"{self.config.label()}"
                )
            # No chunk fits: a decode stretch. The chunk that failed here
            # keeps failing while it runs (the batch is fixed and free KV
            # only shrinks), so skipping these attempts changes nothing.
            return self.decode_step(state, now)

        decode_seqs = len(state.running)
        eff_ctx = int(chunk_ctx_weighted / chunk_tokens)
        bd = state.costs.mixed_iteration_time(
            chunk_tokens, eff_ctx, decode_seqs, self.decode_context(state)
        )
        phase = "mixed" if decode_seqs else "prefill"
        now = self.phase(
            state, phase, now, bd.total + ITERATION_OVERHEAD, bd,
            decode_seqs + len(completing), chunk_tokens + decode_seqs, decode_seqs,
        )
        state.metrics.iterations += 1

        if decode_seqs:
            self.advance_running(state, now)
        for seq in completing:
            seq.state = SequenceState.RUNNING
            seq.prefill_end_time = now
            seq.mark_first_token(now)
            state.start_running(seq)
        tr = self.hooks.tracing
        if tr is not None:
            for seq in completing:
                tr.note_resume(now, seq.seq_id)
        if state.finish_ready(now) or completing or state.slots is None:
            # The batch changed, or has no slots (oracle or fallback).
            return now
        # Only a mid-prompt chunk of the queue head ran, and the chunk loop
        # broke there without reading the prompts behind it: while the
        # running set is fixed, the head's next chunk takes the same
        # budget, and free KV only shrinks. A chunk stretch.
        return self._stretch(state, now, bd, phase, state.waiting[0], chunk_tokens)

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

    def preempt(self, state: ReplicaState, victim: Sequence, now: float) -> None:
        """Recompute preemption; a prompt still in prefill is evicted the
        same way, as if it were running: its KV is dropped and it waits at
        the queue's head."""
        if victim.state is SequenceState.PREFILLING:
            held = state.completing if victim in state.completing else state.waiting
            held.remove(victim)
            state.running.append(victim)
        super().preempt(state, victim, now)

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
