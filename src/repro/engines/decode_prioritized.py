"""Decode-prioritized (batch-at-a-time) engine.

The scheduling extreme of Fig. 2(b), as used by FasterTransformer: admit a
batch, prefill it, decode the whole batch to completion, only then start
the next batch. Transitions between prefill and decode are rare (one per
batch) but the decode batch shrinks as sequences finish, under-utilizing
the GPU — exactly the trade-off the paper's tiered buffering removes.

Admission reserves each sequence's *final* context length so the batch is
guaranteed to finish without preemption.
"""

from __future__ import annotations

from typing import Iterator

from repro.engines.base import BaseEngine, ReplicaRun, ReplicaState
from repro.errors import CapacityError
from repro.runtime.metrics import RunMetrics
from repro.runtime.request import Request, Sequence, SequenceState


class DecodePrioritizedEngine(BaseEngine):
    """Batch-at-a-time scheduling with a static parallel config."""

    name = "decode-prio"

    def _replica_setup(self, requests: list[Request], replica_id: int) -> ReplicaRun:
        state = ReplicaState(requests, self.make_kv())
        run = ReplicaRun(replica_id, requests, state, RunMetrics())
        run.costs = self.make_costs()
        return run

    def _replica_loop(self, run: ReplicaRun, start: float) -> Iterator[float]:
        state, costs, metrics = run.state, run.costs, run.metrics
        now = start
        while state.has_work:
            state.admit_arrivals(now)
            if not state.waiting and not state.running:
                now = self.idle_advance(state, metrics, now)
                yield now
                continue
            if not state.running:
                # Between batches: admit and prefill the next batch whole.
                batch = self._admit_batch(state)
                if not batch:
                    head = state.waiting[0]
                    raise CapacityError(
                        f"request needs {head.final_context_len} tokens of KV, "
                        f"capacity is {state.kv.capacity_tokens}"
                    )
                admit_time = now
                microbatches = self.form_prefill_microbatches(batch)
                wall, device = self.prefill_time(costs, microbatches)
                now += wall
                metrics.add_phase("prefill", wall, device)
                metrics.iterations += 1
                metrics.transitions += 1
                tr = self.hooks.tracing
                if tr is not None:
                    tr.note_phase(
                        run.replica_id, "prefill", admit_time, wall, len(batch),
                        sum(s.remaining_prefill for s in batch),
                        len(state.running) + len(batch),
                    )
                for seq in batch:
                    seq.mark_scheduled(admit_time)
                    seq.advance_prefill(seq.remaining_prefill)
                    seq.state = SequenceState.RUNNING
                    seq.prefill_end_time = now
                    seq.mark_first_token(now)
                    state.start_running(seq)
                if tr is not None:
                    for seq in batch:
                        tr.note_resume(now, seq.seq_id)
                state.finish_ready(now)
                if not state.running:
                    metrics.transitions += 1  # the decode stage was trivial
                yield now
                continue
            # Decode the whole batch to completion before the next prefill
            # (arrivals landing meanwhile wait in the queue, as before).
            now = self.decode_step(state, costs, metrics, now)
            if not state.running:
                metrics.transitions += 1
            yield now

    def _admit_batch(self, state: ReplicaState) -> list[Sequence]:
        """Admit sequences whose final context length fits entirely."""
        admitted: list[Sequence] = []
        while state.waiting and len(admitted) < self.options.max_num_seqs:
            seq = state.waiting[0]
            need = seq.final_context_len
            if not state.kv.can_allocate(need):
                break
            state.kv.allocate(seq.seq_id, need)
            state.waiting.popleft()
            admitted.append(seq)
        return admitted
