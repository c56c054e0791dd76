"""Decode-prioritized (batch-at-a-time) engine.

The scheduling extreme of Fig. 2(b), as used by FasterTransformer: admit a
batch, prefill it, decode the whole batch to completion, only then start
the next batch. Transitions between prefill and decode are rare (one per
batch) but the decode batch shrinks as sequences finish, under-utilizing
the GPU — exactly the trade-off the paper's tiered buffering removes.

The loop itself is :meth:`BaseEngine._batch_loop` (shared with Seesaw's
no-buffer ablation): admission reserves each sequence's *final* context
length so the batch is guaranteed to finish without preemption, and this
engine only counts the two stage switches per batch.
"""

from __future__ import annotations

from typing import Iterator

from repro.engines.base import BaseEngine, ReplicaState


class DecodePrioritizedEngine(BaseEngine):
    """Batch-at-a-time scheduling with a static parallel config."""

    name = "decode-prio"

    def _replica_loop(self, state: ReplicaState, start: float) -> Iterator[float]:
        return self._batch_loop(state, start, state.costs, state.costs)

    def _after_prefill(self, state: ReplicaState, now: float) -> float:
        # One transition per stage switch: into decode, and back out.
        state.metrics.transitions += 1
        return now

    _after_decode = _after_prefill
