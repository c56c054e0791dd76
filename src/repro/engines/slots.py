"""Vectorized decode-slot arrays for the steady-state decode loop.

The arrays drive every decode step, whether it is a plain decode iteration
or the decode half of a chunked-prefill mixed iteration: both go through
:meth:`~repro.engines.base.BaseEngine.advance_running`. A decode iteration
advances every running sequence by one token, grows its
KV allocation when the context crosses a block boundary, and retires
sequences that produced their last token. The object path does all of that
with per-sequence attribute access — the dominant cost of large coupled
runs. :class:`DecodeSlots` hoists the drifting counters (generated tokens,
remaining decode, headroom to the next block boundary) into numpy int64
arrays indexed by the sequence's position in ``state.running`` — and since
every slot advances by exactly one token per iteration, the arrays are
stored as *bases* plus a shared python-int offset ``adv``:

- the common iteration is pure scalar arithmetic (bump the offset, the
  context sum, and two countdowns) — no array op at all;
- KV growth is detected with a min-iterations-to-next-block-boundary
  countdown and applied only on crossing iterations, via
  :meth:`~repro.runtime.kvcache.KVCacheManager.grow_one_block`;
- finishes use a min-remaining countdown, so the retirement scan runs
  only on iterations where some sequence actually finishes.

Only ``generated_tokens`` drifts away from the Sequence objects while the
arrays are live. Admission keeps them live: :meth:`ReplicaState.start_running`
appends the new sequence to the spare capacity in O(1), and slot order stays
``state.running`` order because both lists append at the end. Only the
mutations that reorder or shrink the batch outside :meth:`finish_ready`
drop them (:meth:`ReplicaState.drop_slots` syncs the drifted counters back
and makes the object lists authoritative again): preemption, and the
headroom fallback — when aggregate KV headroom cannot cover an iteration's
crossings the slots refuse to advance and the engine falls back to the
scalar grow/preempt path for that iteration, so preemption order stays
bit-exact with the object path by construction.

The arrays are an internal cache with no knob of their own: below
:data:`VECTORIZE_MIN_SEQS` running sequences (and, for the cumulative-sum
admission scan, queued prompts) engines take the original scalar path.
That path is the oracle: tests force it by raising the threshold to
``math.inf`` (engines read it through this module), and the two paths are
pinned bit-identical by the golden and property tests; tracing runs on
either.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engines.base import ReplicaState
    from repro.runtime.kvcache import KVCacheManager
    from repro.runtime.request import Sequence

# Below this batch size the array bookkeeping costs more than the python
# loop it replaces; the scalar path is used instead (identical results).
VECTORIZE_MIN_SEQS = 4

# Filler for the unused tail of the arrays' spare capacity: a slot this far
# from its last token and its next block boundary never finishes or grows,
# so the reductions run over whole arrays without slicing.
_PAD = 1 << 62


class DecodeSlots:
    """Slot-indexed counters for ``state.running``, aligned by position.

    ``gen0``/``rem0``/``slack0`` hold each slot's counters rebased by the
    shared offset ``adv``: the live value of slot ``i`` is ``gen0[i] + adv``
    (resp. ``rem0[i] - adv``, ``slack0[i] - adv``). The arrays keep spare
    capacity (doubled when full) so :meth:`append` writes in place.
    """

    def __init__(self, state: "ReplicaState") -> None:
        running = state.running
        n = len(running)
        kv = state.kv
        self.seqs = list(running)
        self.block_size = kv.block_size
        self.adv = 0
        gen = np.fromiter(
            (s.generated_tokens for s in running), dtype=np.int64, count=n
        )
        out = np.fromiter(
            (s.request.output_len for s in running), dtype=np.int64, count=n
        )
        ctx = (
            np.fromiter((s.prompt_len for s in running), dtype=np.int64, count=n)
            + gen
        )
        blocks = np.fromiter(
            (kv._blocks[s.seq_id] for s in running), dtype=np.int64, count=n
        )
        cap = max(16, 2 * n)
        self.gen0 = np.zeros(cap, dtype=np.int64)
        self.rem0 = np.full(cap, _PAD, dtype=np.int64)
        # Per-slot iterations of headroom inside the allocated blocks; slot
        # i crosses a block boundary on the iteration where ``adv`` reaches
        # ``slack0[i]``.
        self.slack0 = np.full(cap, _PAD, dtype=np.int64)
        self.gen0[:n] = gen
        self.rem0[:n] = out - 1 - gen
        self.slack0[:n] = blocks * self.block_size - ctx
        # Python ints so the cost-model inputs stay exactly the values the
        # scalar path would compute.
        self.ctx_sum = int(ctx.sum())
        self.min_rem = int(self.rem0.min())
        # Iterations until the nearest slot next crosses a block boundary
        # (allocations always cover the current context, so the gap is
        # non-negative); while positive, an iteration does no KV work.
        self.gap = int(self.slack0.min())

    def __len__(self) -> int:
        return len(self.seqs)

    def append(self, seq: "Sequence", kv: "KVCacheManager") -> None:
        """Add ``seq`` (just appended to ``state.running``) as the last slot."""
        n = len(self.seqs)
        if n == len(self.gen0):
            self.gen0, self.rem0, self.slack0 = (
                np.concatenate((a, np.full(n, pad, dtype=np.int64)))
                for a, pad in self._padded()
            )
        adv = self.adv
        g = seq.generated_tokens
        ctx = seq.prompt_len + g
        rem = seq.request.output_len - 1 - g
        slack = kv._blocks[seq.seq_id] * self.block_size - ctx
        self.gen0[n] = g - adv
        self.rem0[n] = rem + adv
        self.slack0[n] = slack + adv
        self.seqs.append(seq)
        self.ctx_sum += ctx
        self.min_rem = min(self.min_rem, rem)
        self.gap = min(self.gap, slack)

    def _padded(self):
        """Each slot array with its tail filler."""
        return ((self.gen0, 0), (self.rem0, _PAD), (self.slack0, _PAD))

    def try_advance(self, kv: "KVCacheManager") -> bool:
        """Advance every slot one token; False when KV headroom cannot
        cover this iteration's block-boundary crossings (the caller then
        drops the slots and runs the scalar grow/preempt path)."""
        if self.gap > 0:
            self.gap -= 1
        else:
            slack0 = self.slack0
            cross = (slack0 <= self.adv).nonzero()[0]
            if len(cross) > kv.free_blocks:
                return False
            if len(cross):
                slack0[cross] += self.block_size
                seqs = self.seqs
                for i in cross.tolist():
                    kv.grow_one_block(seqs[i].seq_id)
            self.gap = int(slack0.min()) - self.adv - 1
        self.adv += 1
        self.min_rem -= 1
        self.ctx_sum += len(self.seqs)
        return True

    def finish_ready(self, state: "ReplicaState", now: float) -> int:
        """Retire slots that have produced all their tokens (the slot-path
        body of :meth:`ReplicaState.finish_ready`)."""
        if self.min_rem > 0:
            return 0
        adv = self.adv
        rem = self.rem0 - adv
        idx = (rem == 0).nonzero()[0]
        if len(idx) == 0:
            self.min_rem = int(rem.min())
            return 0
        state.prefill_epoch += 1
        seqs, gen0 = self.seqs, self.gen0
        for i in idx.tolist():  # ascending slot order == running order
            s = seqs[i]
            g = int(gen0[i]) + adv
            s.generated_tokens = g
            self.ctx_sum -= s.prompt_len + g
            s.mark_finished(now)
            state.kv.free(s.seq_id)
            state.running.remove(s)
            state.finished.append(s)
        n = len(seqs)
        keep = np.ones(n, dtype=bool)
        keep[idx] = False
        self.seqs = [s for s, k in zip(seqs, keep.tolist(), strict=True) if k]
        m = len(self.seqs)
        for arr, pad in self._padded():
            arr[:m] = arr[:n][keep]
            arr[m:n] = pad
        self.min_rem = int(self.rem0.min()) - adv
        self.gap = int(self.slack0.min()) - adv
        return len(idx)

    def sync(self) -> None:
        """Write the drifted per-slot counters back into the Sequence
        objects (called before the object lists become authoritative)."""
        adv = self.adv
        gen = self.gen0[: len(self.seqs)].tolist()
        for s, g in zip(self.seqs, gen, strict=True):
            s.generated_tokens = g + adv
