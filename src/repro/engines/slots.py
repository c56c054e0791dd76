"""Vectorized decode-slot arrays for the steady-state decode loop.

The arrays drive every decode step, whether it is a plain decode iteration
or the decode half of a chunked-prefill mixed iteration: both go through
:meth:`~repro.engines.base.BaseEngine.advance_running`. A decode iteration
advances every running sequence by one token, grows its
KV allocation when the context crosses a block boundary, and retires
sequences that produced their last token. The object path does all of that
with per-sequence attribute access — the dominant cost of large coupled
runs. :class:`DecodeSlots` hoists the drifting counters (generated tokens,
remaining decode, context length, allocated blocks) into numpy int64
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
arrays are live; every structural mutation (admission, preemption, steal)
goes through :meth:`ReplicaState.start_running` / ``drop_slots``, which
syncs the drifted counters back and makes the object lists authoritative
again. When aggregate KV headroom cannot cover an iteration's crossings
the slots refuse to advance and the engine falls back to the scalar
grow/preempt path for that iteration — preemption order stays bit-exact
with the object path by construction.

The arrays are an internal cache: with ``EngineOptions.vectorize`` off (or
numpy absent) engines run the original scalar path, and the two paths are
pinned bit-identical by the golden and property tests; tracing runs on
either.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

try:  # pragma: no cover - exercised implicitly by every vectorized run
    import numpy as np
except ImportError:  # pragma: no cover - numpy is a baked-in dependency
    np = None  # type: ignore[assignment]

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engines.base import ReplicaState
    from repro.runtime.kvcache import KVCacheManager

# Below this batch size the array bookkeeping costs more than the python
# loop it replaces; the scalar path is used instead (identical results).
VECTORIZE_MIN_SEQS = 4


class DecodeSlots:
    """Slot-indexed counters for ``state.running``, aligned by position.

    ``gen0``/``rem0``/``ctx0`` hold each slot's counters as of the last
    rebase; the live value of slot ``i`` is ``gen0[i] + adv`` (resp.
    ``rem0[i] - adv``, ``ctx0[i] + adv``). ``blocks`` is always current
    (growth is applied eagerly on crossing iterations).
    """

    def __init__(self, state: "ReplicaState") -> None:
        running = state.running
        n = len(running)
        kv = state.kv
        self.seqs = list(running)
        self.gen0 = np.fromiter(
            (s.generated_tokens for s in running), dtype=np.int64, count=n
        )
        out = np.fromiter(
            (s.request.output_len for s in running), dtype=np.int64, count=n
        )
        self.rem0 = out - 1 - self.gen0
        self.ctx0 = (
            np.fromiter((s.prompt_len for s in running), dtype=np.int64, count=n)
            + self.gen0
        )
        self.blocks = np.fromiter(
            (kv._blocks[s.seq_id] for s in running), dtype=np.int64, count=n
        )
        self.block_size = kv.block_size
        self.adv = 0
        # Per-slot iterations of headroom inside the allocated blocks as of
        # the last rebase; slot i crosses a block boundary on the iteration
        # where ``adv`` reaches ``slack0[i]``.
        self.slack0 = self.blocks * self.block_size - self.ctx0
        # Python ints so the cost-model inputs stay exactly the values the
        # scalar path would compute.
        self.ctx_sum = int(self.ctx0.sum())
        self.min_rem = int(self.rem0.min()) if n else 0
        # Iterations until the nearest slot next crosses a block boundary
        # (allocations always cover the current context, so the gap is
        # non-negative); while positive, an iteration does no KV work.
        self.gap = int(self.slack0.min()) if n else 0

    def __len__(self) -> int:
        return len(self.seqs)

    def try_advance(self, kv: "KVCacheManager") -> bool:
        """Advance every slot one token; False when KV headroom cannot
        cover this iteration's block-boundary crossings (the caller then
        drops the slots and runs the scalar grow/preempt path)."""
        if self.gap > 0:
            self.gap -= 1
        else:
            slack0 = self.slack0
            cross = slack0 <= self.adv
            ncross = int(np.count_nonzero(cross))
            if ncross > kv.free_blocks:
                return False
            if ncross:
                slack0[cross] += self.block_size
                self.blocks[cross] += 1
                seqs = self.seqs
                for i in np.nonzero(cross)[0]:
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
        rem = self.rem0 - self.adv
        idx = np.nonzero(rem == 0)[0]
        if idx.size == 0:
            self.min_rem = int(rem.min()) if len(self.seqs) else 0
            return 0
        state.prefill_epoch += 1
        adv = self.adv
        gen0 = self.gen0
        done = []
        for i in idx.tolist():
            s = self.seqs[i]
            s.generated_tokens = int(gen0[i]) + adv
            done.append(s)
        for s in done:  # ascending slot order == running order
            s.mark_finished(now)
            state.kv.free(s.seq_id)
            state.running.remove(s)
            state.finished.append(s)
        keep = np.ones(len(self.seqs), dtype=bool)
        keep[idx] = False
        self.seqs = [s for s, k in zip(self.seqs, keep, strict=True) if k]
        self.gen0 = self.gen0[keep]
        self.rem0 = self.rem0[keep]
        self.ctx0 = self.ctx0[keep]
        self.blocks = self.blocks[keep]
        self.slack0 = self.slack0[keep]
        n = len(self.seqs)
        self.ctx_sum = int(self.ctx0.sum()) + adv * n
        self.min_rem = int((self.rem0 - adv).min()) if n else 0
        self.gap = int(self.slack0.min()) - adv if n else 0
        return len(done)

    def sync(self) -> None:
        """Write the drifted per-slot counters back into the Sequence
        objects (called before the object lists become authoritative)."""
        adv = self.adv
        for s, g in zip(self.seqs, self.gen0.tolist(), strict=True):
            s.generated_tokens = g + adv
