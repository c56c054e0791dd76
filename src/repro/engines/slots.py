"""Calendar decode slots for the steady-state decode loop.

The slots drive every decode step, whether it is a plain decode iteration
(advanced by a stretch, :meth:`~repro.engines.base.BaseEngine._stretch`)
or the decode half of a chunked-prefill mixed iteration (advanced by
:meth:`~repro.engines.base.BaseEngine.advance_running`). A decode iteration
advances every running sequence by one token, grows its KV allocation when
the context crosses a block boundary, and retires sequences that produced
their last token. The object path does all of that with per-sequence
attribute access — the dominant cost of large coupled runs.

Every slot advances by exactly one token per iteration, so
:class:`DecodeSlots` keeps one shared python-int offset ``adv`` and turns
each slot's future into events keyed by it:

- **generated tokens** are stored as ``generated_tokens - adv`` at append
  time, so an advance bumps ``adv`` and the context sum and touches no
  slot;
- **block crossings**: a slot whose allocation ends ``slack`` tokens past
  its context crosses a boundary at offset ``adv + slack`` and then every
  ``block_size`` iterations, so it lives in the crossing bucket
  ``(adv + slack) % block_size``. A slot with ``slack >= block_size`` (a
  reservation, or a swap-in whose context fills its last block) waits in a
  first-crossing map until its offset comes up.
  One iteration's crossings are exactly the bucket of ``adv %
  block_size``, grown with one bulk
  :meth:`~repro.runtime.kvcache.KVCacheManager.grow_one_block` call;
- **retirements** come from a calendar keyed by ``adv + remaining_decode``:
  :meth:`finish_ready` pops the current offset, retires the popped slots
  in running order and compacts ``state.running`` once.

An advance therefore costs O(1) plus one bulk grow on crossing iterations,
and a retirement O(running) once per iteration that retires anything.
Engines run :meth:`finish_ready` after every advance and every batch of
appends, before the next advance, so no retirement offset is skipped.
The calendar also says how long the batch stays fixed: a stretch runs
iteration after iteration in one call, decode-only (every decode step is
one) or with the queue head's mid-prompt chunk, paying per iteration only
the two attention terms of the cost model, the accounting additions and
:meth:`try_advance`, and stops at the first offset in ``due`` or the first
refused advance.

Only ``generated_tokens`` drifts away from the Sequence objects while the
slots are live. Admission keeps them live: :meth:`ReplicaState.start_running`
appends the new sequence in O(1), and slot order stays ``state.running``
order because both append at the end. Only the mutations that reorder or
shrink the batch outside :meth:`finish_ready` drop them
(:meth:`ReplicaState.drop_slots` syncs the drifted counters back and makes
the object lists authoritative again): preemption, and the headroom
fallback — when free KV blocks cannot cover an iteration's crossings the
slots refuse to advance and the engine falls back to the scalar
grow/preempt path for that iteration, so preemption order stays bit-exact
with the object path by construction.

The slots are an internal cache with no knob of their own: engines build
them for every batch they decode. The one switch, :data:`SCALAR_ORACLE`,
is for tests: it keeps the slots unbuilt, so every decode iteration takes
the scalar object path and no call runs more than the one iteration its
caller asked for. That path is the oracle (engines read the switch
through this module), and the two paths are pinned bit-identical by the
golden and property tests; tracing runs on either.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import CapacityError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engines.base import ReplicaState
    from repro.runtime.kvcache import KVCacheManager
    from repro.runtime.request import Sequence

# Test-only: True keeps every batch on the scalar object path, one
# iteration per call (the oracle the slots and stretches must match).
SCALAR_ORACLE = False


class DecodeSlots:
    """Event calendar over ``state.running``, keyed by the shared offset
    ``adv``.

    ``gen0`` maps each slot's Sequence, in running order, to its generated
    tokens minus ``adv``. ``crossings[r]`` holds the seq ids that cross a
    block boundary whenever ``adv % block_size == r``; ``first`` maps an
    offset to the seq ids whose first crossing comes at it, ``home``
    each seq id to the set it sits in, and ``due`` an offset to the
    Sequences (in running order) that retire there.
    """

    def __init__(self, state: "ReplicaState") -> None:
        kv = state.kv
        self.block_size = kv.block_size
        self.adv = 0
        # A python int so the cost-model input stays exactly the value the
        # scalar path would compute.
        self.ctx_sum = 0
        self.gen0: dict[Sequence, int] = {}
        self.crossings: list[set[int]] = [set() for _ in range(self.block_size)]
        self.first: dict[int, set[int]] = {}
        self.home: dict[int, set[int]] = {}
        self.due: dict[int, list[Sequence]] = {}
        for seq in state.running:
            self.append(seq, kv)

    def __len__(self) -> int:
        return len(self.gen0)

    def append(self, seq: "Sequence", kv: "KVCacheManager") -> None:
        """Add ``seq`` (just appended to ``state.running``) as the last slot."""
        adv = self.adv
        g = seq.generated_tokens
        ctx = seq.prompt_len + g
        self.gen0[seq] = g - adv
        self.ctx_sum += ctx
        left = seq.request.output_len - 1 - g
        if left < 0:  # remaining_decode, clamped at 0
            left = 0
        self.due.setdefault(adv + left, []).append(seq)
        sid = seq.seq_id
        # Allocations always cover the current context, so the slack is
        # non-negative and the first crossing is at or after ``adv``.
        slack = kv._blocks[sid] * self.block_size - ctx
        at = adv + slack
        if slack < self.block_size:
            home = self.crossings[at % self.block_size]
        else:
            home = self.first.setdefault(at, set())
        home.add(sid)
        self.home[sid] = home

    def try_advance(self, kv: "KVCacheManager") -> bool:
        """Advance every slot one token; False, with nothing changed, when
        free KV blocks cannot cover this iteration's block-boundary
        crossings (the caller then drops the slots and runs the scalar
        grow/preempt path)."""
        adv = self.adv
        cross = self.crossings[adv % self.block_size]
        late = self.first.get(adv)
        try:
            if late:
                kv.grow_one_block(cross | late)
            elif cross:
                kv.grow_one_block(cross)
        except CapacityError:
            return False
        if late is not None:
            # First crossings join the bucket they recur in.
            del self.first[adv]
            home = self.home
            for sid in late:
                home[sid] = cross
            cross |= late
        self.adv = adv + 1
        self.ctx_sum += len(self.gen0)
        return True

    def finish_ready(self, state: "ReplicaState", now: float) -> int:
        """Retire slots that have produced all their tokens (the slot-path
        body of :meth:`ReplicaState.finish_ready`)."""
        done = self.due.pop(self.adv, None)
        if not done:
            return 0
        state.prefill_epoch += 1
        adv, gen0, home, kv = self.adv, self.gen0, self.home, state.kv
        for s in done:  # appended in running order
            sid = s.seq_id
            g = gen0.pop(s) + adv
            s.generated_tokens = g
            self.ctx_sum -= s.prompt_len + g
            s.mark_finished(now)
            kv.free(sid)
            home.pop(sid).discard(sid)
        state.finished.extend(done)
        state.running[:] = filter(gen0.__contains__, state.running)
        return len(done)

    def sync(self) -> None:
        """Write the drifted per-slot counters back into the Sequence
        objects (called before the object lists become authoritative)."""
        adv = self.adv
        for s, g in self.gen0.items():
            s.generated_tokens = g + adv
