"""Paged GPU KV-cache manager (vLLM-style block allocator, simulated).

Tracks, at block granularity, which sequences occupy the device KV cache of
one DP replica. Engines allocate a sequence's current context at admission
and grow it one token per decode step; the allocator enforces capacity and
exposes the free-token headroom schedulers use for admission control.

The byte math comes from :mod:`repro.parallel.memory`; the allocator works
in *tokens of one replica* (every GPU of the replica holds its shard of
each cached token, so replica capacity is the per-GPU capacity).
"""

from __future__ import annotations

from collections.abc import Collection
from dataclasses import dataclass, field

from repro.errors import CapacityError, SimulationError

DEFAULT_BLOCK_SIZE = 16


@dataclass
class KVCacheManager:
    """Block-granular KV accounting for one replica's GPUs.

    Attributes:
        capacity_tokens: Total tokens the replica can cache.
        block_size: Tokens per page (vLLM default 16).
    """

    capacity_tokens: int
    block_size: int = DEFAULT_BLOCK_SIZE
    _blocks: dict[int, int] = field(default_factory=dict, repr=False)
    _reserved_blocks: dict[int, int] = field(default_factory=dict, repr=False)
    # Running total of allocated + reserved blocks, kept in lock-step with
    # the two dicts so ``used_blocks`` is O(1) instead of O(sequences).
    _used: int = field(default=0, repr=False)
    # ``capacity_tokens // block_size``: both are fixed once built, and
    # every admission and grow check reads the free count.
    _total: int = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.capacity_tokens < self.block_size:
            raise CapacityError(
                f"KV capacity {self.capacity_tokens} tokens is below one block"
            )
        if self.block_size < 1:
            raise CapacityError("block_size must be >= 1")
        self._used = sum(self._blocks.values()) + sum(self._reserved_blocks.values())
        self._total = self.capacity_tokens // self.block_size

    # ------------------------------------------------------------------ #
    # Capacity queries
    # ------------------------------------------------------------------ #

    @property
    def total_blocks(self) -> int:
        return self._total

    @property
    def used_blocks(self) -> int:
        return self._used

    @property
    def free_blocks(self) -> int:
        return self._total - self._used

    @property
    def free_tokens(self) -> int:
        return (self._total - self._used) * self.block_size

    @property
    def num_sequences(self) -> int:
        return len(self._blocks)

    def blocks_for(self, tokens: int) -> int:
        """Blocks needed to hold ``tokens`` (ceil)."""
        return -(-tokens // self.block_size)

    def can_allocate(self, tokens: int) -> bool:
        # blocks_for(tokens) <= free_blocks, inlined: every admission
        # check calls it.
        return -(-tokens // self.block_size) <= self._total - self._used

    # ------------------------------------------------------------------ #
    # Allocation lifecycle
    # ------------------------------------------------------------------ #

    def allocate(self, seq_id: int, tokens: int) -> None:
        """Admit a sequence with ``tokens`` of context."""
        if seq_id in self._blocks:
            raise SimulationError(f"sequence {seq_id} already allocated")
        need = -(-tokens // self.block_size)
        reserved = self._reserved_blocks.pop(seq_id, 0)
        if need > self._total - self._used + reserved:
            self._reserved_blocks[seq_id] = reserved  # restore before raising
            raise CapacityError(
                f"sequence {seq_id}: need {need} blocks, only "
                f"{self.free_blocks + reserved} free"
            )
        self._blocks[seq_id] = need
        self._used += need - reserved

    def grow(self, seq_id: int, new_total_tokens: int) -> None:
        """Grow a sequence's allocation to cover ``new_total_tokens``."""
        current = self._blocks.get(seq_id)
        if current is None:
            raise SimulationError(f"sequence {seq_id} not allocated")
        need = -(-new_total_tokens // self.block_size)
        if need <= current:
            return
        extra = need - current
        if extra > self._total - self._used:
            raise CapacityError(
                f"sequence {seq_id}: cannot grow by {extra} blocks "
                f"({self.free_blocks} free)"
            )
        self._blocks[seq_id] = need
        self._used += extra

    def grow_one_block(self, seq_ids: Collection[int]) -> None:
        """Extend each sequence of ``seq_ids`` by exactly one block.

        Bulk hook for the decode slots, which detect block boundary
        crossings themselves (context grows one token per iteration, so a
        crossing needs exactly one new block). Raises, growing nothing,
        when the free pool cannot cover every sequence: the slots' headroom
        check.
        """
        n = len(seq_ids)
        if n > self._total - self._used:
            raise CapacityError(
                f"cannot grow {n} sequences by 1 block ({self.free_blocks} free)"
            )
        blocks = self._blocks
        for seq_id in seq_ids:
            blocks[seq_id] += 1
        self._used += n

    def free(self, seq_id: int) -> int:
        """Release a finished/evicted sequence; returns blocks freed."""
        if seq_id not in self._blocks:
            raise SimulationError(f"sequence {seq_id} not allocated")
        freed = self._blocks.pop(seq_id)
        self._used -= freed
        return freed

    def holds(self, seq_id: int) -> bool:
        return seq_id in self._blocks

    # ------------------------------------------------------------------ #
    # Reservations (admission control for known output lengths)
    # ------------------------------------------------------------------ #

    def reserve(self, seq_id: int, tokens: int) -> None:
        """Pre-book blocks for a swap-in that is in flight so concurrent
        admissions cannot oversubscribe the cache."""
        if seq_id in self._blocks or seq_id in self._reserved_blocks:
            raise SimulationError(f"sequence {seq_id} already present")
        need = self.blocks_for(tokens)
        if need > self.free_blocks:
            raise CapacityError(f"cannot reserve {need} blocks for seq {seq_id}")
        self._reserved_blocks[seq_id] = need
        self._used += need

    def cancel_reservation(self, seq_id: int) -> None:
        if seq_id not in self._reserved_blocks:
            raise SimulationError(f"sequence {seq_id} has no reservation")
        self._used -= self._reserved_blocks.pop(seq_id)
