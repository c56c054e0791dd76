"""Seesaw replica state: GPU KV, CPU buffer, transfer channels.

Extends the shared :class:`ReplicaState` with the tiered-buffering
machinery: the CPU KV pool (with a sequence lookup, since the pool stores
ids), the d2h/h2d transfer channels of the async pipeline, and the list of
in-flight prefetches.
"""

from __future__ import annotations

from repro.engines.base import ReplicaState
from repro.errors import SimulationError
from repro.runtime.channel import TransferChannel
from repro.runtime.cpu_buffer import CPUKVBuffer
from repro.runtime.kvcache import KVCacheManager
from repro.runtime.request import Request, Sequence


class SeesawState(ReplicaState):
    """Scheduling state of one Seesaw replica."""

    def __init__(
        self,
        requests: list[Request],
        kv: KVCacheManager,
        replica_id: int,
        cpu_capacity_tokens: int,
    ) -> None:
        super().__init__(requests, kv, replica_id)
        self.cpu = CPUKVBuffer(capacity_tokens=cpu_capacity_tokens)
        self.d2h = TransferChannel("d2h")
        self.h2d = TransferChannel("h2d")
        # seq_id -> Sequence for entries parked in the CPU pool.
        self.cpu_seqs: dict[int, Sequence] = {}
        # (sequence, arrival_time) prefetches in flight.
        self.inflight: list[tuple[Sequence, float]] = []

    # ------------------------------------------------------------------ #

    def park_in_cpu(self, seq: Sequence, tokens: int) -> None:
        """Record a sequence's KV landing in the CPU pool."""
        self.cpu.push(seq.seq_id, tokens)
        self.cpu_seqs[seq.seq_id] = seq

    def pop_cpu_head(self) -> tuple[Sequence, int]:
        """Remove and return the FIFO head of the CPU pool."""
        seq_id, tokens = self.cpu.pop()
        seq = self.cpu_seqs.pop(seq_id, None)
        if seq is None:
            raise SimulationError(f"CPU pool entry {seq_id} has no sequence")
        return seq, tokens

    @property
    def cpu_has_sequences(self) -> bool:
        return not self.cpu.is_empty

    @property
    def has_immediate_work(self) -> bool:
        """Seesaw can also act on CPU-parked and in-flight sequences."""
        return bool(
            self.waiting or self.running or self.inflight or not self.cpu.is_empty
        )

    def live_sequences(self):
        yield from super().live_sequences()
        yield from self.cpu_seqs.values()
        for seq, _ in self.inflight:
            yield seq

    def stretch_stop(self) -> float:
        """A decode stretch also stops before the earliest in-flight
        prefetch lands (it joins the batch then)."""
        stop = super().stretch_stop()
        if self.inflight:
            return min(stop, self.next_arrival)
        return stop

    def arrived_inflight(self, now: float) -> list[Sequence]:
        """Pop prefetches whose transfer has completed by ``now``."""
        done = [(s, t) for (s, t) in self.inflight if t <= now + 1e-12]
        self.inflight = [(s, t) for (s, t) in self.inflight if t > now + 1e-12]
        return [s for (s, _) in done]

    @property
    def next_arrival(self) -> float:
        if not self.inflight:
            raise SimulationError("no prefetches in flight")
        return min(t for (_, t) in self.inflight)
