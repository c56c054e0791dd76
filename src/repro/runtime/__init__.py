"""Simulated execution substrate shared by all engines.

Provides the pieces a real inference engine owns, in simulated form:
request/sequence state machines, a paged GPU KV-cache allocator, the tiered
CPU KV buffer, serialized transfer channels (the PCIe links the async
swap pipeline runs over), and metrics accounting. Engines in
:mod:`repro.engines` drive these against the cost model's virtual clock.
"""

from repro.runtime.request import Request, Sequence, SequenceState
from repro.runtime.kvcache import KVCacheManager
from repro.runtime.cpu_buffer import CPUKVBuffer
from repro.runtime.channel import TransferChannel
from repro.runtime.latency import LatencyStats, RequestLatency
from repro.runtime.metrics import RunMetrics, EngineResult, PhaseTimer

__all__ = [
    "Request",
    "Sequence",
    "SequenceState",
    "KVCacheManager",
    "CPUKVBuffer",
    "TransferChannel",
    "RequestLatency",
    "LatencyStats",
    "RunMetrics",
    "EngineResult",
    "PhaseTimer",
]
