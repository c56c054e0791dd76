"""Inference engines: the baselines the paper compares against.

- :class:`VllmLikeEngine` — static parallelism with continuous batching and
  prefill-prioritized scheduling, optionally with Sarathi-style chunked
  prefill (the paper's vLLM 0.5.4 baseline).
- :class:`DecodePrioritizedEngine` — batch-at-a-time scheduling
  (FasterTransformer-style), the other scheduling extreme of Fig. 2.
- :class:`DisaggregatedEngine` — DistServe-style spatial prefill/decode
  split, used in the Section 3.2 / Fig. 4 analysis.

Seesaw itself lives in :mod:`repro.core`.
"""

from repro.engines.base import BaseEngine, EngineOptions, RunHooks
from repro.engines.vllm_like import VllmLikeEngine
from repro.engines.decode_prioritized import DecodePrioritizedEngine
from repro.engines.disaggregated import DisaggregatedEngine, DisaggregationPlan

__all__ = [
    "BaseEngine",
    "EngineOptions",
    "RunHooks",
    "VllmLikeEngine",
    "DecodePrioritizedEngine",
    "DisaggregatedEngine",
    "DisaggregationPlan",
]
