"""Seesaw-specific options, extending the shared engine options.

Every flag here switches off one of the paper's design decisions; the
defaults reproduce the paper's system, and the ablation benchmarks flip
them one at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.engines.base import EngineOptions
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class SeesawOptions(EngineOptions):
    """Knobs of the Seesaw engine.

    Attributes:
        overlap_swap: Run KV swap-in/out on the asynchronous pipeline
            (Section 5.2). Off = every transfer blocks compute.
        use_cpu_buffer: Tiered KV cache buffering (Section 4.2). Off =
            re-sharding falls back to decode-prioritized batches sized by
            GPU memory alone.
        eager_transitions: Ablation of transition-minimizing scheduling:
            switch stages eagerly the way prefill-prioritized continuous
            batching would (Fig. 2(a) behaviour, exposing re-shard cost).
        reuse_weight_overlap: Skip reloading weight bytes a GPU already
            holds after the switch (shard-reuse optimization; the paper's
            implementation reloads the full shard from CPU memory).
        arrival_rate: Predicted offered request rate (req/s) of the live
            traffic, as estimated by the autotuner's serving objective.
            When set, the phase loop consults it before re-sharding to
            prefill: if more arrivals are expected within one transition
            time than are currently waiting, it waits for them so the
            re-shard amortizes over a larger prefill batch
            (transition-minimizing scheduling under live traffic).
            ``None`` (the default) keeps the seed's phase behaviour.
            Decoupled only: a coupled replica sees no planned arrivals.
    """

    overlap_swap: bool = True
    use_cpu_buffer: bool = True
    eager_transitions: bool = False
    reuse_weight_overlap: bool = False
    arrival_rate: float | None = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.arrival_rate is not None and self.arrival_rate <= 0:
            raise ConfigurationError("arrival_rate must be positive")
        if self.arrival_rate is not None and self.coupled:
            raise ConfigurationError(
                "arrival_rate needs the decoupled path: the deferral waits "
                "for planned arrivals, which a coupled replica cannot see"
            )

    @property
    def staging_tokens(self) -> int:
        """GPU KV tokens kept free for the prefill working set while decode
        sequences stay resident: two prefill micro-batch token budgets."""
        return 2 * self.max_batched_tokens
