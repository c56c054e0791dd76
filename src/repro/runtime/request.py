"""Requests and sequence state.

A :class:`Request` is one offline-inference job: a prompt of known length
and a number of output tokens (the simulator knows the output length ahead
of time — the oracle a real engine discovers at EOS — and engines are
careful to use it only where a real engine would observe the same
information, e.g. a sequence finishing).

A :class:`Sequence` tracks one request's progress through the engine state
machine::

    WAITING -> PREFILLING -> (PREFILLED_GPU | PREFILLED_CPU)
            -> SWAPPING_IN -> RUNNING -> FINISHED

The CPU states only occur under tiered KV buffering (Seesaw); static
engines go straight from prefill to RUNNING.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

from repro.errors import ConfigurationError


class SequenceState(enum.Enum):
    WAITING = "waiting"
    PREFILLING = "prefilling"  # partially prefilled (chunked prefill)
    PREFILLED_GPU = "prefilled_gpu"  # KV resident on GPU, ready to decode
    PREFILLED_CPU = "prefilled_cpu"  # KV parked in the CPU buffer
    SWAPPING_IN = "swapping_in"  # prefetcher transfer in flight
    RUNNING = "running"  # decoding on GPU
    FINISHED = "finished"


def request_violation(
    request_id: int, prompt_len: int, output_len: int, arrival_time: float
) -> str | None:
    """Why one request is invalid, or ``None`` if it is valid.

    The one statement of the request invariants: :class:`Request` raises
    with it, and :class:`~repro.workloads.spec.WorkloadSpec` uses it to
    word the error for the first row its array masks reject.
    """
    if prompt_len < 1:
        return f"request {request_id}: prompt_len must be >= 1"
    if output_len < 1:
        return f"request {request_id}: output_len must be >= 1"
    if not math.isfinite(arrival_time):
        return (
            f"request {request_id}: arrival_time must be finite, "
            f"got {arrival_time!r}"
        )
    if arrival_time < 0:
        return f"request {request_id}: arrival_time must be >= 0"
    return None


@dataclass(frozen=True)
class Request:
    """One offline inference request."""

    request_id: int
    prompt_len: int
    output_len: int
    arrival_time: float = 0.0

    def __post_init__(self) -> None:
        reason = request_violation(
            self.request_id, self.prompt_len, self.output_len, self.arrival_time
        )
        if reason is not None:
            raise ConfigurationError(reason)

    @property
    def total_tokens(self) -> int:
        """Final context length when generation completes."""
        return self.prompt_len + self.output_len


@dataclass(eq=False, slots=True)
class Sequence:
    """Mutable engine-side view of one request.

    Equality is identity — two sequences are never "the same" just because
    their counters coincide (schedulers keep sequences in lists and rely on
    identity membership).

    Slotted, and it copies its request's immutable ``seq_id``,
    ``prompt_len`` and ``arrival_time`` when it is built: engine loops read
    them on every iteration, so they are one slot read, not a hop through
    ``request``.
    """

    request: Request
    state: SequenceState = SequenceState.WAITING
    prefilled_tokens: int = 0
    generated_tokens: int = 0
    prefill_target: int = field(default=-1)
    prefill_end_time: float = field(default=float("nan"))
    finish_time: float = field(default=float("nan"))
    # Online-serving timestamps: when the scheduler first touched this
    # sequence and when its first output token was produced. Both are
    # sticky (set once) so recompute preemptions don't rewrite history.
    first_schedule_time: float = field(default=float("nan"))
    first_token_time: float = field(default=float("nan"))
    num_preemptions: int = 0
    seq_id: int = field(init=False, repr=False)
    prompt_len: int = field(init=False, repr=False)
    arrival_time: float = field(init=False, repr=False)

    def __post_init__(self) -> None:
        request = self.request
        self.seq_id = request.request_id
        self.prompt_len = request.prompt_len
        self.arrival_time = request.arrival_time
        if self.prefill_target < 0:
            self.prefill_target = request.prompt_len

    @property
    def context_len(self) -> int:
        """Tokens currently in this sequence's KV cache.

        Prefill counts the first generated token against the prompt pass,
        so context is prompt + generated during decode.
        """
        if self.state in (SequenceState.WAITING, SequenceState.PREFILLING):
            return self.prefilled_tokens
        return self.prompt_len + self.generated_tokens

    @property
    def final_context_len(self) -> int:
        """Context length at completion (used for KV reservations)."""
        return self.request.total_tokens

    @property
    def remaining_prefill(self) -> int:
        """Prompt tokens still to prefill. After a recompute preemption the
        target includes previously generated tokens whose KV must be
        rebuilt."""
        return max(0, self.prefill_target - self.prefilled_tokens)

    @property
    def remaining_decode(self) -> int:
        """Decode iterations left. Prefill produces the first output token,
        so a request with ``output_len`` tokens needs ``output_len - 1``
        decode steps."""
        return max(0, self.request.output_len - 1 - self.generated_tokens)

    @property
    def is_prefill_complete(self) -> bool:
        return self.prefilled_tokens >= self.prefill_target

    @property
    def is_finished(self) -> bool:
        return self.state == SequenceState.FINISHED

    def advance_prefill(self, tokens: int) -> None:
        """Record ``tokens`` of the prompt being prefilled."""
        if tokens < 0:
            raise ConfigurationError("prefill advance must be >= 0")
        self.prefilled_tokens = min(self.prompt_len, self.prefilled_tokens + tokens)

    def advance_decode(self) -> None:
        """Record one generated token."""
        self.generated_tokens += 1

    def mark_scheduled(self, now: float) -> None:
        """Record the first time the scheduler admitted this sequence.

        Sticky: later admissions (after preemption) do not move it, so
        queue delay measures arrival to *first* service.
        """
        # ``x != x`` is the NaN test, without a call per stamp.
        if self.first_schedule_time != self.first_schedule_time:
            self.first_schedule_time = now

    def mark_first_token(self, now: float) -> None:
        """Record the first output token (end of the producing prefill
        pass). Sticky across recompute preemptions."""
        if self.first_token_time != self.first_token_time:  # NaN: unset
            self.first_token_time = now

    def mark_finished(self, now: float) -> None:
        self.state = SequenceState.FINISHED
        self.finish_time = now
        # A request whose only token came from prefill finishes without a
        # separate first-token event; backfill so latency records close.
        if self.first_token_time != self.first_token_time:
            self.first_token_time = now

    def preempt_recompute(self) -> None:
        """Drop cached KV for recompute-style preemption: the next prefill
        must rebuild the prompt plus everything generated so far."""
        self.prefill_target = self.prompt_len + self.generated_tokens
        self.prefilled_tokens = 0
        self.state = SequenceState.WAITING
