"""Workload containers and summary statistics.

**Columnar format.** A :class:`WorkloadSpec` stores four read-only numpy
columns, one row per request: ``request_id``, ``prompt_len`` and
``output_len`` (int64) and ``arrival_time`` (float64 seconds on the
virtual clock; all zeros for an offline workload). The samplers and
arrival stampers write the columns directly; hand-built workloads go
through :meth:`WorkloadSpec.from_requests`. Validation runs as array
masks and reports the first offending request with the message
:class:`~repro.runtime.request.Request` gives; request ids must be
unique. The object pickles as its name and columns only, and ``==``
compares the name and the column bytes.

**Requests view.** :attr:`WorkloadSpec.requests` is a tuple of
:class:`~repro.runtime.request.Request` built from the columns on first
use and cached. The event tier (replica schedulers, the Seesaw core and
the coupled cluster) walks requests one by one and builds it; the fluid
tier, the autotuner's averages and the result cache's key read the
columns and never do.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence as TypingSequence

import numpy as np

from repro.errors import ConfigurationError
from repro.runtime.request import Request, request_violation

if TYPE_CHECKING:  # pragma: no cover - typing only
    from numpy.typing import ArrayLike


class WorkloadSpec:
    """A named batch of inference requests, stored as columns.

    ``request_id`` defaults to ``0 .. n-1`` and ``arrival_time`` to all
    zeros (offline). Every column is copied, so the caller's arrays are
    never frozen or aliased.
    """

    __slots__ = ("_name", "_cols", "_requests")

    def __init__(
        self,
        name: str,
        *,
        prompt_len: ArrayLike,
        output_len: ArrayLike,
        arrival_time: ArrayLike | None = None,
        request_id: ArrayLike | None = None,
    ) -> None:
        prompt = np.array(prompt_len, dtype=np.int64)
        n = prompt.shape[0] if prompt.ndim else 0
        cols = (
            np.arange(n, dtype=np.int64)
            if request_id is None
            else np.array(request_id, dtype=np.int64),
            prompt,
            np.array(output_len, dtype=np.int64),
            np.zeros(n, dtype=np.float64)
            if arrival_time is None
            else np.array(arrival_time, dtype=np.float64),
        )
        if any(c.shape != (n,) for c in cols):
            raise ConfigurationError(
                f"workload {name!r}: request columns must be 1-D and of equal length"
            )
        if n == 0:
            raise ConfigurationError(f"workload {name!r} has no requests")
        _validate(name, cols)
        for col in cols:
            col.setflags(write=False)
        self._name = name
        self._cols = cols
        self._requests: tuple[Request, ...] | None = None

    @classmethod
    def from_requests(cls, name: str, requests: Iterable[Request]) -> "WorkloadSpec":
        """Workload of hand-built requests, in iteration order. The given
        :class:`Request` objects become the cached :attr:`requests` view."""
        reqs = tuple(requests)
        workload = cls(
            name,
            request_id=[r.request_id for r in reqs],
            prompt_len=[r.prompt_len for r in reqs],
            output_len=[r.output_len for r in reqs],
            arrival_time=[r.arrival_time for r in reqs],
        )
        workload._requests = reqs
        return workload

    # ------------------------------------------------------------------ #
    # Columns (read-only arrays, one row per request)
    # ------------------------------------------------------------------ #

    @property
    def name(self) -> str:
        return self._name

    @property
    def request_id(self) -> np.ndarray:
        return self._cols[0]

    @property
    def prompt_len(self) -> np.ndarray:
        return self._cols[1]

    @property
    def output_len(self) -> np.ndarray:
        return self._cols[2]

    @property
    def arrival_time(self) -> np.ndarray:
        return self._cols[3]

    @property
    def columns(self) -> tuple[np.ndarray, ...]:
        """``(request_id, prompt_len, output_len, arrival_time)``: the
        order of :class:`Request`'s fields."""
        return self._cols

    @property
    def requests(self) -> tuple[Request, ...]:
        """The rows as :class:`Request` objects, built on first use."""
        if self._requests is None:
            self._requests = tuple(
                Request(*row)
                for row in zip(*(c.tolist() for c in self._cols), strict=True)
            )
        return self._requests

    # ------------------------------------------------------------------ #

    @property
    def num_requests(self) -> int:
        return int(self._cols[0].shape[0])

    @property
    def total_input_tokens(self) -> int:
        return int(self.prompt_len.sum())

    @property
    def total_output_tokens(self) -> int:
        return int(self.output_len.sum())

    @property
    def decode_prefill_ratio(self) -> float:
        """The paper's D:P ratio — output tokens per input token."""
        return self.total_output_tokens / self.total_input_tokens

    def subset(self, n: int) -> "WorkloadSpec":
        """First ``n`` requests (for scaled-down benchmark runs).

        Arrival-stamped workloads have their subset arrivals time-rescaled
        so the offered request rate of the subset equals the full
        workload's: a raw prefix keeps the original timestamps, whose span
        can misstate the offered load (badly so for bursty processes),
        which would mistune anything that simulates the subsample
        (``simulate_top``, ``tune_chunk_size``). Offline workloads (every
        arrival at 0) pass through unchanged.
        """
        if n < 1:
            raise ConfigurationError("subset size must be >= 1")
        rid, prompt, output, head = (c[:n] for c in self._cols)
        count = rid.shape[0]
        full_span = float(self.arrival_time.max())
        if full_span > 0:
            # Preserve the offered rate exactly: n requests over n/rate
            # seconds.
            target_span = count * full_span / self.num_requests
            raw_span = float(head.max())
            if raw_span > 0:
                head = head * (target_span / raw_span)
            else:
                # The prefix is a t=0 burst of an otherwise-online
                # workload; spread it evenly at the full workload's
                # offered rate.
                gap = target_span / count
                head = np.arange(1, count + 1, dtype=np.float64) * gap
        return WorkloadSpec(
            f"{self.name}[:{n}]",
            request_id=rid,
            prompt_len=prompt,
            output_len=output,
            arrival_time=head,
        )

    # ------------------------------------------------------------------ #
    # Value semantics: equality, hashing and pickling see the columns only
    # ------------------------------------------------------------------ #

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WorkloadSpec):
            return NotImplemented
        return self._name == other._name and all(
            a.shape == b.shape and a.tobytes() == b.tobytes()
            for a, b in zip(self._cols, other._cols, strict=True)
        )

    def __hash__(self) -> int:
        return hash((self._name, *(c.tobytes() for c in self._cols)))

    def __getstate__(self) -> tuple[str, tuple[np.ndarray, ...]]:
        return self._name, self._cols

    def __setstate__(self, state: tuple[str, tuple[np.ndarray, ...]]) -> None:
        name, cols = state
        for col in cols:
            col.setflags(write=False)
        self._name = name
        self._cols = tuple(cols)
        self._requests = None

    def __repr__(self) -> str:
        return f"WorkloadSpec(name={self.name!r}, num_requests={self.num_requests})"


def _validate(name: str, cols: tuple[np.ndarray, ...]) -> None:
    """Reject the first invalid request (as :class:`Request` would) and
    the first request whose id repeats an earlier one."""
    rid, prompt, output, arrival = cols
    bad = (prompt < 1) | (output < 1) | ~np.isfinite(arrival) | (arrival < 0)
    if bad.any():
        i = int(bad.argmax())
        raise ConfigurationError(
            request_violation(
                int(rid[i]), int(prompt[i]), int(output[i]), float(arrival[i])
            )
        )
    if rid.shape[0] > 1 and not bool((rid[1:] > rid[:-1]).all()):
        order = np.argsort(rid, kind="stable")
        repeats = order[1:][rid[order[1:]] == rid[order[:-1]]]
        if repeats.size:
            raise ConfigurationError(
                f"workload {name!r}: duplicate request id {int(rid[repeats.min()])}"
            )


def mean_context(source: WorkloadSpec | TypingSequence[Request]) -> float:
    """Mean of ``prompt_len + output_len / 2`` (the mean context a request
    carries over its decode) of a non-empty workload.

    Every term is a multiple of 0.5 and every partial sum is far below
    2**52, so the sum is exact in any order: the column path's pairwise
    ``np.sum`` equals the request path's left-to-right ``sum``.
    """
    if isinstance(source, WorkloadSpec):
        total = float(np.sum(source.prompt_len + source.output_len / 2.0))
        return total / source.num_requests
    return sum(r.prompt_len + r.output_len / 2.0 for r in source) / len(source)


@dataclass(frozen=True)
class WorkloadStats:
    """Length-distribution summary, matching what Fig. 9 plots."""

    name: str
    num_requests: int
    input_mean: float
    input_p50: float
    input_p90: float
    input_max: int
    output_mean: float
    output_p50: float
    output_p90: float
    output_max: int
    decode_prefill_ratio: float


def workload_stats(workload: WorkloadSpec) -> WorkloadStats:
    """Compute the Fig. 9-style length statistics of a workload."""
    ins = workload.prompt_len.astype(np.float64)
    outs = workload.output_len.astype(np.float64)
    return WorkloadStats(
        name=workload.name,
        num_requests=workload.num_requests,
        input_mean=float(ins.mean()),
        input_p50=float(np.percentile(ins, 50)),
        input_p90=float(np.percentile(ins, 90)),
        input_max=int(ins.max()),
        output_mean=float(outs.mean()),
        output_p50=float(np.percentile(outs, 50)),
        output_p90=float(np.percentile(outs, 90)),
        output_max=int(outs.max()),
        decode_prefill_ratio=workload.decode_prefill_ratio,
    )
