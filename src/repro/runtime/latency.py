"""Per-request latency records and aggregate serving statistics.

Offline throughput (the paper's headline metric) collapses a run into one
number; online serving is judged by the latency each request observed.
This module holds the two types that carry that information out of the
engines:

- :class:`RequestLatency` — the timestamps of one request's life cycle
  (arrival, first schedule, first token, finish) and the standard derived
  metrics: queue delay, TTFT (time-to-first-token), TPOT (time-per-output-
  token) and E2E latency.
- :class:`LatencyStats` — an immutable, columnar table of every finished
  request with the aggregate views reports need (mean/p50/p90/p99 per
  metric, SLO attainment) and a merge operation for data-parallel runs.

**Columnar format.** :class:`LatencyStats` stores seven read-only numpy
columns, one row per request: ``request_id``, ``arrival``,
``first_schedule``, ``first_token``, ``finish`` (float64 seconds on the
virtual clock), ``output_len`` and ``num_preemptions`` (int64). Producers
fill the columns directly (:meth:`LatencyStats.from_columns`; the fluid
tier hands over its stamp lists) or through the row-wise builders
:meth:`LatencyStats.from_sequences` and :meth:`LatencyStats.from_records`.
Validation runs as array masks and reports the first offending request
with the same message the per-record check gives. The object pickles as
its columns only, and ``==`` compares the columns bit for bit.

**Records view.** :attr:`LatencyStats.records` is a tuple of
:class:`RequestLatency` derived lazily from the columns, for consumers that
walk requests one by one (tracing, windowed telemetry, tests).

**Clamp rule.** Every aggregate is bit-identical to the per-record
derivation on :class:`RequestLatency`, which clamps each latency with
``max(0.0, d)``. Python's ``max`` keeps its first argument unless the
second is strictly greater, so the columnar form is
``np.where(d > 0.0, d, 0.0)``: it maps ``-0.0`` and the negative-epsilon
gaps the admission tolerance allows to ``+0.0``. ``np.maximum(0.0, d)``
returns ``-0.0`` for ``-0.0`` (on ties it keeps whichever argument its
loop favours) and is not used. The per-record aggregation this replaces is
kept in ``tests/test_latency.py`` as the differential oracle.

Engines populate timestamps on :class:`~repro.runtime.request.Sequence`
as they schedule; :meth:`LatencyStats.from_sequences` folds the finished
sequences into columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence as TypingSequence

import numpy as np

from repro.errors import SimulationError
from repro.utils.stats import Summary, summarize

if TYPE_CHECKING:  # pragma: no cover - typing only
    from numpy.typing import ArrayLike

# Engines admit arrivals within 1e-12 of the clock, so a stamp can precede
# the previous one by that much without the life cycle being wrong.
_ADMISSION_EPS = 1e-9

# Column order; it is also RequestLatency's positional field order.
_COLUMNS = (
    "request_id",
    "arrival",
    "first_schedule",
    "first_token",
    "finish",
    "output_len",
    "num_preemptions",
)


def _violation(
    request_id: int,
    arrival: float,
    first_schedule: float,
    first_token: float,
    finish: float,
    output_len: int,
) -> str | None:
    """Why one request's life cycle is invalid, or ``None`` if it is valid.

    The one statement of the record invariants: :class:`RequestLatency`
    raises with it, and :meth:`LatencyStats.from_columns` uses it to word
    the error for the first row its array masks reject.
    """
    stamps = (arrival, first_schedule, first_token, finish)
    if any(math.isnan(t) for t in stamps):
        return f"request {request_id}: latency record has unset timestamps"
    if any(math.isinf(t) for t in stamps):
        return (
            f"request {request_id}: latency record has non-finite timestamps "
            f"({arrival} -> {first_schedule} -> {first_token} -> {finish})"
        )
    eps = _ADMISSION_EPS
    if not (
        arrival <= first_schedule + eps
        and first_schedule <= first_token + eps
        and first_token <= finish + eps
    ):
        return (
            f"request {request_id}: non-monotone life cycle "
            f"({arrival} -> {first_schedule} -> {first_token} -> {finish})"
        )
    if output_len < 1:
        return f"request {request_id}: output_len must be >= 1"
    return None


def _clamp(d: np.ndarray) -> np.ndarray:
    """``max(0.0, x)`` per element, bit for bit (see the module docstring)."""
    return np.where(d > 0.0, d, 0.0)


_EMPTY_SUMMARY = Summary(
    count=0, mean=0.0, std=0.0, minimum=0.0, p50=0.0, p90=0.0, p99=0.0, maximum=0.0
)


@dataclass(frozen=True)
class RequestLatency:
    """Life-cycle timestamps and derived latencies of one served request.

    All times are on the engine's virtual clock, in seconds. ``finish_time``
    is when the last output token was produced; ``first_token_time`` is when
    the prefill pass that produced the first output token completed.
    """

    request_id: int
    arrival_time: float
    first_schedule_time: float
    first_token_time: float
    finish_time: float
    output_len: int
    num_preemptions: int = 0

    def __post_init__(self) -> None:
        reason = _violation(
            self.request_id,
            self.arrival_time,
            self.first_schedule_time,
            self.first_token_time,
            self.finish_time,
            self.output_len,
        )
        if reason is not None:
            raise SimulationError(reason)

    @classmethod
    def from_sequence(cls, seq: "object") -> "RequestLatency":
        """Build a record from a finished engine sequence (duck-typed to
        avoid a circular import with :mod:`repro.runtime.request`)."""
        return cls(*_sequence_row(seq))

    @property
    def queue_delay(self) -> float:
        """Arrival to first being scheduled (pure queueing). Clamped at 0
        to absorb the admission epsilon."""
        return max(0.0, self.first_schedule_time - self.arrival_time)

    @property
    def ttft(self) -> float:
        """Arrival to first output token (queueing + prefill)."""
        return max(0.0, self.first_token_time - self.arrival_time)

    @property
    def e2e(self) -> float:
        """Arrival to last output token."""
        return max(0.0, self.finish_time - self.arrival_time)

    @property
    def has_decode_phase(self) -> bool:
        """Whether any token was produced by decode (not just prefill)."""
        return self.output_len > 1

    @property
    def tpot(self) -> float | None:
        """Mean inter-token time over the decode phase. A request whose
        only token came from prefill has no decode phase, so its TPOT is
        undefined (``None``) — not 0, which would trivially satisfy any
        TPOT SLO and inflate attainment."""
        if not self.has_decode_phase:
            return None
        return max(
            0.0, (self.finish_time - self.first_token_time) / (self.output_len - 1)
        )


def _sequence_row(seq) -> tuple:
    """One finished sequence as a row in :data:`_COLUMNS` order."""
    return (
        seq.seq_id,
        seq.request.arrival_time,
        seq.first_schedule_time,
        seq.first_token_time,
        seq.finish_time,
        seq.request.output_len,
        seq.num_preemptions,
    )


class LatencyStats:
    """Aggregate latency view over a columnar table of finished requests.

    Holding every request (rather than pre-reduced summaries) keeps the
    data-parallel merge exact: percentiles over the union of replicas are
    computed from the union, not approximated from per-replica summaries.

    Build one with :meth:`from_columns`, :meth:`from_sequences`,
    :meth:`from_records` or :meth:`merged`; the constructor itself takes
    columns that are already validated.
    """

    __slots__ = ("_cols", "_records")

    def __init__(self, cols: tuple[np.ndarray, ...]) -> None:
        if cols[0].shape[0] == 0:
            raise SimulationError("LatencyStats needs at least one record")
        for col in cols:
            col.setflags(write=False)
        self._cols = cols
        self._records: tuple[RequestLatency, ...] | None = None

    @classmethod
    def from_columns(
        cls,
        *,
        request_id: ArrayLike,
        arrival: ArrayLike,
        first_schedule: ArrayLike,
        first_token: ArrayLike,
        finish: ArrayLike,
        output_len: ArrayLike,
        num_preemptions: ArrayLike | None = None,
    ) -> "LatencyStats":
        """Validated table from per-request columns: lists or 1-D arrays,
        row ``i`` of every column being one request. ``num_preemptions``
        defaults to zeros."""
        rid = np.array(request_id, dtype=np.int64)
        stamps = [
            np.array(c, dtype=np.float64)
            for c in (arrival, first_schedule, first_token, finish)
        ]
        out = np.array(output_len, dtype=np.int64)
        pre = (
            np.zeros(rid.shape, dtype=np.int64)
            if num_preemptions is None
            else np.array(num_preemptions, dtype=np.int64)
        )
        cols = (rid, *stamps, out, pre)
        if any(c.ndim != 1 or c.shape != rid.shape for c in cols):
            raise SimulationError("latency columns must be 1-D and of equal length")
        a, s, f, e = stamps
        eps = _ADMISSION_EPS
        bad = ~(np.isfinite(a) & np.isfinite(s) & np.isfinite(f) & np.isfinite(e))
        bad |= ~((a <= s + eps) & (s <= f + eps) & (f <= e + eps))
        bad |= out < 1
        if bad.any():
            i = int(bad.argmax())
            raise SimulationError(
                _violation(
                    int(rid[i]), float(a[i]), float(s[i]), float(f[i]),
                    float(e[i]), int(out[i]),
                )
            )
        return cls(cols)

    @classmethod
    def from_sequences(cls, seqs: Iterable[object]) -> "LatencyStats":
        """Table of finished engine sequences, in iteration order."""
        return cls._from_rows([_sequence_row(s) for s in seqs])

    @classmethod
    def from_records(cls, records: Iterable[RequestLatency]) -> "LatencyStats":
        """Table of per-request records, in iteration order."""
        return cls._from_rows(
            [
                (
                    r.request_id,
                    r.arrival_time,
                    r.first_schedule_time,
                    r.first_token_time,
                    r.finish_time,
                    r.output_len,
                    r.num_preemptions,
                )
                for r in records
            ]
        )

    @classmethod
    def _from_rows(cls, rows: list[tuple]) -> "LatencyStats":
        columns = list(zip(*rows, strict=True)) or [()] * len(_COLUMNS)
        return cls.from_columns(**dict(zip(_COLUMNS, columns, strict=True)))

    @classmethod
    def merged(cls, parts: TypingSequence["LatencyStats"]) -> "LatencyStats":
        """Exact union of several replicas' tables (DP merge), sorted by
        request id.

        Replicas own disjoint request partitions — including elastic
        fleets, where a request re-dispatched away from a draining or
        storming replica must finish on exactly one survivor — so a
        request id appearing twice means some replica double-counted a
        request it no longer owned; that is rejected rather than silently
        skewing every percentile.
        """
        if not parts:
            raise SimulationError("no latency stats to merge")
        cols = [
            np.concatenate([p._cols[k] for p in parts]) for k in range(len(_COLUMNS))
        ]
        order = np.argsort(cols[0], kind="stable")
        ids = cols[0][order]
        dup = np.flatnonzero(ids[1:] == ids[:-1])
        if dup.size:
            raise SimulationError(
                f"request {int(ids[dup[0]])} finished on two replicas "
                "(duplicate record in DP latency merge)"
            )
        return cls(tuple(c[order] for c in cols))

    # ------------------------------------------------------------------ #
    # Columns (read-only arrays, one row per request)
    # ------------------------------------------------------------------ #

    @property
    def request_id(self) -> np.ndarray:
        return self._cols[0]

    @property
    def arrival(self) -> np.ndarray:
        return self._cols[1]

    @property
    def first_schedule(self) -> np.ndarray:
        return self._cols[2]

    @property
    def first_token(self) -> np.ndarray:
        return self._cols[3]

    @property
    def finish(self) -> np.ndarray:
        return self._cols[4]

    @property
    def output_len(self) -> np.ndarray:
        return self._cols[5]

    @property
    def num_preemptions(self) -> np.ndarray:
        return self._cols[6]

    @property
    def num_requests(self) -> int:
        return int(self._cols[0].shape[0])

    @property
    def records(self) -> tuple[RequestLatency, ...]:
        """The rows as :class:`RequestLatency` records, built on first use."""
        if self._records is None:
            self._records = tuple(
                RequestLatency(*row)
                for row in zip(*(c.tolist() for c in self._cols), strict=True)
            )
        return self._records

    # ------------------------------------------------------------------ #
    # Per-metric summaries (mean / p50 / p90 / p99 via utils.stats)
    # ------------------------------------------------------------------ #

    def _since_arrival(self, stamp: np.ndarray) -> np.ndarray:
        return _clamp(stamp - self.arrival)

    def _tpot_values(self) -> tuple[np.ndarray, np.ndarray]:
        """``(has_decode, tpot)``: the decode-phase mask, and each row's
        TPOT (meaningful only where the mask is set)."""
        out = self.output_len
        has_decode = out > 1
        steps = np.where(has_decode, out - 1, 1)
        return has_decode, _clamp((self.finish - self.first_token) / steps)

    @property
    def ttft(self) -> Summary:
        return summarize(self._since_arrival(self.first_token))

    @property
    def tpot(self) -> Summary:
        """Summary over requests that have a decode phase (single-token
        requests have no TPOT and would drag every percentile toward 0).
        All-prefill runs yield an empty (all-zero, count=0) summary."""
        has_decode, tpot = self._tpot_values()
        if not has_decode.any():
            return _EMPTY_SUMMARY
        return summarize(tpot[has_decode])

    @property
    def e2e(self) -> Summary:
        return summarize(self._since_arrival(self.finish))

    @property
    def queue_delay(self) -> Summary:
        return summarize(self._since_arrival(self.first_schedule))

    @property
    def total_preemptions(self) -> int:
        return int(self.num_preemptions.sum())

    # ------------------------------------------------------------------ #

    def slo_attainment(
        self,
        ttft_slo: float | None = None,
        tpot_slo: float | None = None,
        e2e_slo: float | None = None,
    ) -> float:
        """Fraction of requests meeting every given SLO (in [0, 1]).

        ``None`` bounds are not enforced; with no bounds at all, attainment
        is trivially 1.0. The TPOT bound only applies to requests with a
        decode phase: a single-token request has no TPOT, so it is judged
        on the remaining bounds — and excluded from the population entirely
        when the TPOT bound is the only one given (rather than counted as
        trivially meeting it). An all-excluded population is vacuously 1.0.
        """
        for name, slo in (("ttft", ttft_slo), ("tpot", tpot_slo), ("e2e", e2e_slo)):
            if slo is not None and not 0.0 < slo < math.inf:
                raise SimulationError(
                    f"{name} SLO must be positive and finite (got {slo!r})"
                )
        has_decode, tpot = self._tpot_values()
        if ttft_slo is None and e2e_slo is None and tpot_slo is not None:
            judged = has_decode
        else:
            judged = np.ones(self.num_requests, dtype=bool)
        # A request misses a bound when its latency is strictly above it.
        met = judged.copy()
        if ttft_slo is not None:
            met &= ~(self._since_arrival(self.first_token) > ttft_slo)
        if tpot_slo is not None:
            met &= ~(has_decode & (tpot > tpot_slo))
        if e2e_slo is not None:
            met &= ~(self._since_arrival(self.finish) > e2e_slo)
        num_judged = int(judged.sum())
        if num_judged == 0:
            return 1.0
        return int(met.sum()) / num_judged

    # ------------------------------------------------------------------ #
    # Value semantics: equality, hashing and pickling see the columns only
    # ------------------------------------------------------------------ #

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LatencyStats):
            return NotImplemented
        return all(
            a.shape == b.shape and a.tobytes() == b.tobytes()
            for a, b in zip(self._cols, other._cols, strict=True)
        )

    def __hash__(self) -> int:
        return hash(tuple(c.tobytes() for c in self._cols))

    def __getstate__(self) -> tuple[np.ndarray, ...]:
        return self._cols

    def __setstate__(self, state: tuple[np.ndarray, ...]) -> None:
        for col in state:
            col.setflags(write=False)
        self._cols = tuple(state)
        self._records = None

    def __repr__(self) -> str:
        return f"LatencyStats(num_requests={self.num_requests})"

    def describe(self) -> str:
        t, p, e, q = self.ttft, self.tpot, self.e2e, self.queue_delay
        return (
            f"ttft p50={t.p50:.3f}s p99={t.p99:.3f}s | "
            f"tpot p50={p.p50 * 1e3:.1f}ms p99={p.p99 * 1e3:.1f}ms | "
            f"e2e p50={e.p50:.3f}s p99={e.p99:.3f}s | "
            f"queue mean={q.mean:.3f}s"
        )
