"""Per-replica load tracking for the online router.

The router makes its dispatch decision at each request's arrival time,
*before* the replica simulations run, so it needs its own model of how
loaded every replica is at that instant. :class:`ReplicaLoad` keeps that
model: a serial FIFO of dispatched requests, each annotated with predicted
start / prefill-completion / finish times derived from the replica's
service-rate estimates (:class:`RouterContext`). Advancing the virtual
clock retires finished entries; the queued/outstanding token views the
policies rank replicas by are prorated against those windows.

Every dispatch appends one :class:`DispatchRecord`, a slotted record
whose fields the ledger's scans read inline. Both token views are
memoized per instant: records only join at the tail, so a second call at
the same instant extends the previous left fold by the records appended
since, which gives the float a full rescan would. Offline dispatch
(every arrival at one instant) thus probes JSQ's queue and least-work's
outstanding work in O(1) per dispatch, not O(ledger). Retirement and
steals drop both memos.

The model is deliberately first-order — one replica serves one request at
a time at its steady-state token rates — which is exactly the fidelity a
dispatcher in front of N black-box engines has. The engine simulations
behind it remain the source of truth for what the dispatch *cost*.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Iterator

from repro.errors import ConfigurationError
from repro.runtime.request import Request

# Admission epsilon shared with the engines' arrival gating.
_EPS = 1e-12

# Builtin ``sum`` over floats is a plain left fold before Python 3.12 and
# Neumaier-compensated from 3.12 on. The incremental queued-prefill fold
# mirrors whichever this interpreter does, so it returns the very float
# ``sum`` would.
_COMPENSATED_SUM = sum([1.0, 1e100, 1.0, -1e100]) != 0.0


@dataclass(frozen=True)
class RouterContext:
    """Service-rate estimates the load model drains against.

    Attributes:
        prefill_tokens_per_s: Steady-state prefill token rate of one
            replica. ``None`` disables draining — dispatched work then
            accumulates forever and load comparisons degrade to cumulative
            token balance.
        decode_tokens_per_s: Steady-state decode token rate of one
            replica; ``math.inf`` models a pool that hands decode work off
            (the disaggregated prefill pool). ``None`` disables draining.
        kv_capacity_tokens: One replica's KV capacity. When set, a
            dispatch that would push the predicted resident KV past it
            counts as a predicted preemption — the storm signal the router
            rebalances on. ``None`` disables storm detection.
        ttft_slo: TTFT bound (seconds) the ``slo`` dispatch policy routes
            against; ``None`` degrades that policy to least-predicted-TTFT.
        tpot_slo: TPOT bound (seconds/token), carried for symmetry — it
            does not differentiate replicas of one homogeneous group but
            lets heterogeneous routers (and reports) see the target.
    """

    prefill_tokens_per_s: float | None = None
    decode_tokens_per_s: float | None = None
    kv_capacity_tokens: int | None = None
    ttft_slo: float | None = None
    tpot_slo: float | None = None

    def __post_init__(self) -> None:
        for name, rate in (
            ("prefill_tokens_per_s", self.prefill_tokens_per_s),
            ("decode_tokens_per_s", self.decode_tokens_per_s),
            ("ttft_slo", self.ttft_slo),
            ("tpot_slo", self.tpot_slo),
        ):
            if rate is not None and rate <= 0:
                raise ConfigurationError(f"{name} must be positive")


def _duration(tokens: int, rate: float | None) -> float:
    """Predicted seconds to process ``tokens`` at ``rate`` tokens/s."""
    if tokens <= 0:
        return 0.0
    if rate is None:
        return math.inf
    return tokens / rate


def _tail(records: deque, start: int) -> Iterator[DispatchRecord]:
    """``records[start:]``, indexed from the right end of the deque (an
    extension by a few freshly appended records costs O(1), not O(n))."""
    if start == 0:
        return iter(records)
    first = start - len(records)
    if first == -1:
        return (records[-1],)  # one dispatch since the last fold
    return (records[j] for j in range(first, 0))


def _remaining(tokens: int, start: float, end: float, now: float) -> float:
    """Tokens of a [start, end] processing window still ahead of ``now``,
    prorated linearly (the whole amount while the window has not opened,
    zero once it has closed)."""
    if tokens <= 0 or now >= end:
        return 0.0
    if now <= start or math.isinf(end):
        return float(tokens)
    return tokens * (end - now) / (end - start)


@dataclass(slots=True)
class DispatchRecord:
    """One dispatched request with its predicted processing windows.

    Slotted and unfrozen, so building one per dispatch is a plain
    ``__init__``; nothing mutates a record once the ledger holds it, and
    the ledger's scans read its fields inline.
    """

    index: int  # submission index within the routed request list
    request: Request
    start: float  # predicted service start (end of queueing)
    prefill_done: float  # predicted prefill completion
    finish: float  # predicted last-token time

    def started_by(self, now: float) -> bool:
        return self.start <= now + _EPS

    def finished_by(self, now: float) -> bool:
        return self.finish <= now + _EPS


class ReplicaLoad:
    """Mutable load ledger of one replica, maintained by the router."""

    def __init__(self, replica_id: int, context: RouterContext) -> None:
        self.replica_id = replica_id
        self.context = context
        self.records: deque[DispatchRecord] = deque()
        self.clock = 0.0
        self.busy_until = 0.0
        # Dispatch accounting (survives record retirement; adjusted when a
        # rebalance steals queued work back).
        self.num_dispatched = 0
        self.dispatched_prompt_tokens = 0
        self.dispatched_tokens = 0
        self.peak_queued_prefill_tokens = 0.0
        self.predicted_preemptions = 0  # total over the run (stats)
        self.storm_preemptions = 0  # since the last rebalance (trigger)
        self._reset_fold()

    def _reset_fold(self) -> None:
        """Drop both per-instant memos (on retirement or steal): the
        queued-prefill fold of the first ``_fold_len`` records at instant
        ``_fold_now`` (running sum plus its compensation term), and the
        outstanding-work fold of the first ``_work_len`` records at
        ``_work_now``."""
        self._fold_now: float | None = None
        self._fold_len = 0
        self._fold_sum: float = 0  # int 0 like ``sum``'s start: empty -> 0
        self._fold_comp = 0.0
        self._work_now: float | None = None
        self._work_len = 0
        self._work_sum = 0.0

    # ------------------------------------------------------------------ #
    # Clock and load views
    # ------------------------------------------------------------------ #

    def advance(self, now: float) -> None:
        """Move the ledger's clock to ``now``, retiring finished entries.

        Drain is clamped to dispatched work: once the FIFO holds no
        unfinished records the replica is provably idle, so ``busy_until``
        snaps back to ``now``. Retirement tolerates an epsilon
        (``finished_by``), and without the clamp that epsilon residue
        leaves an idle replica reporting a stale positive
        ``work_seconds``/``predicted_ttft`` bias forever after.
        """
        if now < self.clock:
            now = self.clock  # simultaneous arrivals never rewind the clock
        self.clock = now
        records = self.records
        horizon = now + _EPS  # ``finished_by(now)``, inlined
        if records and records[0].finish <= horizon:
            self._reset_fold()
            while records and records[0].finish <= horizon:
                records.popleft()
        if not records and now < self.busy_until:
            self.busy_until = now

    def queued_prefill_tokens(self, now: float | None = None) -> float:
        """Prompt tokens dispatched here but not yet prefilled (JSQ's
        queue-length metric). ``_remaining`` bounds each record's share to
        ``[0, tokens]``, so the depth is clamped to live dispatched work
        by construction.

        Memoized per instant: records only ever join at the tail, so a
        call at the same ``now`` extends the previous left fold by the new
        records' terms — the same float as ``sum`` over the whole ledger,
        in the same order. Offline dispatch (every arrival at one
        instant, nothing retiring) thus costs O(1) instead of O(n). The
        memo is rebuilt when ``now`` differs and dropped on retirement
        or steal.
        """
        return self._queued(self.clock if now is None else now)

    def _queued(self, now: float) -> float:
        """:meth:`queued_prefill_tokens` at ``now``; :meth:`dispatch`
        books its peak through here."""
        records = self.records
        if now == self._fold_now:
            start = self._fold_len
            total, comp = self._fold_sum, self._fold_comp
        else:
            self._fold_now = now
            start, total, comp = 0, 0, 0.0
        for rec in _tail(records, start):
            x = _remaining(rec.request.prompt_len, rec.start, rec.prefill_done, now)
            if _COMPENSATED_SUM:
                t = total + x
                if abs(total) >= abs(x):
                    comp += (total - t) + x
                else:
                    comp += (x - t) + total
                total = t
            else:
                total += x
        self._fold_len = len(records)
        self._fold_sum, self._fold_comp = total, comp
        if comp and math.isfinite(comp):
            return total + comp
        return total

    def outstanding_tokens(self, now: float | None = None) -> float:
        """Unprefilled prompt tokens plus predicted undecoded tokens (the
        least-work metric); bounded like :meth:`queued_prefill_tokens`.

        Memoized per instant like :meth:`queued_prefill_tokens`: a plain
        left fold from ``0.0``, so extending the previous call's fold by
        the records appended since gives the very float a full rescan
        would. Least-work dispatch of an offline workload (every replica
        probed at one instant per arrival) is thus linear, not quadratic.
        """
        now = self.clock if now is None else now
        records = self.records
        if now == self._work_now:
            start, total = self._work_len, self._work_sum
        else:
            self._work_now = now
            start, total = 0, 0.0
        for rec in _tail(records, start):
            req = rec.request
            total += _remaining(req.prompt_len, rec.start, rec.prefill_done, now)
            total += _remaining(req.output_len - 1, rec.prefill_done, rec.finish, now)
        self._work_len = len(records)
        self._work_sum = total
        return total

    def resident_kv_tokens(self, now: float | None = None) -> int:
        """Predicted KV tokens resident on the replica: the final context
        length of every request in service (reservation-style accounting,
        matching how admission pressure builds in the engines).

        Predicted starts are non-decreasing along the FIFO (each dispatch
        starts at or after its predecessor's finish), so the scan stops at
        the first unstarted record.
        """
        now = self.clock if now is None else now
        horizon = now + _EPS  # ``started_by``/``finished_by``, inlined
        total = 0
        for rec in self.records:
            if rec.start > horizon:
                break
            if rec.finish > horizon:
                total += rec.request.total_tokens
        return total

    def work_seconds(self, now: float | None = None) -> float:
        """Predicted seconds until this replica drains its queue."""
        now = self.clock if now is None else now
        return max(0.0, self.busy_until - now)

    def predicted_ttft(self, request: Request, now: float | None = None) -> float:
        """Predicted TTFT of dispatching ``request`` here at ``now``:
        queue drain (the serial FIFO ahead of it) plus its own prefill."""
        now = self.clock if now is None else now
        return self.work_seconds(now) + _duration(
            request.prompt_len, self.context.prefill_tokens_per_s
        )

    def would_preempt(self, request: Request, now: float | None = None) -> bool:
        """Whether dispatching ``request`` here is predicted to push the
        resident KV past capacity (always False without a capacity)."""
        cap = self.context.kv_capacity_tokens
        if cap is None:
            return False
        now = self.clock if now is None else now
        return self.resident_kv_tokens(now) + request.total_tokens > cap

    # ------------------------------------------------------------------ #
    # Dispatch and rebalance
    # ------------------------------------------------------------------ #

    def dispatch(self, index: int, request: Request, now: float) -> DispatchRecord:
        """Assign ``request`` to this replica at ``now``; returns the
        predicted-schedule record appended to the ledger.

        :func:`_duration` and :meth:`resident_kv_tokens` are inlined: the
        same expressions, without a call per dispatch.
        """
        ctx = self.context
        busy = self.busy_until
        start = busy if busy > now else now
        prompt, output = request.prompt_len, request.output_len
        rate = ctx.prefill_tokens_per_s
        prefill_done = start + (
            0.0 if prompt <= 0 else math.inf if rate is None else prompt / rate
        )
        rate = ctx.decode_tokens_per_s
        finish = prefill_done + (
            0.0 if output <= 1 else math.inf if rate is None else (output - 1) / rate
        )
        total_tokens = prompt + output
        records = self.records
        cap = ctx.kv_capacity_tokens
        if cap is not None:
            horizon = now + _EPS
            resident = total_tokens
            for rec in records:
                if rec.start > horizon:
                    break
                if rec.finish > horizon:
                    resident += rec.request.total_tokens
            if resident > cap:
                self.predicted_preemptions += 1
                self.storm_preemptions += 1
        rec = DispatchRecord(index, request, start, prefill_done, finish)
        records.append(rec)
        self.busy_until = finish
        self.num_dispatched += 1
        self.dispatched_prompt_tokens += prompt
        self.dispatched_tokens += total_tokens
        queued = self._queued(now)
        if queued > self.peak_queued_prefill_tokens:
            self.peak_queued_prefill_tokens = queued
        return rec

    def steal_queued(self, now: float) -> list[DispatchRecord]:
        """Remove and return every dispatched-but-unstarted entry (the
        still-pending requests a storm rebalance re-routes elsewhere).
        Resets the storm counter when anything was stolen."""
        horizon = now + _EPS
        kept: list[DispatchRecord] = []
        stolen: list[DispatchRecord] = []
        for rec in self.records:
            (kept if rec.start <= horizon else stolen).append(rec)
        if not stolen:
            return []
        self.records = deque(kept)
        self._reset_fold()
        self.busy_until = kept[-1].finish if kept else now
        for rec in stolen:
            self.num_dispatched -= 1
            self.dispatched_prompt_tokens -= rec.request.prompt_len
            self.dispatched_tokens -= rec.request.total_tokens
        self.storm_preemptions = 0
        return stolen
