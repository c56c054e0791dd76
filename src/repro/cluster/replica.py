"""One replica as an incrementally steppable simulation, plus its
observed-load view.

:class:`ReplicaSim` wraps an engine's per-replica event-loop generator
(:meth:`repro.engines.base.BaseEngine._replica_loop`), which runs over the
replica's :class:`~repro.engines.base.ReplicaState`, behind the
discrete-event interface the cluster simulator drives:

- ``next_event_time()`` — when this replica next does something: its own
  clock while it has admissible work, the earliest injected arrival while
  it is idle, ``inf`` when it has nothing at all;
- ``advance(until)`` — execute every event starting before ``until``
  (iterations are atomic, so the clock may overshoot ``until`` by the
  tail of the last iteration — exactly like a real engine that cannot
  abort a launched forward pass);
- ``inject(request)`` — dispatch a request to this replica; the engine's
  scheduler admits it when its clock reaches the arrival time.

Every engine loop resume, decoupled or coupled, passes through
:meth:`ReplicaSim._step`, the one no-progress watchdog: when
:data:`NO_PROGRESS_LIMIT` resumes in a row leave the pending, waiting and
finished counts, the decode backlog and the waiting head's prefilled
tokens unchanged, it raises :class:`~repro.errors.SchedulingError` with
the rule, the virtual time, the replica and the engine label.

:class:`ObservedLoad` projects the replica's *actual* scheduling state
(queued tokens, KV headroom, measured preemptions) onto the same view API
as the decoupled :class:`repro.routing.load.ReplicaLoad` ledger, so every
dispatch policy in :mod:`repro.routing.policies` ranks observed replicas
without modification.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import TYPE_CHECKING

from repro.errors import SchedulingError
from repro.routing.load import RouterContext, _duration
from repro.runtime.request import Request

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engines.base import BaseEngine

_EPS = 1e-12

#: No-progress resumes in a row that make a livelock: 32x the longest
#: run any legitimate simulation shows (2).
NO_PROGRESS_LIMIT = 64


class ReplicaSim:
    """One DP replica driven event-by-event on the shared cluster clock."""

    def __init__(
        self,
        engine: "BaseEngine",
        replica_id: int,
        requests: list[Request] | None = None,
        start_time: float = 0.0,
    ) -> None:
        self.engine = engine
        self.replica_id = replica_id
        self.state = engine._replica_setup(list(requests or []), replica_id)
        # A replica born mid-run (an elastic scale-up) starts its clock at
        # its activation instant: idle/phase accounting then covers only
        # the window in which the replica actually existed.
        self.clock = start_time
        self._events = None
        # Fixed-interval state sampler (repro.obs); None keeps _step on
        # the exact pre-telemetry path.
        tel = engine.hooks.telemetry
        self._probe = tel.probe(replica_id, start_time) if tel is not None else None
        # Runtime invariant sanitizer (repro.check); None keeps _step on
        # the exact unsanitized path.
        self._san = engine.hooks.sanitize
        # Observed-preemption watermark of the last storm check (the
        # coupled analog of ReplicaLoad.storm_preemptions resets).
        self.preemption_mark = 0
        # Snapshot taken before the cluster advances to each new arrival
        # instant: preemptions above it happened "just now", the recency
        # window the slo policy penalizes. Refreshing it every arrival
        # step makes the penalty decay naturally instead of branding a
        # replica forever for one long-past eviction.
        self.preemption_snapshot = 0
        self.peak_queued_prefill_tokens = 0.0
        self.redispatched_in = 0
        # Queued-prefill cache, keyed on the state's prefill epoch: the
        # unstarted-prompt token sum plus the completed-but-in-flight
        # prefills as (end_time, suffix-token-sum) arrays, so a dispatch
        # probe is a bisect instead of a walk over every live sequence.
        self._agg_epoch = -1
        self._agg_unstarted = 0
        self._agg_ends: list[float] = []
        self._agg_suffix: list[int] = [0]
        # The last resume's progress fingerprint and its repeats in a row.
        self._progress = None
        self._stalls = 0

    # ------------------------------------------------------------------ #
    # Event interface
    # ------------------------------------------------------------------ #

    def next_event_time(self) -> float:
        """Earliest time this replica acts next (``inf`` when drained)."""
        state = self.state
        if state.has_immediate_work:
            return self.clock
        if not state.pending:
            return math.inf
        arrival = state.pending[0].arrival_time
        return self.clock if arrival <= self.clock + _EPS else arrival

    def drained_by(self, now: float) -> bool:
        """Whether nothing dispatched here is left to run. The cluster
        loop advances every live replica to ``now`` before the fleet
        reaps, so a replica without a next event has drained."""
        return math.isinf(self.next_event_time())

    def advance(self, until: float) -> None:
        """Execute every event that starts before ``until``.

        Events at exactly ``until`` are left for the next call so an
        arrival being dispatched at ``until`` is visible to the iteration
        that starts there (matching the engines' admission epsilon).
        """
        while True:
            t = self.next_event_time()
            if math.isinf(t) or t + _EPS >= until:
                return
            self._step(until)

    def finish(self) -> None:
        """Run the replica to its event loop's end (no further
        injections): a tail yielded after the last request finished (a
        pipeline drain) still counts."""
        while self._events is not None or not math.isinf(self.next_event_time()):
            self._step()

    def _step(self, until: float = math.inf) -> None:
        """Execute one event: resume the engine's event-loop generator.

        A resume may run a stretch (several iterations,
        :meth:`~repro.engines.base.BaseEngine._stretch`); its horizon
        is ``until`` or the telemetry probe's next sample instant,
        whichever comes first, so every iteration that starts there is
        one this loop, or a sample, would have seen on its own."""
        state = self.state
        if self._events is None:
            self._events = self.engine._replica_loop(state, self.clock)
        probe = self._probe
        if probe is not None and probe.next_sample_time < until:
            until = probe.next_sample_time
        state.horizon = until
        try:
            t = next(self._events)
            if self._san is not None:
                self._san.note_replica_clock(self.replica_id, self.clock, t)
            self.clock = max(self.clock, t)
            if self._probe is not None:
                self._probe.tick(self.clock, self.state)
        except StopIteration:
            # Drained for now; a later inject() re-arms the loop from the
            # current clock (all state persists in self.state).
            self._events = None
        waiting = state.waiting
        progress = (
            len(state.pending), len(waiting), len(state.finished),
            state.decode_backlog, waiting[0].prefilled_tokens if waiting else -1,
        )
        self._stalls = self._stalls + 1 if progress == self._progress else 0
        self._progress = progress
        if self._stalls >= NO_PROGRESS_LIMIT:
            raise SchedulingError(
                f"no-progress watchdog: {NO_PROGRESS_LIMIT} resumes in a row "
                f"left the queues, finished count, decode backlog and head "
                f"prefill unchanged at t={self.clock!r} s on replica "
                f"{self.replica_id} of {self.engine.name}[{self.engine.label()}]"
            )

    # ------------------------------------------------------------------ #
    # Dispatch interface
    # ------------------------------------------------------------------ #

    def inject(self, request: Request) -> None:
        """Dispatch ``request`` to this replica."""
        self.state.add_request(request)

    # ------------------------------------------------------------------ #
    # Observed state
    # ------------------------------------------------------------------ #

    def queued_prefill_tokens(self, now: float | None = None) -> float:
        """Prompt tokens dispatched here whose prefill is not done by ``now``.

        Iterations are atomic, so the replica's committed state can run
        ahead of the cluster clock; a prompt whose prefill *completes*
        after ``now`` is still in flight from the dispatcher's viewpoint
        and counts at its full prefill size (the honest observation — the
        router cannot see inside a forward pass).
        """
        now = self.clock if now is None else now
        self._refresh_prefill_cache()
        idx = bisect_right(self._agg_ends, now + _EPS)
        return float(self._agg_unstarted + self._agg_suffix[idx])

    def _refresh_prefill_cache(self) -> None:
        """Rebuild the queued-prefill aggregates when the replica's prefill
        epoch moved (queue membership, prefill progress or running-set
        churn since the last probe); pure decode iterations leave the
        epoch alone, so steady-state probes cost one bisect."""
        state = self.state
        if state.prefill_epoch == self._agg_epoch:
            return
        self._agg_epoch = state.prefill_epoch
        # Unstarted work is only what sits in the queues: a sequence whose
        # prefill was rebuilt after a recompute preemption keeps a target
        # above its prompt length (it reads as never-complete), but once
        # running again it owes the dispatcher nothing.
        # Inlined Sequence property bodies: this rebuild runs once per
        # (epoch bump x probe) and the attribute reads dominate it.
        unstarted = 0
        for s in state.pending:
            left = s.prefill_target - s.prefilled_tokens
            if left > 0:
                unstarted += left
        for s in state.waiting:
            left = s.prefill_target - s.prefilled_tokens
            if left > 0:
                unstarted += left
        self._agg_unstarted = unstarted
        pairs = []
        for s in state.live_sequences():
            if s.prefilled_tokens >= s.prefill_target:
                end = s.prefill_end_time
                if end == end:  # NaN = never scheduled with a known end
                    pairs.append((end, s.prefill_target))
        pairs.sort()
        ends = [p[0] for p in pairs]
        suffix = [0] * (len(pairs) + 1)
        for i in range(len(pairs) - 1, -1, -1):
            suffix[i] = suffix[i + 1] + pairs[i][1]
        self._agg_ends = ends
        self._agg_suffix = suffix

    def unstarted_prefill_tokens(self) -> int:
        """Prompt tokens the scheduler has not pulled into any pass yet."""
        self._refresh_prefill_cache()
        return self._agg_unstarted

    def decode_backlog_tokens(self) -> float:
        """Output tokens still to decode across every live sequence (an
        exact counter the engine loops maintain incrementally)."""
        return float(self.state.decode_backlog)

    def outstanding_tokens(self, now: float | None = None) -> float:
        """Unprefilled prompt plus undecoded output tokens (least-work)."""
        return self.queued_prefill_tokens(now) + self.decode_backlog_tokens()

    def committed_ahead_seconds(self, now: float | None = None) -> float:
        """How far this replica's committed iterations run past ``now`` —
        the in-flight work a dispatcher at ``now`` must wait behind."""
        now = self.clock if now is None else now
        return max(0.0, self.clock - now)

    @property
    def num_requests(self) -> int:
        """Requests dispatched here (storm-stolen ones excluded)."""
        return len(self.state.requests)

    @property
    def total_tokens(self) -> int:
        """Prompt plus output tokens of the requests dispatched here."""
        return sum(r.prompt_len + r.output_len for r in self.state.requests)

    def observed_preemptions(self) -> int:
        """Preemptions that actually happened on this replica so far
        (the engines' O(1) run-metrics counter — probed on every arrival,
        so scanning sequences here would make the event loop quadratic)."""
        return self.state.metrics.preemptions

    def idle_time(self) -> float:
        """Wall time this replica spent sleeping on an empty queue."""
        return self.state.metrics.phase_timer.get("idle")

    def preempted_recently(self) -> bool:
        """Whether a preemption happened since the cluster last advanced
        to a new arrival instant (the decaying signal ``slo`` consumes)."""
        return self.observed_preemptions() - self.preemption_snapshot > 0

    def note_queue_depth(self, now: float | None = None) -> None:
        """Record the current queued-prefill depth into the peak stat.

        Called right after an inject — between injects an observed queue
        only drains, so this is the only instant a new peak can form."""
        self.peak_queued_prefill_tokens = max(
            self.peak_queued_prefill_tokens, self.queued_prefill_tokens(now)
        )


class ObservedLoad:
    """The :class:`~repro.routing.load.ReplicaLoad` view API, answered
    from a live replica simulation instead of a predicted ledger.

    Queue depths and KV pressure are *measured* (the replica's actual
    pending/waiting/running sequences and allocator headroom); only the
    conversion from observed queued tokens to predicted seconds still
    uses the context's analytic service rates — the router needs a time
    unit, and rates are the one thing it cannot observe ahead of time.
    Notably, :meth:`would_preempt` consumes the replica's **measured**
    preemption counter: a replica that actually evicted KV since the
    cluster last stepped to a new arrival instant is penalized by the
    ``slo`` policy, closing the predicted-only gap of the decoupled
    router.
    """

    def __init__(self, sim: ReplicaSim, context: RouterContext) -> None:
        self.sim = sim
        self.context = context

    @property
    def replica_id(self) -> int:
        return self.sim.replica_id

    def queued_prefill_tokens(self, now: float | None = None) -> float:
        return self.sim.queued_prefill_tokens(now)

    def outstanding_tokens(self, now: float | None = None) -> float:
        return self.sim.outstanding_tokens(now)

    def work_seconds(self, now: float | None = None) -> float:
        """Predicted seconds to drain the *observed* backlog: the tail of
        the committed in-flight iteration (which already covers admitted
        prefills) plus the unstarted work converted at the context's
        analytic rates."""
        prefill = _duration(
            self.sim.unstarted_prefill_tokens(), self.context.prefill_tokens_per_s
        )
        decode = _duration(
            self.sim.decode_backlog_tokens(), self.context.decode_tokens_per_s
        )
        return self.sim.committed_ahead_seconds(now) + prefill + decode

    def predicted_ttft(self, request: Request, now: float | None = None) -> float:
        return self.work_seconds(now) + _duration(
            request.prompt_len, self.context.prefill_tokens_per_s
        )

    def would_preempt(self, request: Request, now: float | None = None) -> bool:
        """KV headroom check plus the *recent* measured-preemption signal
        (preemptions observed since the cluster last advanced to a new
        arrival instant — the window refreshes every arrival, so the
        penalty decays once the replica stops evicting)."""
        state = self.sim.state
        if state.kv.free_tokens < request.total_tokens:
            return True
        return self.sim.preempted_recently()
