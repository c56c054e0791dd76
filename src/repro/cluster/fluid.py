"""Calibrated fluid (mean-field) fast path for the coupled cluster.

The event-coupled :class:`~repro.cluster.simulator.ClusterSimulator`
executes every engine iteration of every replica — exact, but its cost
grows with generated tokens. At million-request cluster scale the
questions being asked (p99 TTFT under a diurnal arrival process, replica
seconds billed by an autoscaler) do not need token-level resolution, so
:class:`FluidSimulator` replaces each replica's engine with a calibrated
mean-field model and processes one *arrival* per event instead of one
*iteration*:

- each replica's prefill stream is a work-conserving fluid queue draining
  at the analytic prefill rate of the cost model (the same Appendix-A
  rate the routers' :class:`~repro.routing.load.RouterContext` carries);
  a request's queueing delay is the backlog-seconds ahead of it;
- decode is modeled in aggregate: a request's inter-token time comes from
  a fixed point of the cost model's ``decode_iteration_time`` under
  Little's law — the resident batch implied by the measured arrival rate
  determines the iteration time, which determines the resident batch —
  re-solved as the measured rate moves (diurnal load sees a different
  operating point at peak than in the trough);
- the boundary-quantization penalty of a real engine (an arrival waits
  for the in-flight iteration to finish before its prefill can start) is
  charged as half an iteration at the current operating point;
- the replicas live in the same :class:`~repro.cluster.fleet.ReplicaFleet`
  the event tier uses, and the autoscaler runs unmodified on its usual
  cadence against that fleet: membership, lifecycle transitions,
  scale-up provisioning latency, drain-then-stop and every fleet
  accounting rule are the event tier's own.

The offered rate that drives the decode operating point is precomputed
for every arrival in one numpy pass over the sorted arrival times
(:func:`_offered_rates`), and the per-request stamps go to
:meth:`~repro.runtime.latency.LatencyStats.from_columns` as columns, so
the per-arrival loop builds no window and no per-request record.

The loop walks its dispatch-order columns in fixed blocks of
:data:`_BLOCK` arrivals: it turns one block at a time into Python
scalars and writes the block's stamps and destination replicas into
preallocated numpy columns with one slice assignment each (an unsorted
workload's stamps are scattered back to request order once, at the
end). Memory is O(block) in Python objects plus the numpy columns the
run returns.

Each block is cut into segments at fleet events: a segment ends before
the next arrival at which a fleet poll (``poll_at <= now + 1e-12``) or
an autoscaler evaluation (``decide``'s own ``not (now - last_eval_at <
interval)``) comes due. Both tests are monotone in the arrival time, so
each edge is one bit-exact ``searchsorted`` of the block's times. The
poll, ``note_arrival`` (over every arrival since the last evaluation)
and ``decide`` run only at a segment's first arrival, in the per-arrival
order. Inside a segment the membership is fixed, so each arrival's
operating point comes from numpy columns: its rate bucket (on a fixed
fleet, that of the last refresh, every 64th request index), its
inter-token time from a bucket-sorted table over
:meth:`FluidSimulator._tpot_at`'s cache, and the half-iteration and
decode seconds from it (the drain-phase time is read from the cache only
for decode that outlives the last arrival). What is left per arrival is
the pick, the ready-time arithmetic, the stamps and the hooks:

- ``jsq`` and ``slo`` pick the head of a heap of ``(ready, position)``
  pairs, one ``heapreplace`` per dispatch (the same pick as an
  ``argmin`` over the ready times, ties to the lower position); the
  other policies keep :meth:`FluidSimulator._select`, and the numpy
  mirrors it reads are written only for the policies that read them;
- the per-replica dispatch counters nothing reads during the loop are
  folded after it from a column of destination replicas
  (:func:`_fold_counters`).

The oracle is ``TestFluidDispatchOracle`` in ``tests/test_perf_paths.py``:
the heap pick against the ``argmin`` (by emptying
:data:`_HEAP_POLICIES`), and the whole run against the per-arrival
``decide``/``_tpot``/counter loop, bit for bit, across routers,
autoscalers, arrival shapes and hooks, with a 7-arrival :data:`_BLOCK`
that puts block edges everywhere, and on the segment edges: a poll and
an evaluation due at one arrival, and segments that span a whole block.

What the model deliberately drops: KV-pressure preemptions (and with
them storm re-dispatch), per-iteration scheduling detail, and tracing.
The calibration tests pin the residual error — fluid p99 TTFT and billed
replica-seconds must track the event path within tolerance on reference
cells — and ``fidelity="auto"`` switches to this path only above
:data:`AUTO_FLUID_WORK_ITEMS` work items, where the event path stops
being interactive.
"""

from __future__ import annotations

from heapq import heapify, heapreplace
from typing import TYPE_CHECKING

import numpy as np

from repro.cluster.fleet import _EPS, build_fleet, workload_averages
from repro.costmodel.breakdown import Breakdown
from repro.costmodel.step import ITERATION_OVERHEAD
from repro.errors import ConfigurationError, SimulationError
from repro.runtime.latency import LatencyStats
from repro.runtime.metrics import EngineResult
from repro.runtime.request import Request
from repro.utils.rng import make_rng
from repro.workloads.spec import WorkloadSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engines.base import BaseEngine

# fidelity="auto" switches from the event path to the fluid path when
# requests x replica ceiling crosses this many work items.
AUTO_FLUID_WORK_ITEMS = 500_000

# Recent arrivals used to estimate the offered rate that drives the
# decode operating point (mirrors the predictive autoscaler's window).
_RATE_WINDOW = 64

# Routers whose pick is the argmin of the replicas' ready times, answered
# from a heap instead of a scan. A test seam, not an option: emptying it
# sends these routers through :meth:`FluidSimulator._select`'s argmin.
_HEAP_POLICIES = frozenset({"jsq", "slo"})

# Arrivals per block of :meth:`FluidSimulator.run`'s loop: the columns
# become Python scalars one block at a time.
_BLOCK = 4096


def _offered_rates(times: np.ndarray) -> np.ndarray:
    """Offered rate seen at each of the sorted arrival ``times``.

    At arrival ``j`` the window holds the last :data:`_RATE_WINDOW`
    arrivals up to and including it, ``times[lo..j]`` with
    ``lo = max(0, j - _RATE_WINDOW + 1)``; the rate is ``(j - lo) /
    (times[j] - times[lo])``, and 0 while the window spans no time (the
    first arrival, or simultaneous arrivals).
    """
    j = np.arange(times.shape[0])
    lo = np.maximum(j - (_RATE_WINDOW - 1), 0)
    span = times - times[lo]
    rates = np.zeros_like(times)
    np.divide(j - lo, span, out=rates, where=span > 0.0)
    return rates


def _fold_counters(
    replicas: list[_FluidReplica],
    dest: np.ndarray,
    prompt_len: np.ndarray,
    output_len: np.ndarray,
    prefill_rate: float,
) -> None:
    """Book the dispatch counters of ``replicas`` from the destination
    column: ``dest[pos]`` is the id of the replica the ``pos``-th dispatch
    went to (-1 if it never went anywhere), and ``prompt_len`` and
    ``output_len`` are in the same dispatch order.

    ``np.bincount`` adds each bin's weights in row order, the order a
    per-dispatch ``+=`` adds them in, so the sums are bit-identical. A row
    left at -1 is in no count, so the sanitizer's conservation check still
    sees a missed dispatch.
    """
    ids = np.asarray(dest, dtype=np.intp)
    sent = ids >= 0
    ids = ids[sent]
    prompts, outputs = prompt_len[sent], output_len[sent]
    size = max((r.replica_id for r in replicas), default=-1) + 1

    def per_replica(weights=None) -> list:
        return np.bincount(ids, weights=weights, minlength=size).tolist()

    requests = per_replica()
    busy = per_replica(prompts / prefill_rate)
    decode = per_replica(outputs - 1)
    tokens = per_replica(prompts + outputs)
    for r in replicas:
        rid = r.replica_id
        r.num_requests = requests[rid]
        r.prefill_busy = busy[rid]
        r.decode_tokens_total = int(decode[rid])
        r.total_tokens = int(tokens[rid])


# Per-replica telemetry series are only sampled for fleets up to this
# size; larger fleets are covered by the cluster.* aggregates (a
# 200-replica timeline is unreadable and costs O(replicas) per sample).
_MAX_SAMPLED_REPLICAS = 32


class _FluidReplica:
    """One replica's fluid state: a prefill stream and a decode tail.

    The fleet's :class:`~repro.cluster.fleet.ReplicaHandle` holds its
    lifecycle; the replica is both the handle's ``sim`` and its ``load``,
    answering the signals the autoscaler and the fleet accounting read.
    """

    __slots__ = (
        "replica_id",
        "rate",
        "ready",
        "decode_done",
        "idle_seconds",
        "prefill_busy",
        "decode_tokens_total",
        "num_requests",
        "total_tokens",
        "peak_queued_prefill_tokens",
    )

    def __init__(self, replica_id: int, start_time: float, prefill_rate: float) -> None:
        self.replica_id = replica_id
        self.rate = prefill_rate
        # When the prefill stream drains (absolute time); queued prefill
        # tokens at ``now`` are (ready - now) * prefill rate.
        self.ready = start_time
        self.decode_done = start_time  # last token this replica will emit
        self.idle_seconds = 0.0
        self.prefill_busy = 0.0
        self.decode_tokens_total = 0
        self.num_requests = 0
        self.total_tokens = 0
        self.peak_queued_prefill_tokens = 0.0

    @property
    def clock(self) -> float:
        return max(self.ready, self.decode_done)

    def idle_time(self) -> float:
        return self.idle_seconds

    def observed_preemptions(self) -> int:
        return 0  # the fluid model never preempts

    def outstanding_tokens(self, now: float) -> float:
        """Everything dispatched here and not done by ``now`` — the
        prefill queue *and* the decode tail — as seconds of drain horizon
        at the prefill rate: the drain cost scale-down ranks victims by.

        ``max(0.0, clock - now) * rate`` written out in one frame (the
        autoscaler and the victim scan read it for every active replica):
        ``max`` keeps its first argument on a tie, and so do these tests.
        """
        ready, done = self.ready, self.decode_done
        wait = (done if done > ready else ready) - now
        return (wait if wait > 0.0 else 0.0) * self.rate

    # The threshold autoscaler's queue signal. A mean-field replica does
    # not split its backlog into queues, so this is the whole drain
    # horizon.
    queued_prefill_tokens = outstanding_tokens

    def drained_by(self, now: float) -> bool:
        """Mean-field work is committed at dispatch: the replica has
        drained once its horizon has passed."""
        return self.clock <= now


class FluidSimulator:
    """Mean-field co-simulation of a replica fleet, one event per arrival."""

    def __init__(self, engine: "BaseEngine", workload: WorkloadSpec) -> None:
        self.engine = engine
        self.workload = workload
        options = engine.options
        context = engine.router_context(workload)
        if not context.prefill_tokens_per_s or not context.decode_tokens_per_s:
            raise ConfigurationError(
                "the fluid path needs finite analytic service rates"
            )
        self.prefill_rate = context.prefill_tokens_per_s
        self.decode_rate = context.decode_tokens_per_s
        self.policy_name = options.router
        self.rng = (
            make_rng(options.router_seed) if options.router == "po2" else None
        )
        avg_in, avg_out = workload_averages(workload)
        self.avg_ctx = avg_in + avg_out / 2.0
        self.avg_in = avg_in
        self.avg_out = avg_out
        # Residency-weighted mean context: a request sits in the decode
        # batch for (out-1) iterations, so the context a random *resident*
        # carries is biased toward long-output requests (heavy-tailed
        # workloads bias it a lot) — using the per-arrival mean here would
        # underestimate every iteration time.
        # The weighted sum accumulates left to right (``cumsum``, not the
        # pairwise ``np.sum``), the order a per-request loop adds in.
        prompts = workload.prompt_len.astype(np.float64)
        outputs = workload.output_len.astype(np.float64)
        weights = np.maximum(workload.output_len - 1, 0)
        w_num = float(np.cumsum(weights * (prompts + outputs / 2.0))[-1])
        w_den = float(weights.sum())
        self.resident_ctx = w_num / w_den if w_den > 0 else self.avg_ctx
        self.costs = engine.make_costs()
        capacity = context.kv_capacity_tokens or 0
        self.max_batch = max(
            1,
            min(
                int(capacity / self.avg_ctx) if capacity else options.max_num_seqs,
                options.max_num_seqs,
            ),
        )
        # Fixed-point (tpot, drain-tpot) cache, keyed by the bucketed
        # per-replica rate, and the tpot table _tpots reads it through. Its
        # NaN key sorts last and equals nothing, so every finite bucket's
        # insertion point stays inside the table.
        self._tpot_cache: dict[int, tuple[float, float]] = {}
        self._op_keys = np.array([np.nan])
        self._op_tpot = np.array([np.nan])
        self.fleet, self.autoscaler = build_fleet(
            engine,
            context,
            (avg_in, avg_out),
            start=self._start_replica,
        )
        # The dispatchable replicas in id order, and the dispatch state
        # the router reads over them: a heap of (ready, position) for the
        # argmin-of-ready policies, numpy mirrors of the ready times for
        # the others that rank by them, and the least-work decode
        # backlogs. Rebuilt when the fleet's membership changes, updated
        # in place on dispatch; a policy that reads none of them keeps
        # them empty.
        name = options.router
        self._heap_pick = name in _HEAP_POLICIES
        self._mirror_ready = not self._heap_pick and name != "static"
        self._track_decode = name == "least-work"
        self.active: list[_FluidReplica] = []
        self._heap: list[tuple[float, int]] = []
        self._ready = np.zeros(0, dtype=np.float64)
        self._decode_secs = np.zeros(0, dtype=np.float64)
        self._decode_last = 0.0
        self._rebuild_arrays(0.0)

    # ------------------------------------------------------------------ #
    # Fleet membership
    # ------------------------------------------------------------------ #

    def _start_replica(
        self, replica_id: int, start_time: float
    ) -> tuple[_FluidReplica, _FluidReplica]:
        replica = _FluidReplica(replica_id, start_time, self.prefill_rate)
        return replica, replica

    def _rebuild_arrays(self, now: float) -> None:
        """Re-read the fleet's membership and rebuild the dispatch state
        the router reads from each replica's own ready time; a replica
        that stays keeps its decode backlog."""
        previous = self.active
        self.active = active = [h.sim for h in self.fleet.active_handles()]
        if self._heap_pick:
            self._heap = [(r.ready, k) for k, r in enumerate(active)]
            heapify(self._heap)
        if self._mirror_ready:
            self._ready = np.array([r.ready for r in active], dtype=np.float64)
        if self._track_decode:
            self._decay_decode(now)
            backlog = {
                r.replica_id: s
                for r, s in zip(previous, self._decode_secs.tolist(), strict=True)
            }
            self._decode_secs = np.array(
                [backlog.get(r.replica_id, 0.0) for r in active], dtype=np.float64
            )

    def _decay_decode(self, now: float) -> None:
        dt = now - self._decode_last
        if dt > 0:
            np.subtract(self._decode_secs, dt, out=self._decode_secs)
            np.maximum(self._decode_secs, 0.0, out=self._decode_secs)
            self._decode_last = now

    def _resize(self, target: int, now: float, reason: str) -> None:
        fleet = self.fleet
        fleet.reap_drained(now)
        mark = len(fleet.events)
        fleet.resize_to(target, now, reason=reason)
        victims = [
            fleet.handle(e.replica_id).sim
            for e in fleet.events[mark:]
            if e.kind == "scale-down"
        ]
        if not victims:
            return
        # A draining replica takes no more arrivals, so the prefill
        # interleave that stretched its inter-token time vanishes: its
        # remaining decode tail compresses to the bare iteration time
        # (mirrors the drain-phase correction in run()).
        tpot, tpot_drain = self._tpot_now
        for victim in victims:
            if victim.decode_done > now and tpot_drain < tpot:
                victim.decode_done = now + (victim.decode_done - now) * (
                    tpot_drain / tpot
                )
        self._rebuild_arrays(now)

    # ------------------------------------------------------------------ #
    # Decode operating point
    # ------------------------------------------------------------------ #

    def _iter_time(self, n: int) -> float:
        """One decode iteration of an ``n``-resident batch at the
        residency-weighted mean context."""
        return (
            self.costs.decode_iteration_time(n, int(n * self.resident_ctx)).total
            + ITERATION_OVERHEAD
        )

    def _tpot(self, lam_per_replica: float) -> tuple[float, float]:
        """The operating point of a per-replica rate: its bucket's
        :meth:`_tpot_at`."""
        return self._tpot_at(int(lam_per_replica * 16.0))

    def _tpots(self, buckets: np.ndarray) -> np.ndarray:
        """The inter-token time of each entry of ``buckets``.

        ``buckets`` holds ``floor(lam * 16)`` as floats, which for every
        non-negative rate is :meth:`_tpot`'s ``int`` key. The times come
        from a table sorted by bucket; a bucket the table lacks is solved
        by :meth:`_tpot_at` and inserted.
        """
        keys = self._op_keys
        at = keys.searchsorted(buckets)
        missing = keys[at] != buckets
        if missing.any():
            new = sorted(set(buckets[missing].tolist()))
            tpots = [self._tpot_at(int(bucket))[0] for bucket in new]
            where = keys.searchsorted(new)
            self._op_keys = keys = np.insert(keys, where, new)
            self._op_tpot = np.insert(self._op_tpot, where, tpots)
            at = keys.searchsorted(buckets)
        return self._op_tpot[at]

    def _tpot_at(self, bucket: int) -> tuple[float, float]:
        """Inter-token time at the decode operating point of the per-replica
        rates in ``bucket`` (``int(lam * 16)``), solved once per bucket.

        The replica must emit ``lam x E[out-1]`` tokens/s to keep up with
        the offered rate, but decode only owns the fraction of wall time
        prefill leaves behind: the engines run prefill-prioritized, so
        every arriving prompt preempts the decode stream for its prefill
        passes and the decode throughput demand inflates by
        ``1 / (1 - rho_prefill)``. Batch token throughput
        ``n / iter_time(n)`` is monotone in ``n``, so the operating batch
        is the smallest ``n`` that sustains the inflated demand (bisected
        — the naive Little's-law fixed-point iteration stalls where the
        throughput curve runs near-parallel to the demand line), and the
        inter-token time stretches by the same interleaving factor. Past
        ``max_batch`` the replica is saturated and decodes flat out at
        the largest admissible batch.

        Returns ``(tpot, drain_tpot)``: the stretched inter-token time
        under the arrival stream, and the bare iteration time at the same
        batch — once arrivals stop there is no prefill left to interleave
        and the fleet decodes its tail flat out.
        """
        cached = self._tpot_cache.get(bucket)
        if cached is not None:
            return cached
        lam = (bucket + 0.5) / 16.0
        # Fraction of replica wall time the prefill stream owns.
        rho_prefill = min(0.75, lam * self.avg_in / self.prefill_rate)
        stretch = 1.0 / (1.0 - rho_prefill)
        required = lam * max(0.0, self.avg_out - 1.0) * stretch
        lo, hi = 1, self.max_batch
        if required <= 1.0 / self._iter_time(1):
            hi = 1
        elif self.max_batch / self._iter_time(self.max_batch) <= required:
            lo = hi  # saturated
        else:
            while lo < hi:
                mid = (lo + hi) // 2
                if mid / self._iter_time(mid) >= required:
                    hi = mid
                else:
                    lo = mid + 1
        pair = (self._iter_time(hi) * stretch, self._iter_time(hi))
        self._tpot_cache[bucket] = pair
        return pair

    # ------------------------------------------------------------------ #
    # Dispatch
    # ------------------------------------------------------------------ #

    def _select(self, index: int, now: float) -> int:
        """Position of the chosen replica within ``self.active``.

        ``run`` answers ``jsq`` and ``slo`` from its ready heap instead
        (the head of the heap is this ``argmin``, ties included);
        ``TestFluidDispatchOracle`` empties :data:`_HEAP_POLICIES` to send
        them through here and checks that the runs agree bit for bit.
        """
        n = len(self.active)
        if n == 1:
            return 0
        name = self.policy_name
        if name == "static":
            return index % n
        if name == "least-work":
            self._decay_decode(now)
            work = np.maximum(self._ready - now, 0.0) + self._decode_secs
            return int(work.argmin())
        if name == "po2":
            a, b = (int(x) for x in self.rng.choice(n, size=2, replace=False))
            if a > b:
                a, b = b, a  # ties resolve toward the lower replica id
            return a if self._ready[a] <= self._ready[b] else b
        # jsq ranks queued prefill tokens = (ready - now) * rate, and slo
        # ranks predicted TTFT = wait + prompt/rate: both are monotone in
        # the ready time (fluid replicas never preempt), so the argmin of
        # ``ready`` answers either policy; ties go to the lowest replica
        # id because ``active`` is id-sorted.
        return int(self._ready.argmin())

    # ------------------------------------------------------------------ #

    def run(self) -> EngineResult:
        workload = self.workload
        n = workload.num_requests
        arrivals = workload.arrival_time
        # Dispatch in arrival order; a stable sort, so simultaneous
        # arrivals dispatch in request order (stamped workloads arrive
        # sorted already, and then the order is the identity). The
        # columns below are in dispatch order.
        if bool((arrivals[1:] >= arrivals[:-1]).all()):
            order = None
            time_col = arrivals
            prompt_col, output_col = workload.prompt_len, workload.output_len
        else:
            order = np.argsort(arrivals, kind="stable")
            time_col = arrivals[order]
            prompt_col = workload.prompt_len[order]
            output_col = workload.output_len[order]
        rate_col = _offered_rates(time_col)
        pf_rate = self.prefill_rate
        fleet = self.fleet
        active = self.active
        heap = self._heap
        ready_arr = self._ready
        decode_secs = self._decode_secs
        heap_pick = self._heap_pick
        mirror_ready = self._mirror_ready
        track_decode = self._track_decode
        n_active = max(1, len(active))
        autoscaler = self.autoscaler
        observes = autoscaler is not None and autoscaler.observes_arrivals
        if autoscaler is not None:
            interval = autoscaler.interval_s
            eval_at = autoscaler.last_eval_at
        poll_at = fleet.next_transition_at()
        decode_tail = 1.0 / self.decode_rate
        budget_tokens = float(self.engine.options.max_batched_tokens)

        sched_col = np.empty(n, dtype=np.float64)
        first_col = np.empty(n, dtype=np.float64)
        finish_col = np.empty(n, dtype=np.float64)
        # Destination replica id of each dispatch.
        dest = np.full(n, -1, dtype=np.intp)

        arrivals_end = float(time_col[-1])
        self._tpot_now = self._tpot(0.0)
        tpot_bucket = 0.0  # the rate bucket _tpot_now is keyed on
        tpot_cache = self._tpot_cache
        # Hooks. Telemetry samples the event path's series schema on a
        # widened grid so a million-request day stays a few-hundred-point
        # artifact (per-replica series only for small fleets; cluster.*
        # always). simsan checks the mean-field analogs: causal
        # per-request timelines inline, aggregate token conservation at
        # drain (there are no per-token events or KV books to sweep), plus
        # the fleet's lifecycle transitions.
        hooks = self.engine.hooks
        tel, trc, san = hooks.telemetry, hooks.tracing, hooks.sanitize
        id_col = None
        if trc is not None or san is not None:
            id_col = workload.request_id
            if order is not None:
                id_col = id_col[order]
        sample_step = 0.0
        if tel is not None:
            # Widened sample grid: a full day of arrivals still exports at
            # most MAX_WINDOWS cluster samples.
            from repro.obs.telemetry import MAX_WINDOWS

            sample_step = max(tel.interval_s, arrivals_end / MAX_WINDOWS)
        for start in range(0, n, _BLOCK):
            # One block of arrivals as Python scalars, and its stamps
            # written back to the columns in one slice each.
            block = slice(start, min(start + _BLOCK, n))
            time_blk = time_col[block]
            poll_key = time_blk + _EPS  # the fleet poll's test, per arrival
            rate_blk = rate_col[block]
            decode_blk = output_col[block] - 1  # decode tokens
            times = time_blk.tolist()
            prefill_blk = prompt_col[block] / pf_rate
            index = range(start, block.stop) if order is None else order[block].tolist()
            if autoscaler is None:
                # A fixed fleet refreshes its operating point at every 64th
                # request index.
                rows = np.arange(start, block.stop) if order is None else order[block]
                refresh = (rows & 0x3F) == 0
            ids = id_col[block].tolist() if id_col is not None else None
            if san is not None:
                prompts = prompt_col[block].tolist()
                outputs = output_col[block].tolist()
            if track_decode:
                decode_work = (decode_blk * decode_tail).tolist()
            size = len(times)
            sched_t = [0.0] * size
            first_t = [0.0] * size
            finish_t = [0.0] * size
            dest_t = [-1] * size
            noted = 0  # the block's arrivals the autoscaler has observed
            s = 0
            while s < size:
                # A segment's first arrival does the fleet work due at it,
                # in the per-arrival order: poll, note_arrival, decide.
                now = times[s]
                rebuilt = False
                # poll() commits nothing before the fleet's next transition.
                if poll_at <= now + _EPS:
                    if fleet.poll(now):
                        self._rebuild_arrays(now)
                        rebuilt = True
                    poll_at = fleet.next_transition_at()
                # decide()'s own cadence test: it answers None otherwise.
                if autoscaler is not None and (
                    eval_at is None or not (now - eval_at < interval)
                ):
                    if observes:
                        for t in times[noted : s + 1]:
                            autoscaler.note_arrival(t)
                        noted = s + 1
                    target = autoscaler.decide(now, fleet)
                    eval_at = autoscaler.last_eval_at
                    if target is not None:
                        self._resize(target, now, reason=autoscaler.last_reason)
                        poll_at = fleet.next_transition_at()
                        rebuilt = True
                if rebuilt:
                    active = self.active
                    if not active:
                        raise SimulationError("fluid fleet has no dispatchable replica")
                    heap = self._heap
                    ready_arr = self._ready
                    decode_secs = self._decode_secs
                    n_active = max(1, len(active))
                # The segment ends before the next arrival at which a poll
                # or an evaluation comes due. Both tests are monotone in the
                # arrival time, so each edge is one search of the block.
                end = size
                if poll_at <= times[-1] + _EPS:
                    end = max(s + 1, int(poll_key.searchsorted(poll_at)))
                if autoscaler is not None and not (times[-1] - eval_at < interval):
                    due = (time_blk[s + 1 :] - eval_at).searchsorted(interval)
                    end = min(end, s + 1 + int(due))
                # The decode operating point of each arrival: the bucket of
                # its own rate under an autoscaler, of the last refresh's on
                # a fixed fleet.
                buckets = np.floor(rate_blk[s:end] / n_active * 16.0)
                if autoscaler is None:
                    last = np.where(refresh[s:end], np.arange(end - s), -1)
                    last = np.maximum.accumulate(last)
                    buckets = np.where(last >= 0, buckets[last], tpot_bucket)
                tpots = self._tpots(buckets)
                half_tpot = (0.5 * tpots).tolist()
                decode_s = (decode_blk[s:end] * tpots).tolist()
                prefill = prefill_blk[s:end].tolist()
                tail = None  # the buckets as Python floats, once one is read
                # ``j`` is the arrival's row in the block.
                for j, now, prefill_s, half, decode in zip(
                    range(s, end), times[s:end], prefill, half_tpot, decode_s,
                    strict=True,
                ):
                    if tel is not None:
                        for t in tel.boundaries("cluster", now, sample_step):
                            self._sample(tel, t)
                    k = heap[0][1] if heap_pick else self._select(index[j], now)
                    replica = active[k]
                    if trc is not None:
                        trc.note_dispatch(now, ids[j], replica.replica_id)
                    if san is not None:
                        san.note_cluster_clock(now)
                        san.note_dispatch(
                            Request(ids[j], prompts[j], outputs[j], now),
                            replica.replica_id,
                            now,
                        )
                    ready = replica.ready
                    if ready < now:
                        # Idle only once the decode tail has drained too — a
                        # replica still emitting tokens is busy, not idle (the
                        # threshold autoscaler's down-scale signal reads this).
                        done = replica.decode_done
                        horizon = done if done > ready else ready
                        if horizon < now:
                            replica.idle_seconds += now - horizon
                        ready = now
                    queued_before = (ready - now) * pf_rate
                    # Half an iteration of boundary quantization: a real engine
                    # admits the arrival only when the in-flight pass finishes.
                    sched = ready + half
                    # Pass quantization: a prompt admitted into a busy prefill
                    # wave gets its first token at the end of the *whole* pass,
                    # which also carries prompts queued behind it up to the
                    # token budget — half a pass of carry-over at depth,
                    # nothing on an empty queue.
                    carried = (
                        queued_before
                        if queued_before <= budget_tokens
                        else budget_tokens
                    )
                    carry = 0.5 * carried / pf_rate
                    first = sched + prefill_s + carry
                    finish = first + decode
                    if finish > arrivals_end:
                        if tail is None:
                            tail = buckets.tolist()
                        tpot, tpot_drain = tpot_cache[int(tail[j - s])]
                        if tpot_drain < tpot:
                            # Decode that outlives the arrival stream runs with
                            # no prefill to interleave: the tail tokens come out
                            # at the bare iteration time, the way a draining
                            # fleet sprints.
                            decode_tokens = int(decode_blk[j])
                            head_s = arrivals_end - first
                            head_tokens = head_s / tpot if head_s > 0.0 else 0.0
                            finish = (
                                first
                                + head_tokens * tpot
                                + (decode_tokens - head_tokens) * tpot_drain
                            )
                    ready += prefill_s
                    replica.ready = ready
                    if heap_pick:
                        heapreplace(heap, (ready, k))
                    elif mirror_ready:
                        ready_arr[k] = ready
                    if finish > replica.decode_done:
                        replica.decode_done = finish
                    dest_t[j] = replica.replica_id
                    queued = (ready - now) * pf_rate
                    if queued > replica.peak_queued_prefill_tokens:
                        replica.peak_queued_prefill_tokens = queued
                    if track_decode:
                        decode_secs[k] += decode_work[j]
                    sched_t[j] = sched
                    first_t[j] = first
                    finish_t[j] = finish
                    if san is not None:
                        san.note_fluid_request(
                            ids[j],
                            replica.replica_id,
                            arrival=now,
                            sched=sched,
                            first=first,
                            finish=finish,
                        )
                tpot_bucket = buckets[-1]
                self._tpot_now = tpot_cache[int(tpot_bucket)]
                s = end
            if observes:
                for t in times[noted:]:
                    autoscaler.note_arrival(t)
            sched_col[block] = sched_t
            first_col[block] = first_t
            finish_col[block] = finish_t
            dest[block] = dest_t

        makespan = fleet.makespan()
        fleet.close(makespan)

        if tel is not None:
            # Close out the timeline through the drain tail.
            for t in tel.boundaries("cluster", makespan, sample_step):
                self._sample(tel, t)

        if trc is not None:
            trc.set_warming_windows(fleet.warming_windows())

        replicas = list(fleet.sims())
        _fold_counters(replicas, dest, prompt_col, output_col, pf_rate)
        if san is not None:
            prompt_tokens = int(prompt_col.sum())
            san.check_fluid_conservation(
                num_requests=n,
                dispatched=sum(r.num_requests for r in replicas),
                prompt_tokens=prompt_tokens,
                served_prompt_tokens=sum(r.prefill_busy for r in replicas) * pf_rate,
                decode_tokens=sum(r.decode_tokens_total for r in replicas),
                expected_decode_tokens=int(np.maximum(output_col - 1, 0).sum()),
                total_tokens=sum(r.total_tokens for r in replicas),
                expected_total_tokens=prompt_tokens + int(output_col.sum()),
                now=makespan,
            )

        if order is not None:
            # Back to request order, the latency table's row order.
            back = np.empty_like(order)
            back[order] = np.arange(n)
            sched_col, first_col, finish_col = (
                sched_col[back], first_col[back], finish_col[back]
            )
        latency = LatencyStats.from_columns(
            request_id=workload.request_id,
            arrival=arrivals,
            first_schedule=sched_col,
            first_token=first_col,
            finish=finish_col,
            output_len=workload.output_len,
        )
        phase_time = {
            "prefill": max(r.prefill_busy for r in replicas),
            "decode": max(r.decode_tokens_total * decode_tail for r in replicas),
            "idle": max(r.idle_seconds for r in replicas),
        }
        return EngineResult(
            engine=self.engine.name,
            label=f"{self.engine.label()}+fluid",
            num_requests=n,
            total_time=makespan,
            input_tokens=workload.total_input_tokens,
            output_tokens=workload.total_output_tokens,
            phase_time=phase_time,
            breakdown=Breakdown(),
            iterations=0,
            transitions=0,
            latency=latency,
            router=fleet.router_stats(self.policy_name, makespan),
        )

    # ------------------------------------------------------------------ #
    # Telemetry
    # ------------------------------------------------------------------ #

    def _sample(self, tel, t: float) -> None:
        """One telemetry sample at grid boundary ``t``: the fleet's
        cluster.* series, plus per-replica queue depths on small fleets
        (fluid queue depths are analytic drain horizons x rate)."""
        fleet = self.fleet
        fleet.sample_cluster(tel, t)
        if len(fleet.handles) <= _MAX_SAMPLED_REPLICAS:
            for h in fleet.active_handles():
                tel.point(
                    f"replica{h.replica_id}.queued_prefill_tokens",
                    t,
                    h.sim.queued_prefill_tokens(t),
                )
