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
- the autoscaler runs unmodified on its usual cadence against a
  duck-typed fleet view; scale-ups pay the cost model's provisioning
  latency, scale-downs drain their fluid backlog before stopping.

The offered rate that drives the decode operating point is precomputed
for every arrival in one numpy pass over the sorted arrival times
(:func:`_offered_rates`), and the per-request stamps go to
:meth:`~repro.runtime.latency.LatencyStats.from_columns` as columns, so
the per-arrival loop builds no window and no per-request record.

What the model deliberately drops: KV-pressure preemptions (and with
them storm re-dispatch), per-iteration scheduling detail, and tracing.
The calibration tests pin the residual error — fluid p99 TTFT and billed
replica-seconds must track the event path within tolerance on reference
cells — and ``fidelity="auto"`` switches to this path only above
:data:`AUTO_FLUID_WORK_ITEMS` work items, where the event path stops
being interactive.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from repro.cluster.autoscaler import make_autoscaler
from repro.cluster.fleet import provision_times
from repro.cluster.simulator import (
    _capacity_rps_from,
    _prefill_latency_from,
    _workload_averages,
)
from repro.costmodel.breakdown import Breakdown
from repro.costmodel.step import ITERATION_OVERHEAD
from repro.errors import ConfigurationError, SimulationError
from repro.routing.stats import FleetEvent, FleetStats, RouterStats
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


# Per-replica telemetry series are only sampled for fleets up to this
# size; larger fleets are covered by the cluster.* aggregates (a
# 200-replica timeline is unreadable and costs O(replicas) per sample).
_MAX_SAMPLED_REPLICAS = 32


class _FluidReplica:
    """One replica's fluid state: a prefill stream, a decode tail, and
    the lifecycle timestamps the fleet accounting bills."""

    __slots__ = (
        "replica_id",
        "created_at",
        "active_at",
        "ready",
        "decode_done",
        "idle_seconds",
        "prefill_busy",
        "decode_tokens_total",
        "num_requests",
        "total_tokens",
        "peak_queued",
        "draining",
        "stopped_at",
    )

    def __init__(self, replica_id: int, created_at: float, active_at: float) -> None:
        self.replica_id = replica_id
        self.created_at = created_at
        self.active_at = active_at
        # When the prefill stream drains (absolute time); queued prefill
        # tokens at ``now`` are (ready - now) * prefill rate.
        self.ready = active_at
        self.decode_done = active_at  # last token this replica will emit
        self.idle_seconds = 0.0
        self.prefill_busy = 0.0
        self.decode_tokens_total = 0
        self.num_requests = 0
        self.total_tokens = 0
        self.peak_queued = 0.0
        self.draining = False
        self.stopped_at = math.inf

    # Duck-typed surface the autoscalers touch (``handle.sim`` on the
    # event path; here the replica answers for itself).
    @property
    def sim(self) -> "_FluidReplica":
        return self

    @property
    def clock(self) -> float:
        return max(self.ready, self.decode_done)

    def idle_time(self) -> float:
        return self.idle_seconds

    def end_time(self, makespan: float) -> float:
        return self.stopped_at if math.isfinite(self.stopped_at) else makespan

    def outstanding_seconds(self, now: float) -> float:
        """Seconds until this replica would finish everything dispatched
        to it — the drain horizon a scale-down victim bills for (the
        event fleet's least-outstanding-work rule counts the undecoded
        backlog too, not just the prefill queue)."""
        horizon = self.ready if self.ready > self.decode_done else self.decode_done
        return max(0.0, horizon - now)


class _FluidLoad:
    """The slice of the ObservedLoad view the threshold autoscaler reads."""

    __slots__ = ("replica", "rate")

    def __init__(self, replica: _FluidReplica, prefill_rate: float) -> None:
        self.replica = replica
        self.rate = prefill_rate

    def queued_prefill_tokens(self, now: float) -> float:
        return self.replica.outstanding_seconds(now) * self.rate


class _FluidFleetView:
    """Duck-typed ReplicaFleet facade the autoscaler policies consult."""

    __slots__ = ("sim",)

    def __init__(self, sim: "FluidSimulator") -> None:
        self.sim = sim

    @property
    def target_count(self) -> int:
        return len(self.sim.active) + len(self.sim.provisioning)

    def active_handles(self) -> list[_FluidReplica]:
        return self.sim.active

    def dispatch_loads(self) -> list[_FluidLoad]:
        return [_FluidLoad(r, self.sim.prefill_rate) for r in self.sim.active]


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
        self.context = context
        self.policy_name = options.router
        self.rng = (
            make_rng(options.router_seed) if options.router == "po2" else None
        )
        avg_in, avg_out = _workload_averages(workload)
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
        # per-replica rate.
        self._tpot_cache: dict[int, tuple[float, float]] = {}

        min_dp = options.min_dp if options.min_dp is not None else 1
        max_dp = options.max_dp
        if options.autoscaler == "none":
            min_dp = max_dp = engine.config.dp
            self.autoscaler = None
        else:
            self.autoscaler = make_autoscaler(
                options.autoscaler,
                min_dp,
                max_dp if max_dp is not None else engine.config.dp,
                up_queue_tokens=float(options.max_batched_tokens),
                capacity_rps_per_replica=_capacity_rps_from(context, avg_in, avg_out),
                prefill_latency_s=_prefill_latency_from(context, avg_in),
                ttft_slo=options.ttft_slo,
            )
        self.min_dp = min_dp
        self.max_dp = max_dp if max_dp is not None else engine.config.dp
        self.weight_load_s, self.kv_warmup_s = provision_times(engine)

        initial_dp = max(min_dp, min(engine.config.dp, self.max_dp))
        self.replicas: list[_FluidReplica] = [
            _FluidReplica(i, 0.0, 0.0) for i in range(initial_dp)
        ]
        self.active: list[_FluidReplica] = list(self.replicas)
        self.provisioning: list[_FluidReplica] = []
        self.draining: list[_FluidReplica] = []
        self.events: list[FleetEvent] = []
        self.scale_ups = 0
        self.scale_downs = 0
        self._fleet_view = _FluidFleetView(self)
        # Coarse telemetry sampler (repro.obs): same series schema as the
        # event path, sampled on a widened grid so a million-request day
        # stays a few-hundred-point artifact. Per-replica series are only
        # emitted for small fleets; cluster.* always.
        self.telemetry = options.telemetry
        # simsan: the fluid path checks the mean-field analogs — causal
        # per-request timelines inline, aggregate token conservation at
        # drain (there are no per-token events or KV books to sweep).
        self.sanitizer = options.sanitize
        if self.sanitizer is not None:
            self.sanitizer.begin_run()
        # numpy mirror of the active replicas' ready times (the ranking
        # key every queue-depth policy reduces to); rebuilt on membership
        # changes, updated in place on dispatch.
        self._ready = np.array([r.ready for r in self.active], dtype=np.float64)
        self._decode_secs = np.zeros(len(self.active), dtype=np.float64)
        # The membership snapshot the arrays were built against. Scale
        # up/down mutates ``active`` before the rebuild, so carrying
        # per-replica state across a rebuild must key off this snapshot —
        # pairing the *new* membership positionally would hand a removed
        # replica's decode backlog to whoever shifted into its slot.
        self._array_members: list = list(self.active)
        self._decode_last = 0.0

    # ------------------------------------------------------------------ #
    # Fleet membership
    # ------------------------------------------------------------------ #

    def _rebuild_arrays(self, now: float) -> None:
        self._decay_decode(now)
        order = {
            id(r): s
            for r, s in zip(self._array_members, self._decode_secs, strict=True)
        }
        self.active.sort(key=lambda r: r.replica_id)
        self._ready = np.array([r.ready for r in self.active], dtype=np.float64)
        self._decode_secs = np.array(
            [order.get(id(r), 0.0) for r in self.active], dtype=np.float64
        )
        self._array_members = list(self.active)

    def _decay_decode(self, now: float) -> None:
        dt = now - self._decode_last
        if dt > 0:
            np.subtract(self._decode_secs, dt, out=self._decode_secs)
            np.maximum(self._decode_secs, 0.0, out=self._decode_secs)
            self._decode_last = now

    def _poll(self, now: float) -> None:
        if not self.provisioning:
            return
        due = [r for r in self.provisioning if r.active_at <= now]
        if not due:
            return
        self.provisioning = [r for r in self.provisioning if r.active_at > now]
        for r in sorted(due, key=lambda r: r.active_at):
            self.active.append(r)
            self.events.append(
                FleetEvent(
                    r.active_at, "active", r.replica_id, len(self.active),
                    reason=(
                        f"weights loaded {self.weight_load_s:.2f}s + KV warm "
                        f"{self.kv_warmup_s:.2f}s after scale-up"
                    ),
                )
            )
        self._rebuild_arrays(now)

    def _reap(self, now: float) -> None:
        if not self.draining:
            return
        still = []
        for r in self.draining:
            done = max(r.ready, r.decode_done, r.active_at)
            if done <= now:
                r.stopped_at = done
                self.events.append(
                    FleetEvent(
                        done, "stopped", r.replica_id, len(self.active),
                        reason="fluid backlog drained",
                    )
                )
            else:
                still.append(r)
        self.draining = still

    def _resize(self, target: int, now: float, reason: str = "") -> None:
        target = max(self.min_dp, min(self.max_dp, target))
        current = len(self.active) + len(self.provisioning)
        while current < target:
            rid = len(self.replicas)
            replica = _FluidReplica(
                rid, now, now + self.weight_load_s + self.kv_warmup_s
            )
            self.replicas.append(replica)
            self.provisioning.append(replica)
            self.scale_ups += 1
            self.events.append(
                FleetEvent(now, "scale-up", rid, len(self.active), reason=reason)
            )
            current += 1
        while current > target and len(self.active) > 1:
            # Least outstanding work first, youngest on ties (the event
            # fleet's victim rule).
            victim = min(
                self.active,
                key=lambda r: (r.outstanding_seconds(now), -r.replica_id),
            )
            self.active.remove(victim)
            victim.draining = True
            # A draining replica takes no more arrivals, so the prefill
            # interleave that stretched its inter-token time vanishes:
            # its remaining decode tail compresses to the bare iteration
            # time (mirrors the drain-phase correction in run()).
            tpot, tpot_drain = self._tpot_now
            if victim.decode_done > now and tpot_drain < tpot:
                victim.decode_done = now + (victim.decode_done - now) * (
                    tpot_drain / tpot
                )
            self.draining.append(victim)
            self.scale_downs += 1
            self.events.append(
                FleetEvent(
                    now, "scale-down", victim.replica_id, len(self.active),
                    reason=reason,
                )
            )
            current -= 1
            self._rebuild_arrays(now)
        self._reap(now)

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
        """Inter-token time at the decode operating point.

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
        bucket = int(lam_per_replica * 16.0)
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
        """Position of the chosen replica within ``self.active``."""
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
        prompts = workload.prompt_len.tolist()
        outputs = workload.output_len.tolist()
        times = arrivals.tolist()
        # Dispatch in arrival order; a stable sort, so simultaneous
        # arrivals dispatch in request order (stamped workloads arrive
        # sorted already, and then the order is the identity).
        if bool((arrivals[1:] >= arrivals[:-1]).all()):
            order = range(n)
            rates = _offered_rates(arrivals).tolist()
        else:
            order_arr = np.argsort(arrivals, kind="stable")
            rates = _offered_rates(arrivals[order_arr]).tolist()
            order = order_arr.tolist()
        pf_rate = self.prefill_rate
        active = self.active
        ready_arr = self._ready
        autoscaler = self.autoscaler
        decode_tail = 1.0 / self.decode_rate
        budget_tokens = float(self.engine.options.max_batched_tokens)

        sched_t = [0.0] * n
        first_t = [0.0] * n
        finish_t = [0.0] * n

        arrivals_end = times[order[-1]]
        tpot, tpot_drain = self._tpot_now = self._tpot(0.0)
        tel = self.telemetry
        trc = self.engine.options.tracing
        san = self.sanitizer
        ids = (
            workload.request_id.tolist()
            if trc is not None or san is not None
            else None
        )
        sample_step = 0.0
        if tel is not None:
            # Widened sample grid: a full day of arrivals still exports at
            # most MAX_WINDOWS cluster samples.
            from repro.obs.telemetry import MAX_WINDOWS

            sample_step = max(tel.interval_s, arrivals_end / MAX_WINDOWS)
        for pos, i in enumerate(order):
            now = times[i]
            if self.provisioning:
                self._poll(now)
                active = self.active
                ready_arr = self._ready
            if autoscaler is not None:
                autoscaler.note_arrival(now)
                target = autoscaler.decide(now, self._fleet_view)
                if target is not None:
                    self._resize(target, now, reason=autoscaler.last_reason)
                    active = self.active
                    ready_arr = self._ready
            # The operating point follows every arrival under an autoscaler,
            # and is refreshed periodically on a fixed fleet.
            if autoscaler is not None or (i & 0x3F) == 0:
                tpot, tpot_drain = self._tpot_now = self._tpot(
                    rates[pos] / max(1, len(active))
                )
            if not active:
                raise SimulationError("fluid fleet has no dispatchable replica")
            if tel is not None:
                for t in tel.boundaries("cluster", now, sample_step):
                    self._sample(tel, t)
            k = self._select(i, now)
            replica = active[k]
            if trc is not None:
                trc.note_dispatch(now, ids[i], replica.replica_id)
            if san is not None:
                san.note_cluster_clock(now)
                san.note_dispatch(
                    Request(ids[i], prompts[i], outputs[i], now),
                    replica.replica_id,
                    now,
                )
            ready = replica.ready
            if ready < now:
                # Idle only once the decode tail has drained too — a
                # replica still emitting tokens is busy, not idle (the
                # threshold autoscaler's down-scale signal reads this).
                horizon = replica.decode_done if replica.decode_done > ready else ready
                if horizon < now:
                    replica.idle_seconds += now - horizon
                ready = now
            queued_before = (ready - now) * pf_rate
            # Half an iteration of boundary quantization: a real engine
            # admits the arrival only when the in-flight pass finishes.
            sched = ready + 0.5 * tpot
            prompt_len = prompts[i]
            prefill_s = prompt_len / pf_rate
            # Pass quantization: a prompt admitted into a busy prefill
            # wave gets its first token at the end of the *whole* pass,
            # which also carries prompts queued behind it up to the token
            # budget — half a pass of carry-over at depth, nothing on an
            # empty queue.
            carry = 0.5 * min(queued_before, budget_tokens) / pf_rate
            first = sched + prefill_s + carry
            decode_tokens = outputs[i] - 1
            finish = first + decode_tokens * tpot
            if finish > arrivals_end and tpot_drain < tpot:
                # Decode that outlives the arrival stream runs with no
                # prefill to interleave: the tail tokens come out at the
                # bare iteration time, the way a draining fleet sprints.
                head_s = arrivals_end - first
                head_tokens = head_s / tpot if head_s > 0.0 else 0.0
                finish = (
                    first
                    + head_tokens * tpot
                    + (decode_tokens - head_tokens) * tpot_drain
                )
            replica.ready = ready + prefill_s
            ready_arr[k] = replica.ready
            if finish > replica.decode_done:
                replica.decode_done = finish
            replica.prefill_busy += prefill_s
            replica.decode_tokens_total += decode_tokens
            replica.num_requests += 1
            replica.total_tokens += prompt_len + outputs[i]
            queued = (replica.ready - now) * pf_rate
            if queued > replica.peak_queued:
                replica.peak_queued = queued
            if self._decode_secs.shape[0] > k:
                self._decode_secs[k] += decode_tokens * decode_tail
            sched_t[i] = sched
            first_t[i] = first
            finish_t[i] = finish
            if san is not None:
                san.note_fluid_request(
                    ids[i],
                    replica.replica_id,
                    arrival=now,
                    sched=sched,
                    first=first,
                    finish=finish,
                )

        self._reap(arrivals_end)
        for r in self.draining:
            r.stopped_at = max(r.ready, r.decode_done, r.active_at)
            self.events.append(
                FleetEvent(
                    r.stopped_at, "stopped", r.replica_id, len(self.active),
                    reason="fluid backlog drained",
                )
            )
        self.draining = []
        makespan = max(
            max(finish_t) if finish_t else 0.0,
            max(
                (r.stopped_at for r in self.replicas if math.isfinite(r.stopped_at)),
                default=0.0,
            ),
        )

        if tel is not None:
            # Close out the timeline through the drain tail.
            for t in tel.boundaries("cluster", makespan, sample_step):
                self._sample(tel, t)

        if trc is not None:
            trc.set_warming_windows(
                tuple(
                    (r.replica_id, r.created_at, r.active_at)
                    for r in self.replicas
                    if r.active_at > r.created_at
                )
            )

        if san is not None:
            san.check_fluid_conservation(
                num_requests=n,
                dispatched=sum(r.num_requests for r in self.replicas),
                prompt_tokens=sum(prompts),
                served_prompt_tokens=sum(
                    r.prefill_busy for r in self.replicas
                )
                * pf_rate,
                decode_tokens=sum(r.decode_tokens_total for r in self.replicas),
                expected_decode_tokens=sum(max(0, o - 1) for o in outputs),
                total_tokens=sum(r.total_tokens for r in self.replicas),
                expected_total_tokens=sum(prompts) + sum(outputs),
                now=makespan,
            )

        latency = LatencyStats.from_columns(
            request_id=workload.request_id,
            arrival=arrivals,
            first_schedule=sched_t,
            first_token=first_t,
            finish=finish_t,
            output_len=workload.output_len,
        )
        phase_time = {
            "prefill": max((r.prefill_busy for r in self.replicas), default=0.0),
            "decode": max(
                (r.decode_tokens_total * decode_tail for r in self.replicas),
                default=0.0,
            ),
            "idle": max((r.idle_seconds for r in self.replicas), default=0.0),
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
            router=self._stats(makespan),
        )

    # ------------------------------------------------------------------ #
    # Telemetry
    # ------------------------------------------------------------------ #

    def _sample(self, tel, t: float) -> None:
        """One cluster sample at grid boundary ``t`` (fluid queue depths
        are analytic: queued tokens = remaining drain seconds x rate)."""
        pf_rate = self.prefill_rate
        queued = 0.0
        for r in self.active:
            queued += max(0.0, r.ready - t) * pf_rate
        tel.point("cluster.active_dp", t, float(len(self.active)))
        tel.point("cluster.provisioning", t, float(len(self.provisioning)))
        tel.point("cluster.draining", t, float(len(self.draining)))
        tel.point("cluster.queued_prefill_tokens", t, queued)
        if len(self.replicas) <= _MAX_SAMPLED_REPLICAS:
            for r in self.active:
                tel.point(
                    f"replica{r.replica_id}.queued_prefill_tokens",
                    t,
                    max(0.0, r.ready - t) * pf_rate,
                )

    # ------------------------------------------------------------------ #
    # Stats
    # ------------------------------------------------------------------ #

    def _stats(self, makespan: float) -> RouterStats:
        replicas = self.replicas
        n = len(replicas)
        fleet_stats = None
        if self.autoscaler is not None:
            fleet_stats = self._fleet_stats(makespan)
        idle = []
        for r in replicas:
            window = max(0.0, r.end_time(makespan) - r.active_at)
            # A drained prefill stream with no decode tail left is idle
            # for the remainder of the replica's window.
            tail = max(0.0, r.end_time(makespan) - max(r.clock, r.active_at))
            idle.append(
                min(1.0, (r.idle_seconds + tail) / window) if window > 0 else 0.0
            )
        return RouterStats(
            policy=self.policy_name,
            num_replicas=n,
            requests_per_replica=tuple(r.num_requests for r in replicas),
            tokens_per_replica=tuple(r.total_tokens for r in replicas),
            peak_queued_prefill_tokens=tuple(r.peak_queued for r in replicas),
            predicted_preemptions=(0,) * n,
            coupled=True,
            observed_preemptions=(0,) * n,  # the fluid model never preempts
            idle_fraction=tuple(idle),
            fleet=fleet_stats,
        )

    def _fleet_stats(self, makespan: float) -> FleetStats:
        deltas: dict[float, int] = {}
        for r in self.replicas:
            end = r.end_time(makespan)
            if end <= r.active_at:
                continue
            deltas[r.active_at] = deltas.get(r.active_at, 0) + 1
            deltas[end] = deltas.get(end, 0) - 1
        peak = level = 0
        active_seconds = 0.0
        last_t: float | None = None
        for t in sorted(deltas):
            if last_t is not None:
                active_seconds += level * (t - last_t)
            level += deltas[t]
            peak = max(peak, level)
            last_t = t
        billed = sum(r.end_time(makespan) - r.created_at for r in self.replicas)
        provision = sum(
            max(0.0, min(r.active_at, makespan) - r.created_at)
            for r in self.replicas
        )
        return FleetStats(
            autoscaler=self.engine.options.autoscaler,
            min_dp=self.min_dp,
            max_dp=self.max_dp,
            num_handles=len(self.replicas),
            peak_dp=peak,
            mean_dp=active_seconds / makespan if makespan > 0 else 0.0,
            replica_seconds=billed,
            active_replica_seconds=active_seconds,
            provision_seconds=provision,
            scale_ups=self.scale_ups,
            scale_downs=self.scale_downs,
            events=tuple(self.events),
        )
