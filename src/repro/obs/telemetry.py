"""Low-overhead telemetry hub on the simulator's shared virtual clock.

Production serving stacks are judged by time-series observability —
rolling queue depth, KV utilization, batch size, latency percentiles per
scrape interval — while the simulator's :class:`EngineResult` collapses a
run into end-state aggregates. This module adds the missing layer: a
:class:`Telemetry` hub holding typed instruments (:class:`Counter`,
:class:`Gauge`, :class:`Histogram` with windowed p50/p90/p99), raw
``(t, value)`` series, and a bounded event log, all stamped with the
*virtual* clock so every exported timeline lines up with the traces.

Design constraints, in order:

1. **Zero overhead when off.** Nothing in this module is imported or
   executed unless ``RunHooks.telemetry`` carries a hub; the engine
   loops keep their exact instruction paths (the bit-exactness contract
   the goldens pin).
2. **Cheap when on.** The per-iteration hook is one float compare
   (:meth:`ReplicaProbe.tick` early-outs until the next sample boundary);
   everything heavier happens once per sample interval or once per run.
3. **One schema for every fidelity tier.** The event-coupled path, the
   decoupled path and the fluid fast path all emit the same series names,
   so ``repro obs`` renders any run artifact.

Series naming convention::

    replica<ID>.queued_prefill_tokens   sampled, per replica
    replica<ID>.running                 sampled, per replica
    replica<ID>.kv_util                 sampled, per replica (0..1)
    replica<ID>.preemptions             sampled, cumulative counter
    cluster.active_dp                   sampled, coupled runs
    cluster.provisioning / .draining    sampled, coupled runs
    cluster.queued_prefill_tokens       sampled, coupled runs
    cluster.arrival_rate                windowed, folded from the result
    ttft.p50 / .p90 / .p99              windowed, folded from the result
    tpot.p50 / .p90 / .p99              windowed, folded from the result
    slo.attainment / slo.burn_rate      windowed, folded from the result
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from repro.errors import ConfigurationError

# Default sample interval of the fixed-interval recorders (virtual
# seconds between per-replica / cluster-wide samples).
DEFAULT_INTERVAL_S = 1.0

# Hard cap on the retained event log. Dispatch events grow O(requests),
# so an unbounded log would grow with the run; past the cap new events
# are counted in :attr:`Telemetry.dropped_events` instead of stored.
DEFAULT_MAX_EVENTS = 100_000

# Error budget: the fraction of requests per window allowed to miss the
# SLO before the budget burns at rate 1.0 (burn = violation / budget, the
# SRE convention — burn > 1 means the budget is being spent faster than
# it accrues).
DEFAULT_SLO_BUDGET = 0.01

# Resolution floor: windowed folds widen their window so no series
# carries more than this many points (a million-request fluid day should
# not export a million-row artifact).
MAX_WINDOWS = 512

_EPS = 1e-9


def percentiles(values: Sequence[float], qs: Sequence[float] = (50, 90, 99)) -> tuple[float, ...]:
    """Linear-interpolated percentiles (numpy's default method) in pure
    Python — per-window reductions see a handful of values at a time,
    where the interpreter beats an ndarray round-trip by ~100x."""
    if not values:
        return tuple(math.nan for _ in qs)
    vs = sorted(values)
    n = len(vs)
    out = []
    for q in qs:
        pos = (n - 1) * q / 100.0
        lo = int(pos)
        hi = min(lo + 1, n - 1)
        out.append(vs[lo] + (vs[hi] - vs[lo]) * (pos - lo))
    return tuple(out)


class Counter:
    """Monotonic count (events, requests, preemptions)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def inc(self, n: float = 1.0) -> None:
        if n < 0:
            raise ConfigurationError(f"counter {self.name} cannot decrease")
        self.value += n


class Gauge:
    """Last-write-wins instantaneous value."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


class Histogram:
    """Timestamped observations with windowed percentile reduction."""

    __slots__ = ("name", "times", "values")

    def __init__(self, name: str) -> None:
        self.name = name
        self.times: list[float] = []
        self.values: list[float] = []

    def observe(self, t: float, value: float) -> None:
        self.times.append(float(t))
        self.values.append(float(value))

    def percentiles(self, qs: Sequence[float] = (50, 90, 99)) -> tuple[float, ...]:
        """Percentiles over every observation so far (NaNs when empty)."""
        return percentiles(self.values, qs)

    def windows(
        self, window_s: float, qs: Sequence[float] = (50, 90, 99)
    ) -> list[tuple[float, tuple[float, ...]]]:
        """Per-window percentiles: ``(window_end, (p50, p90, p99))`` for
        every window that received at least one observation."""
        if window_s <= 0:
            raise ConfigurationError("histogram window must be positive")
        if not self.values:
            return []
        buckets: dict[int, list[float]] = {}
        for t, v in zip(self.times, self.values, strict=True):
            buckets.setdefault(int(t / window_s), []).append(v)
        return [
            ((idx + 1) * window_s, percentiles(buckets[idx], qs))
            for idx in sorted(buckets)
        ]


class ReplicaProbe:
    """Fixed-interval sampler over one replica's live scheduling state.

    Created per replica (decoupled replica loop or coupled
    :class:`~repro.cluster.replica.ReplicaSim`); :meth:`tick` is called at
    every iteration boundary and early-outs on one float compare until
    the clock crosses the next sample boundary, at which point it reads
    the state once and emits the held value at every crossed boundary
    (sample-and-hold — iterations are atomic, so no finer truth exists).
    """

    __slots__ = ("replica_id", "_interval", "_next_t", "_queued", "_running", "_kv", "_preempt")

    def __init__(self, tel: "Telemetry", replica_id: int, start: float = 0.0) -> None:
        self.replica_id = replica_id
        self._interval = tel.interval_s
        # Grid-aligned so every replica's samples land on the same
        # instants regardless of birth time.
        self._next_t = math.ceil(start / self._interval - _EPS) * self._interval
        prefix = f"replica{replica_id}."
        self._queued = tel.series_list(prefix + "queued_prefill_tokens")
        self._running = tel.series_list(prefix + "running")
        self._kv = tel.series_list(prefix + "kv_util")
        self._preempt = tel.series_list(prefix + "preemptions")

    def tick(self, now: float, state) -> None:
        if now < self._next_t:
            return
        # Queued prefill depth with the dispatcher's visibility: unstarted
        # prompts (waiting queue + chunked-prefill remainders) count their
        # remaining tokens, and a prefill already committed into an atomic
        # iteration stays "queued" at each boundary its completion has not
        # passed yet — the same convention as the coupled router's
        # observed-load view.
        queued = 0
        for s in state.waiting:
            left = s.prefill_target - s.prefilled_tokens
            if left > 0:
                queued += left
        inflight: list[tuple[float, int]] = []
        for s in state.running:
            left = s.prefill_target - s.prefilled_tokens
            if left > 0:
                queued += left
            else:
                end = s.prefill_end_time
                if end == end:  # NaN = never scheduled with a known end
                    inflight.append((end, s.prefill_target))
        running = float(len(state.running))
        cap = state.kv.capacity_tokens
        kv_util = 1.0 - state.kv.free_tokens / cap if cap > 0 else 0.0
        preemptions = float(state.metrics.preemptions)
        t = self._next_t
        step = self._interval
        while t <= now + _EPS:
            queued_t = queued + sum(n for end, n in inflight if end > t + _EPS)
            self._queued.append((t, float(queued_t)))
            self._running.append((t, running))
            self._kv.append((t, kv_util))
            self._preempt.append((t, preemptions))
            t += step
        self._next_t = t


class Telemetry:
    """The hub: instruments, series, a bounded event log and run meta.

    One hub instance is attached to ``RunHooks.telemetry`` and
    shared by every layer of a run (engine loops, cluster simulator,
    fleet, autoscaler, result fold). All timestamps are virtual seconds.
    """

    def __init__(
        self,
        interval_s: float = DEFAULT_INTERVAL_S,
        max_events: int = DEFAULT_MAX_EVENTS,
        slo_budget: float = DEFAULT_SLO_BUDGET,
    ) -> None:
        if interval_s <= 0:
            raise ConfigurationError("telemetry interval must be positive")
        if max_events < 1:
            raise ConfigurationError("telemetry max_events must be >= 1")
        if not 0 < slo_budget <= 1:
            raise ConfigurationError("slo_budget must be in (0, 1]")
        self.interval_s = float(interval_s)
        self.max_events = int(max_events)
        self.slo_budget = float(slo_budget)
        self.counters: dict[str, Counter] = {}
        self.gauges: dict[str, Gauge] = {}
        self.histograms: dict[str, Histogram] = {}
        self.series: dict[str, list[tuple[float, float]]] = {}
        self.events: list[dict] = []
        self.dropped_events = 0
        self.meta: dict = {}
        self._boundaries: dict[str, float] = {}

    # ------------------------------------------------------------------ #
    # Instruments
    # ------------------------------------------------------------------ #

    def counter(self, name: str) -> Counter:
        c = self.counters.get(name)
        if c is None:
            c = self.counters[name] = Counter(name)
        return c

    def gauge(self, name: str) -> Gauge:
        g = self.gauges.get(name)
        if g is None:
            g = self.gauges[name] = Gauge(name)
        return g

    def histogram(self, name: str) -> Histogram:
        h = self.histograms.get(name)
        if h is None:
            h = self.histograms[name] = Histogram(name)
        return h

    # ------------------------------------------------------------------ #
    # Series
    # ------------------------------------------------------------------ #

    def series_list(self, name: str) -> list[tuple[float, float]]:
        """The mutable point list of ``name`` (created empty on first
        use) — samplers hold a direct reference to skip the dict lookup."""
        lst = self.series.get(name)
        if lst is None:
            lst = self.series[name] = []
        return lst

    def point(self, name: str, t: float, value: float) -> None:
        self.series_list(name).append((float(t), float(value)))

    def set_series(self, name: str, points: Iterable[tuple[float, float]]) -> None:
        """Replace ``name`` wholesale (idempotent folds re-derive their
        windowed series rather than appending duplicates)."""
        self.series[name] = [(float(t), float(v)) for t, v in points]

    def timeline(self, name: str) -> tuple[list[float], list[float]]:
        pts = self.series.get(name, [])
        return [p[0] for p in pts], [p[1] for p in pts]

    # ------------------------------------------------------------------ #
    # Events
    # ------------------------------------------------------------------ #

    def event(self, t: float, kind: str, **fields) -> None:
        """Append a timestamped event; past :attr:`max_events` the event
        is dropped (and counted) instead of stored."""
        if len(self.events) >= self.max_events:
            self.dropped_events += 1
            return
        e = {"t": float(t), "event": kind}
        e.update(fields)
        self.events.append(e)

    def events_of(self, *kinds: str) -> list[dict]:
        wanted = set(kinds)
        return [e for e in self.events if e["event"] in wanted]

    # ------------------------------------------------------------------ #
    # Sampling helpers
    # ------------------------------------------------------------------ #

    def probe(self, replica_id: int, start: float = 0.0) -> ReplicaProbe:
        """A fixed-interval sampler for one replica's live state."""
        return ReplicaProbe(self, replica_id, start)

    def boundaries(self, key: str, now: float, interval: float | None = None) -> list[float]:
        """Every grid boundary up to ``now`` not yet emitted under
        ``key`` — the generic interval-crossing primitive samplers that
        run at irregular instants (per-arrival loops) are built on."""
        step = self.interval_s if interval is None else interval
        next_t = self._boundaries.get(key, 0.0)
        if next_t > now + _EPS:
            return []
        out = []
        while next_t <= now + _EPS:
            out.append(next_t)
            next_t += step
        self._boundaries[key] = next_t
        return out

    def window_s(self, total_time: float) -> float:
        """Fold window: the sample interval, widened so no windowed
        series exceeds :data:`MAX_WINDOWS` points."""
        return max(self.interval_s, total_time / MAX_WINDOWS)

    # ------------------------------------------------------------------ #
    # Result fold
    # ------------------------------------------------------------------ #

    def fold_result(self, result, ttft_slo: float | None = None, tpot_slo: float | None = None) -> None:
        """Derive the windowed latency/SLO series from a finished run and
        fold its fleet lifecycle events into the event log.

        Idempotent: windowed series are replaced, previously folded scale
        events are dropped before re-folding (engines that run auxiliary
        sub-simulations fold only once, but the contract is safe either
        way). ``slo.attainment``/``slo.burn_rate`` are always emitted —
        with no SLOs configured every window attains trivially (1.0), the
        same convention as :meth:`LatencyStats.slo_attainment`.
        """
        total = float(result.total_time)
        window = self.window_s(total)
        self.meta.update(
            {
                "engine": result.engine,
                "label": result.label,
                "num_requests": result.num_requests,
                "total_time": total,
                "window_s": window,
                "ttft_slo": ttft_slo,
                "tpot_slo": tpot_slo,
                "slo_budget": self.slo_budget,
            }
        )
        n_windows = max(1, int(math.ceil(total / window - _EPS)))

        rate_pts = []
        ttft_pts: dict[float, list[tuple[float, float]]] = {50: [], 90: [], 99: []}
        tpot_pts: dict[float, list[tuple[float, float]]] = {50: [], 90: [], 99: []}
        att_pts = []
        burn_pts = []
        lat = result.latency
        if lat is None:
            arrivals = [0] * n_windows
            ends = [0] * n_windows
        else:

            def window_of(stamp):
                # int() truncation per request, as a column.
                return np.minimum((stamp / window).astype(np.int64), n_windows - 1)

            arrivals = np.bincount(
                window_of(lat.arrival), minlength=n_windows
            ).tolist()
            # Finished requests grouped by window, in request order.
            done_in = window_of(lat.finish)
            order = np.argsort(done_in, kind="stable")
            ends = np.cumsum(np.bincount(done_in, minlength=n_windows)).tolist()
            ttft = lat.ttft_values()[order].tolist()
            has_decode, tpot = lat.tpot_values()
            has_decode = has_decode[order].tolist()
            tpot = tpot[order].tolist()
            judged, met = lat.slo_met(ttft_slo=ttft_slo, tpot_slo=tpot_slo)
            num_judged = np.bincount(done_in[judged], minlength=n_windows).tolist()
            num_met = np.bincount(done_in[met], minlength=n_windows).tolist()
        start = 0
        for i in range(n_windows):
            t_end = (i + 1) * window
            rate_pts.append((t_end, arrivals[i] / window))
            end = ends[i]
            if end > start:
                for q, v in zip((50, 90, 99), percentiles(ttft[start:end]), strict=True):
                    ttft_pts[q].append((t_end, v))
                tpots = [
                    v
                    for v, d in zip(tpot[start:end], has_decode[start:end], strict=True)
                    if d
                ]
                if tpots:
                    for q, v in zip((50, 90, 99), percentiles(tpots), strict=True):
                        tpot_pts[q].append((t_end, v))
                attainment = (
                    num_met[i] / num_judged[i] if num_judged[i] else 1.0
                )
            else:
                attainment = 1.0
            start = end
            att_pts.append((t_end, attainment))
            burn_pts.append((t_end, (1.0 - attainment) / self.slo_budget))

        self.set_series("cluster.arrival_rate", rate_pts)
        for q in (50, 90, 99):
            self.set_series(f"ttft.p{q}", ttft_pts[q])
            self.set_series(f"tpot.p{q}", tpot_pts[q])
        self.set_series("slo.attainment", att_pts)
        self.set_series("slo.burn_rate", burn_pts)

        router = result.router
        fleet = router.fleet if router is not None else None
        if fleet is not None and fleet.events:
            self.events = [e for e in self.events if e["event"] != "scale"]
            for ev in fleet.events:
                self.event(
                    ev.time,
                    "scale",
                    action=ev.kind,
                    replica=ev.replica_id,
                    active_dp=ev.active_dp,
                    reason=getattr(ev, "reason", ""),
                )
