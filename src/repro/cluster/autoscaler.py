"""Autoscaling policies driving :class:`~repro.cluster.fleet.ReplicaFleet`.

The autoscaler runs on the cluster's shared clock: it is consulted at
every arrival (the only instants dispatch decisions exist), rate-limited
by its evaluation interval, and its verdict is a *target replica count*
the fleet then moves toward — scale-ups pay the cost-model provisioning
latency before the new replica joins the membership, scale-downs drain.

Policies:

- ``none``       — the fixed fleet: never scales; the coupled path stays
  bit-exact with the fixed-membership simulator.
- ``threshold``  — reactive rules on *observed* signals: scale up when
  the mean queued-prefill depth per active replica exceeds one prefill
  budget (every replica has at least a full batch of work waiting);
  scale down when the fleet spent most of the last window idle with
  near-empty queues.
- ``predictive`` — the serving objective's M/M/c model run in reverse:
  estimate the recent offered rate from an arrival window, then pick the
  smallest replica count whose Erlang-C wait keeps the predicted TTFT
  attainment above target (utilization below ``max_utilization`` when no
  TTFT SLO is configured).
- ``threshold:burn_rate`` — the threshold rules plus an SLO burn-rate
  fast path: requests already waiting long enough that their TTFT is a
  *guaranteed* miss burn error budget now, a window before queued tokens
  pile past the depth threshold — so the scale-up fires one evaluation
  earlier under a rising diurnal edge.
"""

from __future__ import annotations

import abc
import math
from collections import deque
from typing import TYPE_CHECKING

from repro.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.fleet import ReplicaFleet

AUTOSCALER_POLICIES = ("none", "threshold", "predictive", "threshold:burn_rate")

# Error budget of the burn-rate signal: the fraction of requests allowed
# to miss the TTFT SLO (matches the telemetry SLO attainment target of
# 99%). Burn rate 1.0 = spending the budget exactly as fast as allowed.
BURN_RATE_SLO_BUDGET = 0.01

# Default seconds between autoscaler evaluations (and the observation
# window of the threshold policy's idle signal).
DEFAULT_EVAL_INTERVAL_S = 5.0


class Autoscaler(abc.ABC):
    """Shared cadence logic; subclasses implement :meth:`target_dp`."""

    name: str = "base"
    # Whether :meth:`note_arrival` records anything: a per-arrival loop
    # may skip the call for policies that never read their arrivals.
    observes_arrivals: bool = False

    def __init__(
        self,
        min_dp: int,
        max_dp: int,
        *,
        interval_s: float = DEFAULT_EVAL_INTERVAL_S,
    ) -> None:
        if interval_s <= 0:
            raise ConfigurationError("autoscaler interval must be positive")
        self.min_dp = min_dp
        self.max_dp = max_dp
        self.interval_s = interval_s
        self._last_eval_at: float | None = None
        # Human-readable record of the latest non-None verdict: the
        # triggering signal, its window values and the chosen target.
        # Consumed by the fleet's scale events (FleetEvent.reason).
        self.last_reason = ""

    @property
    def last_eval_at(self) -> float | None:
        """When :meth:`decide` last evaluated (``None`` before the first
        evaluation); :meth:`decide` answers ``None`` at any ``now`` with
        ``now - last_eval_at < interval_s``."""
        return self._last_eval_at

    def note_arrival(self, now: float) -> None:
        """Observe one arrival (predictive rate estimation hook)."""

    def decide(self, now: float, fleet: "ReplicaFleet") -> int | None:
        """Target replica count, or ``None`` between evaluation instants."""
        if (
            self._last_eval_at is not None
            and now - self._last_eval_at < self.interval_s
        ):
            return None
        target = self.target_dp(now, fleet)
        self._last_eval_at = now
        if target is None:
            return None
        return max(self.min_dp, min(self.max_dp, target))

    @abc.abstractmethod
    def target_dp(self, now: float, fleet: "ReplicaFleet") -> int | None:
        """Desired replica count at ``now`` (``None`` = no opinion)."""


class ThresholdAutoscaler(Autoscaler):
    """Reactive scaling on observed queue depth and idle fraction."""

    name = "threshold"

    def __init__(
        self,
        min_dp: int,
        max_dp: int,
        *,
        up_queue_tokens: float,
        down_idle_fraction: float = 0.6,
        interval_s: float = DEFAULT_EVAL_INTERVAL_S,
    ) -> None:
        super().__init__(min_dp, max_dp, interval_s=interval_s)
        if up_queue_tokens <= 0:
            raise ConfigurationError("up_queue_tokens must be positive")
        if not 0 < down_idle_fraction <= 1:
            raise ConfigurationError("down_idle_fraction must be in (0, 1]")
        self.up_queue_tokens = up_queue_tokens
        self.down_idle_fraction = down_idle_fraction
        # Per-replica idle snapshots anchoring the observation window.
        self._idle_marks: dict[int, tuple[float, float]] = {}

    def _window_idle_fraction(self, now: float, fleet: "ReplicaFleet") -> float:
        """Mean idle fraction of the active replicas since each replica's
        last snapshot (new replicas anchor at their activation).

        Two kinds of idleness add up: arrival gaps the engine slept
        through (its ``idle`` phase timer) and the *drained* tail — a
        replica whose clock stopped short of ``now`` has had nothing at
        all to do since, which the phase timer only books once a later
        arrival makes it jump.

        A replica only votes once its window spans a full evaluation
        interval: the degenerate startup window (activation to the first
        arrival) is trivially 100% idle on *any* fleet — acting on it
        would drain a healthy replica before traffic has said anything.
        """
        fractions = []
        for h in fleet.active_handles():
            sim = h.sim
            assert sim is not None
            mark_t, mark_idle = self._idle_marks.get(
                h.replica_id, (h.active_at, 0.0)
            )
            span = now - mark_t
            if span >= self.interval_s:
                slept = max(0.0, sim.idle_time() - mark_idle)
                drained = max(0.0, now - max(sim.clock, mark_t))
                fractions.append(min(1.0, (slept + drained) / span))
                # The anchor accumulates everything ever counted (booked
                # sleep plus drained tails): the engine books a drained
                # gap as idle phase time only at its next idle_advance
                # jump — possibly several windows later — and measuring
                # future sleep against this running baseline keeps that
                # late booking from being counted a second time.
                self._idle_marks[h.replica_id] = (
                    now,
                    mark_idle + slept + drained,
                )
        if not fractions:
            return 0.0
        return sum(fractions) / len(fractions)

    def target_dp(self, now: float, fleet: "ReplicaFleet") -> int | None:
        loads = fleet.dispatch_loads()
        if not loads:
            return None
        mean_queue = sum(l.queued_prefill_tokens(now) for l in loads) / len(loads)
        idle = self._window_idle_fraction(now, fleet)
        committed = fleet.target_count
        if mean_queue > self.up_queue_tokens:
            self.last_reason = (
                f"mean queued prefill {mean_queue:.0f} tok/replica > "
                f"up threshold {self.up_queue_tokens:.0f} tok -> dp {committed + 1}"
            )
            return committed + 1
        if idle > self.down_idle_fraction and mean_queue < 0.1 * self.up_queue_tokens:
            self.last_reason = (
                f"window idle {idle:.0%} > {self.down_idle_fraction:.0%} with "
                f"mean queue {mean_queue:.0f} tok -> dp {committed - 1}"
            )
            return committed - 1
        return None


class BurnRateThresholdAutoscaler(ThresholdAutoscaler):
    """Threshold scaling with an SLO burn-rate scale-up fast path.

    The queue-depth rule only fires once a *full prefill budget* of
    tokens has piled up per replica; on a rising arrival edge that takes
    an extra evaluation window during which requests are already
    doomed to miss their TTFT SLO. This policy reads the same windowed
    burn rate the telemetry SLO report surfaces: count the queued
    requests whose TTFT is already a guaranteed miss — they have waited
    so long that even an immediate prefill lands past the SLO — and
    divide by the window's arrivals and the error budget. Burn above 1.0
    means the fleet is spending error budget faster than the SLO target
    permits, and the policy scales up immediately instead of waiting for
    the queue-depth threshold; otherwise it defers to the plain
    threshold rules (including scale-down).
    """

    name = "threshold:burn_rate"
    observes_arrivals = True

    def __init__(
        self,
        min_dp: int,
        max_dp: int,
        *,
        up_queue_tokens: float,
        ttft_slo: float,
        prefill_latency_s: float = 0.0,
        slo_budget: float = BURN_RATE_SLO_BUDGET,
        down_idle_fraction: float = 0.6,
        interval_s: float = DEFAULT_EVAL_INTERVAL_S,
    ) -> None:
        super().__init__(
            min_dp,
            max_dp,
            up_queue_tokens=up_queue_tokens,
            down_idle_fraction=down_idle_fraction,
            interval_s=interval_s,
        )
        if ttft_slo is None or ttft_slo <= 0:
            raise ConfigurationError(
                "threshold:burn_rate needs a positive TTFT SLO"
            )
        if not 0 < slo_budget < 1:
            raise ConfigurationError("slo_budget must be in (0, 1)")
        self.ttft_slo = ttft_slo
        self.prefill_latency_s = prefill_latency_s
        self.slo_budget = slo_budget
        self._arrivals: deque[float] = deque()

    def note_arrival(self, now: float) -> None:
        window = self._arrivals
        window.append(now)
        cutoff = now - self.interval_s
        while window and window[0] < cutoff:
            window.popleft()

    def _guaranteed_misses(self, now: float, fleet: "ReplicaFleet") -> int:
        """Queued requests whose TTFT is already unattainable: even an
        immediate prefill at the analytic latency lands past the SLO."""
        misses = 0
        slack = self.ttft_slo - self.prefill_latency_s
        for h in fleet.active_handles():
            sim = h.sim
            # Fluid-tier replicas model no per-request queues (they carry
            # only drain horizons); the burn-rate signal degrades to the
            # plain threshold rules.
            state = getattr(sim, "state", None)
            if state is None:
                continue
            for seq in list(state.pending) + list(state.waiting):
                t = seq.first_schedule_time
                if t == t:  # already scheduled: TTFT is decided elsewhere
                    continue
                if now - seq.arrival_time > slack:
                    misses += 1
        return misses

    def target_dp(self, now: float, fleet: "ReplicaFleet") -> int | None:
        misses = self._guaranteed_misses(now, fleet)
        if misses:
            arrivals = max(1, len(self._arrivals))
            burn = misses / arrivals / self.slo_budget
            if burn > 1.0:
                committed = fleet.target_count
                self.last_reason = (
                    f"slo burn rate {burn:.1f}x budget ({misses} guaranteed "
                    f"ttft misses / {arrivals} arrivals in "
                    f"{self.interval_s:.0f}s window) -> dp {committed + 1}"
                )
                return committed + 1
        return super().target_dp(now, fleet)


class PredictiveAutoscaler(Autoscaler):
    """Erlang-C right-sizing from the measured recent arrival rate.

    The serving objective (:mod:`repro.autotuner.objective`) models the
    fleet as an M/M/c station; this policy inverts it: given the offered
    rate ``lambda`` measured over the last ``window`` arrivals and the
    analytic per-replica capacity ``mu1``, pick the smallest ``c`` whose
    predicted TTFT attainment ``1 - ErlangC(c, lambda/mu1) *
    exp(-(c*mu1 - lambda) * slack)`` meets the target. Without a TTFT
    SLO the criterion degrades to bounded utilization.
    """

    name = "predictive"
    observes_arrivals = True

    def __init__(
        self,
        min_dp: int,
        max_dp: int,
        *,
        capacity_rps_per_replica: float,
        prefill_latency_s: float = 0.0,
        ttft_slo: float | None = None,
        attainment_target: float = 0.95,
        max_utilization: float = 0.8,
        window: int = 32,
        interval_s: float = DEFAULT_EVAL_INTERVAL_S,
    ) -> None:
        super().__init__(min_dp, max_dp, interval_s=interval_s)
        if capacity_rps_per_replica <= 0:
            raise ConfigurationError("per-replica capacity must be positive")
        if not 0 < attainment_target <= 1:
            raise ConfigurationError("attainment_target must be in (0, 1]")
        if not 0 < max_utilization < 1:
            raise ConfigurationError("max_utilization must be in (0, 1)")
        if window < 2:
            raise ConfigurationError("rate window needs at least 2 arrivals")
        self.mu1 = capacity_rps_per_replica
        self.prefill_latency_s = prefill_latency_s
        self.ttft_slo = ttft_slo
        self.attainment_target = attainment_target
        self.max_utilization = max_utilization
        self._arrivals: deque[float] = deque(maxlen=window)

    def note_arrival(self, now: float) -> None:
        self._arrivals.append(now)

    def _offered_rate(self) -> float | None:
        if len(self._arrivals) < 2:
            return None
        span = self._arrivals[-1] - self._arrivals[0]
        if span <= 0:
            return None
        return (len(self._arrivals) - 1) / span

    def _meets_slo(self, servers: int, lam: float) -> bool:
        # Imported lazily: the autoscaler registry is consumed by
        # EngineOptions validation, and a module-level import would close
        # an engines -> cluster -> autotuner -> engines cycle.
        from repro.autotuner.objective import erlang_c

        mu = servers * self.mu1
        if lam >= mu:
            return False
        if self.ttft_slo is None:
            return lam / mu <= self.max_utilization
        slack = self.ttft_slo - self.prefill_latency_s
        if slack < 0:
            return False
        wait_prob = erlang_c(servers, lam / self.mu1)
        attainment = 1.0 - wait_prob * math.exp(-(mu - lam) * slack)
        return attainment >= self.attainment_target

    def target_dp(self, now: float, fleet: "ReplicaFleet") -> int | None:
        lam = self._offered_rate()
        if lam is None:
            return None
        goal = (
            f"ttft attainment >= {self.attainment_target:.0%}"
            if self.ttft_slo is not None
            else f"utilization <= {self.max_utilization:.0%}"
        )
        for c in range(self.min_dp, self.max_dp + 1):
            if self._meets_slo(c, lam):
                self.last_reason = (
                    f"offered {lam:.2f} rps @ {self.mu1:.2f} rps/replica -> "
                    f"smallest c={c} with {goal}"
                )
                return c
        self.last_reason = (
            f"offered {lam:.2f} rps @ {self.mu1:.2f} rps/replica: no "
            f"c <= {self.max_dp} meets {goal} -> dp {self.max_dp}"
        )
        return self.max_dp


def make_autoscaler(
    policy: str,
    min_dp: int,
    max_dp: int,
    *,
    up_queue_tokens: float,
    capacity_rps_per_replica: float,
    prefill_latency_s: float = 0.0,
    ttft_slo: float | None = None,
    interval_s: float = DEFAULT_EVAL_INTERVAL_S,
) -> Autoscaler | None:
    """Instantiate an autoscaling policy by CLI name (``None`` for
    ``none`` — the fixed fleet needs no policy object at all)."""
    if policy == "none":
        return None
    if policy == "threshold":
        return ThresholdAutoscaler(
            min_dp,
            max_dp,
            up_queue_tokens=up_queue_tokens,
            interval_s=interval_s,
        )
    if policy == "threshold:burn_rate":
        if ttft_slo is None:
            raise ConfigurationError(
                "autoscaler 'threshold:burn_rate' needs --ttft-slo: the "
                "burn-rate signal is defined against a TTFT budget"
            )
        return BurnRateThresholdAutoscaler(
            min_dp,
            max_dp,
            up_queue_tokens=up_queue_tokens,
            ttft_slo=ttft_slo,
            prefill_latency_s=prefill_latency_s,
            interval_s=interval_s,
        )
    if policy == "predictive":
        return PredictiveAutoscaler(
            min_dp,
            max_dp,
            capacity_rps_per_replica=capacity_rps_per_replica,
            prefill_latency_s=prefill_latency_s,
            ttft_slo=ttft_slo,
            interval_s=interval_s,
        )
    raise ConfigurationError(
        f"unknown autoscaler policy {policy!r}; one of {AUTOSCALER_POLICIES}"
    )
