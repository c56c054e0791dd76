"""Serving objectives: what the configuration search optimizes *for*.

The seed autotuner ranks by offline throughput alone — the right target
for batch jobs, but online serving is judged by SLO attainment under an
offered load. :class:`ServingObjective` makes the target explicit:

- ``throughput`` — the seed behaviour: rank by predicted request rate
  (and, under simulated re-ranking, measured ``throughput_rps``).
- ``slo``        — SLO-constrained goodput: an analytic queueing
  correction on top of :func:`~repro.autotuner.predictor.predict_request_rate`
  estimates each configuration's TTFT distribution and TPOT under the
  offered rate, converts them into a predicted attainment, and ranks by
  the goodput (attainment x served rate) it implies. Simulated re-ranking
  then scores measured ``slo_attainment`` instead of throughput.

The queueing correction is deliberately first-order, in the spirit of
first-principles infrastructure modeling: the cluster is an M/M/c
station — ``c`` data-parallel replicas, each serving at ``mu / c`` where
``mu`` is the configuration's aggregate analytic request capacity. At
offered rate ``lambda`` (utilization ``rho = lambda / mu``), with
``C = ErlangC(c, lambda / (mu / c))`` the probability an arrival waits:

- mean queue wait      ``W_q = C / (mu - lambda)``        (infinite at rho >= 1)
- wait distribution    ``P(W_q <= t) = 1 - C * exp(-(mu - lambda) t)``
- TTFT                 queue wait + this request's prefill on one replica
- TPOT                 one decode iteration of the capacity-bound batch

At ``c = 1`` Erlang C reduces to ``C = rho`` and both formulas are the
classic M/M/1 expressions the seed objective used (bit-for-bit — the
``dp == 1`` ranking is unchanged); at ``c > 1`` the pooled model's wait
probability ``rho`` is replaced by Erlang C — an arrival queues only
when *every* replica is busy, which the pooled single-server fiction
could not express (it overstated queueing at moderate load while
pretending service itself ran ``c`` times faster). TTFT attainment is
the closed-form probability the queue wait leaves enough slack for the
prefill; TPOT is deterministic in the analytic model, so its bound is a
hard gate. Both are exactly the cheap-search trade: rank the whole space
analytically, then (optionally) validate the top-k with short
simulations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.autotuner.predictor import PredictedRates
from repro.errors import ConfigurationError
from repro.runtime.metrics import EngineResult

OBJECTIVES = ("throughput", "slo")


def erlang_c(servers: int, offered_load: float) -> float:
    """Erlang C: probability an M/M/c arrival waits in queue.

    ``offered_load`` is ``a = lambda / mu_server`` in erlangs. Returns 1.0
    for an unstable queue (``a >= servers``). Computed with the stable
    partial-sum recurrence (no factorials); ``servers == 1`` returns
    exactly ``a`` — the M/M/1 probability-of-wait ``rho`` — so single-
    replica rankings are bit-identical to the M/M/1 formulation.
    """
    if servers < 1:
        raise ConfigurationError("servers must be >= 1")
    if offered_load < 0:
        raise ConfigurationError("offered_load must be >= 0")
    if offered_load == 0:
        return 0.0
    if offered_load >= servers:
        return 1.0
    if servers == 1:
        return offered_load
    # sum_{k<c} a^k/k! via the running term; the c-th term feeds the tail.
    term = 1.0
    total = 1.0
    for k in range(1, servers):
        term *= offered_load / k
        total += term
    tail = term * offered_load / servers / (1.0 - offered_load / servers)
    return tail / (total + tail)


@dataclass(frozen=True)
class ServingPrediction:
    """Analytic serving estimate of one configuration under one load."""

    capacity_rps: float  # analytic request capacity (mu)
    offered_rps: float  # offered request rate (lambda; 0 = offline)
    utilization: float  # rho = lambda / mu
    queue_wait_mean_s: float  # mean M/M/1 queue wait (inf when rho >= 1)
    ttft_mean_s: float  # queue wait + prefill latency
    tpot_s: float  # decode iteration time per output token
    attainment: float  # predicted fraction of requests meeting the SLOs
    goodput_rps: float  # attainment x served rate

    @property
    def stable(self) -> bool:
        """Whether the queue is stable (offered below capacity)."""
        return self.utilization < 1.0


@dataclass(frozen=True)
class ServingObjective:
    """Ranking target for static configs and Seesaw (cp, cd) pairs.

    Attributes:
        kind: ``throughput`` (the seed's offline target, the default) or
            ``slo`` (SLO-constrained goodput under ``request_rate``).
        request_rate: Offered request rate in req/s; 0 models an offline
            run (no queueing term — attainment reflects service latency
            alone).
        ttft_slo: TTFT bound in seconds (``None`` = unconstrained).
        tpot_slo: TPOT bound in seconds per output token (``None`` =
            unconstrained).
    """

    kind: str = "throughput"
    request_rate: float = 0.0
    ttft_slo: float | None = None
    tpot_slo: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in OBJECTIVES:
            raise ConfigurationError(
                f"unknown objective {self.kind!r}; one of {OBJECTIVES}"
            )
        if self.request_rate < 0:
            raise ConfigurationError("request_rate must be >= 0")
        for name, slo in (("ttft_slo", self.ttft_slo), ("tpot_slo", self.tpot_slo)):
            if slo is not None and not 0.0 < slo < math.inf:
                raise ConfigurationError(
                    f"{name} must be positive and finite (got {slo!r})"
                )

    @property
    def arrival_rate_hint(self) -> float | None:
        """Offered rate to hand engines whose schedulers can consult it
        (Seesaw's wait-vs-re-shard decision); ``None`` unless tuning for
        SLOs under a real load."""
        if self.kind == "slo" and self.request_rate > 0:
            return self.request_rate
        return None

    # ------------------------------------------------------------------ #
    # Analytic layer
    # ------------------------------------------------------------------ #

    def predict(
        self, rates: PredictedRates, avg_input_len: float, avg_output_len: float
    ) -> ServingPrediction:
        """Queueing-corrected serving estimate for one configuration."""
        mu = rates.request_rate
        lam = self.request_rate
        rho = lam / mu if mu > 0 else math.inf
        prefill_cfg = rates.prefill_config or rates.config
        dp = max(1, prefill_cfg.dp)
        # One request prefills on a single replica; the aggregate rate
        # divides across the *prefill* side's DP group (which can differ
        # from the decode side's when callers pass an unmatched pair).
        prefill_latency = avg_input_len * dp / rates.prefill_tokens_per_s
        # One decode iteration advances every sequence of the batch one
        # token, so the per-sequence inter-token time is the iteration —
        # preferring the context-growth-aware estimate (mean iteration
        # time over the in -> in+out context trajectory, overhead
        # included) over the first-order batch/rate quotient, which
        # under-predicts measured inter-token time at high batch.
        if rates.tpot_s is not None:
            tpot = rates.tpot_s
        else:
            tpot = rates.max_batch_size / rates.decode_tokens_per_s

        # M/M/c over the dp replicas (each serving at mu / dp): the wait
        # probability is Erlang C on the offered load in erlangs. dp == 1
        # reduces to the M/M/1 expressions bit-exactly (erlang_c(1, a) == a
        # == rho, with the same divisions).
        if lam <= 0:
            wait_prob = 0.0
            queue_wait = 0.0
        elif rho >= 1.0:
            wait_prob = 1.0
            queue_wait = math.inf
        else:
            wait_prob = erlang_c(dp, lam / (mu / dp))
            queue_wait = wait_prob / (mu - lam)

        attainment = self._ttft_attainment(wait_prob, rho, mu, lam, prefill_latency)
        if self.tpot_slo is not None and tpot > self.tpot_slo:
            attainment = 0.0
        served = mu if lam <= 0 else min(lam, mu)
        return ServingPrediction(
            capacity_rps=mu,
            offered_rps=lam,
            utilization=rho,
            queue_wait_mean_s=queue_wait,
            ttft_mean_s=queue_wait + prefill_latency,
            tpot_s=tpot,
            attainment=attainment,
            goodput_rps=attainment * served,
        )

    def _ttft_attainment(
        self,
        wait_prob: float,
        rho: float,
        mu: float,
        lam: float,
        prefill_latency: float,
    ) -> float:
        """P(TTFT <= ttft_slo) under the M/M/c waiting-time distribution:
        ``P(W_q <= t) = 1 - C * exp(-(c*mu_server - lam) t)`` with
        ``c * mu_server = mu`` and ``C`` the Erlang C wait probability
        (``rho`` at c=1, recovering the M/M/1 curve exactly)."""
        if self.ttft_slo is None:
            return 1.0
        slack = self.ttft_slo - prefill_latency
        if slack < 0:
            return 0.0  # even an empty queue misses the bound
        if lam <= 0 or rho <= 0:
            return 1.0
        if rho >= 1.0:
            return 0.0  # unstable: the queue (and every TTFT) diverges
        return 1.0 - wait_prob * math.exp(-(mu - lam) * slack)

    # ------------------------------------------------------------------ #
    # Ranking keys
    # ------------------------------------------------------------------ #

    def rank_key(
        self, rates: PredictedRates, prediction: ServingPrediction
    ) -> tuple[float, ...]:
        """Sort key (descending) for the analytic ranking stage."""
        if self.kind == "throughput":
            return (rates.request_rate,)
        # Goodput first; attainment then raw capacity break ties (e.g.
        # several saturated configs all serving lambda at attainment 1).
        return (prediction.goodput_rps, prediction.attainment, rates.request_rate)

    def result_key(self, result: EngineResult) -> tuple[float, ...]:
        """Sort key (descending) for simulated re-ranking of the top-k."""
        if self.kind == "throughput":
            return (result.throughput_rps,)
        if result.latency is None:
            return (0.0, result.throughput_rps)
        attainment = result.latency.slo_attainment(
            ttft_slo=self.ttft_slo, tpot_slo=self.tpot_slo
        )
        return (attainment, result.throughput_rps)

    def describe(self) -> str:
        parts = [self.kind]
        if self.request_rate > 0:
            parts.append(f"{self.request_rate:g} req/s")
        if self.ttft_slo is not None:
            parts.append(f"ttft<={self.ttft_slo:g}s")
        if self.tpot_slo is not None:
            parts.append(f"tpot<={self.tpot_slo * 1e3:g}ms")
        return " ".join(parts)
