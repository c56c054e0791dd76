"""Configuration search: static sweeps and Seesaw (cp, cd) pairing.

Mirrors the paper's methodology: the vLLM baseline sweeps *all* feasible
single configurations and reports the best (Section 6.2), and Seesaw picks
a prefill-optimal and a decode-optimal configuration pair. Ranking is
analytic (cheap); ``simulate_top`` optionally re-ranks the analytic top-k
with short engine runs on a workload subsample for fidelity.

What the ranking optimizes is a :class:`~repro.autotuner.objective.ServingObjective`:
the default (``throughput``) reproduces the seed's offline-throughput
ordering bit-exactly, while ``slo`` ranks by queueing-corrected goodput
under an offered request rate and re-ranks the simulated top-k by measured
SLO attainment.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

from repro.autotuner.objective import ServingObjective
from repro.autotuner.predictor import predict_request_rate
from repro.engines.base import EngineOptions
from repro.errors import CapacityError, ConfigurationError
from repro.hardware.cluster import ClusterSpec
from repro.models.config import ModelConfig
from repro.parallel.config import ParallelConfig
from repro.parallel.enumerate import feasible_configs
from repro.workloads.spec import WorkloadSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.options import SeesawOptions
    from repro.exec import CellExecutor


@dataclass(frozen=True)
class RankedConfig:
    """One configuration with its predicted request rate (and, under an
    SLO objective, its predicted attainment and goodput)."""

    config: ParallelConfig
    predicted_rps: float
    predicted_attainment: float = 1.0
    predicted_goodput_rps: float | None = None


@dataclass(frozen=True)
class RankedPair:
    """One Seesaw (prefill, decode) pair with its predicted request rate
    (and, under an SLO objective, attainment and goodput)."""

    prefill_config: ParallelConfig
    decode_config: ParallelConfig
    predicted_rps: float
    predicted_attainment: float = 1.0
    predicted_goodput_rps: float | None = None

    def label(self) -> str:
        return f"{self.prefill_config.label()}->{self.decode_config.label()}"


def _workload_averages(workload: WorkloadSpec) -> tuple[float, float]:
    n = workload.num_requests
    return workload.total_input_tokens / n, workload.total_output_tokens / n


def rank_static_configs(
    model: ModelConfig,
    cluster: ClusterSpec,
    workload: WorkloadSpec,
    *,
    allow_dp: bool = True,
    max_num_seqs: int = 512,
    objective: ServingObjective | None = None,
) -> list[RankedConfig]:
    """All feasible static configs, best first under ``objective`` (the
    default throughput objective reproduces the seed ordering)."""
    objective = objective or ServingObjective()
    avg_in, avg_out = _workload_averages(workload)
    ranked: list[tuple[tuple[float, ...], RankedConfig]] = []
    for cfg in feasible_configs(model, cluster, allow_dp=allow_dp):
        try:
            rates = predict_request_rate(
                model, cluster, cfg, cfg, avg_in, avg_out, max_num_seqs,
                concurrency=workload.num_requests,
            )
        except CapacityError:
            continue
        pred = objective.predict(rates, avg_in, avg_out)
        ranked.append(
            (
                objective.rank_key(rates, pred),
                RankedConfig(
                    config=cfg,
                    predicted_rps=rates.request_rate,
                    predicted_attainment=pred.attainment,
                    predicted_goodput_rps=pred.goodput_rps,
                ),
            )
        )
    if not ranked:
        raise CapacityError(
            f"no feasible configuration for {model.name} on {cluster.describe()}"
        )
    ranked.sort(key=lambda kr: kr[0], reverse=True)
    return [r for _, r in ranked]


def rank_seesaw_pairs(
    model: ModelConfig,
    cluster: ClusterSpec,
    workload: WorkloadSpec,
    *,
    allow_dp: bool = True,
    max_num_seqs: int = 512,
    objective: ServingObjective | None = None,
) -> list[RankedPair]:
    """All (cp, cd) pairs with matching DP, best first under ``objective``.

    Seesaw keeps DP fixed across the transition (Section 4.1), so pairs are
    formed within each DP group.
    """
    objective = objective or ServingObjective()
    avg_in, avg_out = _workload_averages(workload)
    configs = feasible_configs(model, cluster, allow_dp=allow_dp)
    pairs: list[tuple[tuple[float, ...], RankedPair]] = []
    for cp in configs:
        for cd in configs:
            if cp.dp != cd.dp:
                continue
            try:
                rates = predict_request_rate(
                    model, cluster, cp, cd, avg_in, avg_out, max_num_seqs,
                    concurrency=workload.num_requests,
                )
            except CapacityError:
                continue
            pred = objective.predict(rates, avg_in, avg_out)
            pairs.append(
                (
                    objective.rank_key(rates, pred),
                    RankedPair(
                        prefill_config=cp,
                        decode_config=cd,
                        predicted_rps=rates.request_rate,
                        predicted_attainment=pred.attainment,
                        predicted_goodput_rps=pred.goodput_rps,
                    ),
                )
            )
    if not pairs:
        raise CapacityError(
            f"no feasible Seesaw pair for {model.name} on {cluster.describe()}"
        )
    pairs.sort(key=lambda kp: kp[0], reverse=True)
    return [p for _, p in pairs]


def best_static_config(
    model: ModelConfig,
    cluster: ClusterSpec,
    workload: WorkloadSpec,
    *,
    allow_dp: bool = True,
    simulate_top: int = 0,
    sample_requests: int = 64,
    options: EngineOptions | None = None,
    objective: ServingObjective | None = None,
    executor: "CellExecutor | None" = None,
) -> ParallelConfig:
    """Best static configuration; optionally re-rank analytic top-k by
    simulating a workload subsample with the vLLM-like engine. Under an
    ``slo`` objective the simulated score is measured SLO attainment
    (throughput breaking ties), not raw throughput.

    ``executor`` (inline by default) fans the top-k validation runs
    across worker processes, and through the result cache when one is
    attached; the pick is identical at any ``--jobs``."""
    objective = objective or ServingObjective()
    ranked = rank_static_configs(
        model, cluster, workload, allow_dp=allow_dp, objective=objective
    )
    if simulate_top <= 1:
        return ranked[0].config
    from repro.exec import CellExecutor, CellSpec

    sample = workload.subset(min(sample_requests, workload.num_requests))
    runs = (executor or CellExecutor()).run(
        CellSpec(
            engine="vllm", model=model, cluster=cluster,
            config=cand.config.label(),
            options=options if options is not None else EngineOptions(),
            workload=sample,
        )
        for cand in ranked[:simulate_top]
    )
    best_cfg, best_key = None, None
    for cand, result in zip(ranked[:simulate_top], runs, strict=True):
        key = objective.result_key(result)
        if best_key is None or key > best_key:
            best_cfg, best_key = cand.config, key
    assert best_cfg is not None
    return best_cfg


def best_seesaw_pair(
    model: ModelConfig,
    cluster: ClusterSpec,
    workload: WorkloadSpec,
    *,
    allow_dp: bool = True,
    simulate_top: int = 0,
    sample_requests: int = 64,
    options: "SeesawOptions | None" = None,
    objective: ServingObjective | None = None,
    executor: "CellExecutor | None" = None,
) -> tuple[ParallelConfig, ParallelConfig]:
    """Best (cp, cd) pair; optionally validated by short simulation.

    ``options`` reaches the :class:`~repro.core.engine.SeesawEngine` used
    for that validation (previously the simulated re-ranking silently
    ignored arrival/router engine options). Under an ``slo`` objective the
    engine is also told the predicted arrival rate so its phase loop can
    weigh waiting against re-sharding. ``executor`` (inline by default)
    parallelizes (and, with a cache, memoizes) the validation runs; the
    pick is identical at any ``--jobs``.
    """
    objective = objective or ServingObjective()
    ranked = rank_seesaw_pairs(
        model, cluster, workload, allow_dp=allow_dp, objective=objective
    )
    if simulate_top <= 1:
        top = ranked[0]
        return top.prefill_config, top.decode_config
    from repro.core.options import SeesawOptions
    from repro.exec import CellExecutor, CellSpec

    if options is None:
        options = SeesawOptions()
    # The hint never overrides an explicitly-supplied rate (e.g. one
    # measured from a trace) — the validation engines must match what the
    # caller will actually run.
    if options.arrival_rate is None and objective.arrival_rate_hint is not None:
        options = replace(options, arrival_rate=objective.arrival_rate_hint)
    sample = workload.subset(min(sample_requests, workload.num_requests))
    runs = (executor or CellExecutor()).run(
        CellSpec(
            engine="seesaw", model=model, cluster=cluster,
            config=cand.label(), options=options, workload=sample,
        )
        for cand in ranked[:simulate_top]
    )
    best, best_key = None, None
    for cand, result in zip(ranked[:simulate_top], runs, strict=True):
        key = objective.result_key(result)
        if best_key is None or key > best_key:
            best, best_key = cand, key
    assert best is not None
    return best.prefill_config, best.decode_config


def tune_chunk_size(
    model: ModelConfig,
    cluster: ClusterSpec,
    config: ParallelConfig,
    workload: WorkloadSpec,
    *,
    candidates: tuple[int, ...] = (512, 1024, 2048, 4096),
    sample_requests: int = 48,
    executor: "CellExecutor | None" = None,
) -> int:
    """Pick the chunked-prefill chunk size by short simulation.

    The paper tunes vLLM's chunk size per workload ('otherwise suboptimal
    chunk sizes would cause severe throughput degradation'); this helper is
    that tuning loop. ``executor`` (inline by default) fans the candidate
    runs out in parallel; the pick is identical at any ``--jobs``.
    """
    if not candidates:
        raise ConfigurationError("need at least one chunk-size candidate")
    from repro.exec import CellExecutor, CellSpec

    sample = workload.subset(min(sample_requests, workload.num_requests))
    runs = (executor or CellExecutor()).run(
        CellSpec(
            engine="vllm", model=model, cluster=cluster,
            config=config.label(),
            options=EngineOptions(chunked_prefill=True, chunk_size=size),
            workload=sample,
        )
        for size in candidates
    )
    best_size, best_rps = candidates[0], -1.0
    for size, result in zip(candidates, runs, strict=True):
        rps = result.throughput_rps
        if rps > best_rps:
            best_size, best_rps = size, rps
    return best_size
