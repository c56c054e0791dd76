"""Configuration search: static sweeps and Seesaw (cp, cd) pairing.

Mirrors the paper's methodology: the vLLM baseline sweeps *all* feasible
single configurations and reports the best (Section 6.2), and Seesaw picks
a prefill-optimal and a decode-optimal configuration pair; a static
configuration ranks as the degenerate pair cp == cd. Ranking is analytic
(cheap); ``simulate_top`` optionally re-ranks the analytic top-k with
short engine runs on a workload subsample for fidelity.
:func:`compare_best` is the paper's headline comparison recipe.

What the ranking optimizes is a :class:`~repro.autotuner.objective.ServingObjective`:
the default (``throughput``) reproduces the seed's offline-throughput
ordering bit-exactly, while ``slo`` ranks by queueing-corrected goodput
under an offered request rate and re-ranks the simulated top-k by measured
SLO attainment.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable, Iterable, Sequence, TypeVar

from repro.autotuner.objective import ServingObjective
from repro.autotuner.predictor import predict_request_rate
from repro.cluster.fleet import workload_averages
from repro.engines.base import EngineOptions
from repro.errors import CapacityError, ConfigurationError
from repro.hardware.cluster import ClusterSpec
from repro.models.config import ModelConfig
from repro.parallel.config import ParallelConfig, transition_label
from repro.parallel.enumerate import feasible_configs
from repro.runtime.metrics import EngineResult
from repro.workloads.spec import WorkloadSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.options import SeesawOptions
    from repro.exec import CellExecutor, CellSpec

T = TypeVar("T")


@dataclass(frozen=True)
class RankedPair:
    """One (prefill, decode) pair with its predicted request rate (and,
    under an SLO objective, attainment and goodput); static configs are
    the degenerate pairs cp == cd."""

    prefill_config: ParallelConfig
    decode_config: ParallelConfig
    predicted_rps: float
    predicted_attainment: float = 1.0
    predicted_goodput_rps: float | None = None

    @property
    def config(self) -> ParallelConfig:
        """The configuration of a static (cp == cd) pair."""
        return self.decode_config

    def label(self) -> str:
        return transition_label(self.prefill_config, self.decode_config)


def _rank(
    model: ModelConfig,
    cluster: ClusterSpec,
    workload: WorkloadSpec,
    pairs: Iterable[tuple[ParallelConfig, ParallelConfig]],
    *,
    max_num_seqs: int,
    objective: ServingObjective | None,
    what: str,
) -> list[RankedPair]:
    """Predict every feasible (cp, cd) candidate and sort best first under
    ``objective`` (stable, so ties keep candidate order)."""
    objective = objective or ServingObjective()
    avg_in, avg_out = workload_averages(workload)
    ranked: list[tuple[tuple[float, ...], RankedPair]] = []
    for cp, cd in pairs:
        try:
            rates = predict_request_rate(
                model, cluster, cp, cd, avg_in, avg_out, max_num_seqs,
                concurrency=workload.num_requests,
            )
        except CapacityError:
            continue
        pred = objective.predict(rates, avg_in, avg_out)
        ranked.append(
            (
                objective.rank_key(rates, pred),
                RankedPair(
                    cp, cd, rates.request_rate, pred.attainment, pred.goodput_rps
                ),
            )
        )
    if not ranked:
        raise CapacityError(
            f"no feasible {what} for {model.name} on {cluster.describe()}"
        )
    ranked.sort(key=lambda kr: kr[0], reverse=True)
    return [r for _, r in ranked]


def rank_static_configs(
    model: ModelConfig,
    cluster: ClusterSpec,
    workload: WorkloadSpec,
    *,
    allow_dp: bool = True,
    max_num_seqs: int = 512,
    objective: ServingObjective | None = None,
) -> list[RankedPair]:
    """All feasible static configs as degenerate (c, c) pairs, best first
    under ``objective`` (the default throughput objective reproduces the
    seed ordering); read each one's ``config``."""
    configs = feasible_configs(model, cluster, allow_dp=allow_dp)
    return _rank(
        model, cluster, workload, [(c, c) for c in configs],
        max_num_seqs=max_num_seqs, objective=objective, what="configuration",
    )


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
    configs = feasible_configs(model, cluster, allow_dp=allow_dp)
    return _rank(
        model, cluster, workload,
        [(cp, cd) for cp in configs for cd in configs if cp.dp == cd.dp],
        max_num_seqs=max_num_seqs, objective=objective, what="Seesaw pair",
    )


def _simulated_best(
    candidates: Sequence[T],
    cell: Callable[[T], "CellSpec"],
    key: Callable[[EngineResult], tuple[float, ...] | float],
    executor: "CellExecutor | None",
) -> T:
    """The candidate whose simulated ``cell`` scores the highest ``key``
    (the first one on ties). ``executor`` (inline by default) fans the
    cells out and, with a cache attached, memoizes them; the pick is
    identical at any ``--jobs``."""
    from repro.exec import CellExecutor

    runs = (executor or CellExecutor()).run(cell(c) for c in candidates)
    best, best_key = candidates[0], None
    for cand, result in zip(candidates, runs, strict=True):
        score = key(result)
        if best_key is None or score > best_key:
            best, best_key = cand, score
    return best


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
    (throughput breaking ties), not raw throughput."""
    objective = objective or ServingObjective()
    ranked = rank_static_configs(
        model, cluster, workload, allow_dp=allow_dp, objective=objective
    )
    if simulate_top <= 1:
        return ranked[0].config
    from repro.exec import CellSpec

    options = options or EngineOptions()
    sample = workload.subset(min(sample_requests, workload.num_requests))
    return _simulated_best(
        ranked[:simulate_top],
        lambda cand: CellSpec(
            engine="vllm", model=model, cluster=cluster,
            config=cand.config.label(), options=options, workload=sample,
        ),
        objective.result_key,
        executor,
    ).config


def with_rate_hint(
    options: "SeesawOptions", objective: ServingObjective
) -> "SeesawOptions":
    """``options`` told the objective's arrival rate, unless they are
    coupled (no planned arrivals to wait for) or already carry a rate.

    The rate lets Seesaw's phase loop weigh waiting for predicted
    arrivals against re-sharding at once. Applying it twice is a no-op.
    """
    hint = objective.arrival_rate_hint
    if hint is None or options.coupled or options.arrival_rate is not None:
        return options
    return replace(options, arrival_rate=hint)


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
    for that validation. Under an ``slo`` objective a decoupled engine is
    also told the predicted arrival rate so its phase loop can weigh
    waiting against re-sharding.
    """
    objective = objective or ServingObjective()
    ranked = rank_seesaw_pairs(
        model, cluster, workload, allow_dp=allow_dp, objective=objective
    )
    best = ranked[0]
    if simulate_top > 1:
        from repro.core.options import SeesawOptions
        from repro.exec import CellSpec

        options = with_rate_hint(options or SeesawOptions(), objective)
        sample = workload.subset(min(sample_requests, workload.num_requests))
        best = _simulated_best(
            ranked[:simulate_top],
            lambda cand: CellSpec(
                engine="seesaw", model=model, cluster=cluster,
                config=cand.label(), options=options, workload=sample,
            ),
            objective.result_key,
            executor,
        )
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
    from repro.exec import CellSpec

    sample = workload.subset(min(sample_requests, workload.num_requests))
    return _simulated_best(
        candidates,
        lambda size: CellSpec(
            engine="vllm", model=model, cluster=cluster,
            config=config.label(),
            options=EngineOptions(chunked_prefill=True, chunk_size=size),
            workload=sample,
        ),
        lambda result: result.throughput_rps,
        executor,
    )


def compare_best(
    model: ModelConfig,
    cluster: ClusterSpec,
    workload: WorkloadSpec,
    *,
    options: EngineOptions | None = None,
    seesaw_options: "SeesawOptions | None" = None,
    objective: ServingObjective | None = None,
    simulate_top: int = 3,
    seed: int = 0,
    executor: "CellExecutor | None" = None,
) -> tuple[EngineResult, EngineResult]:
    """The paper's headline comparison: ``(vllm_best, seesaw)`` results.

    vLLM runs its best static configuration with a tuned chunk size,
    chunked and plain, keeping the better run by ``objective.result_key``
    (under ``slo`` a faster run that misses the SLOs must not displace a
    compliant one); Seesaw runs its best (cp, cd) pair from the same
    search. Every cell goes through ``executor`` (inline by default) in
    four batches: the static top-k, the chunk sizes, the Seesaw top-k,
    then the three full runs.
    """
    from repro.core.options import SeesawOptions
    from repro.exec import CellExecutor, CellSpec

    objective = objective or ServingObjective()
    executor = executor or CellExecutor()
    options = options or EngineOptions()
    seesaw_options = with_rate_hint(seesaw_options or SeesawOptions(), objective)
    static_cfg = best_static_config(
        model, cluster, workload, simulate_top=simulate_top, options=options,
        objective=objective, executor=executor,
    )
    chunk = tune_chunk_size(model, cluster, static_cfg, workload, executor=executor)
    cp, cd = best_seesaw_pair(
        model, cluster, workload, simulate_top=simulate_top,
        options=seesaw_options, objective=objective, executor=executor,
    )

    def cell(engine: str, config: str, opts: EngineOptions) -> CellSpec:
        return CellSpec(
            engine=engine, model=model, cluster=cluster, config=config,
            options=opts, workload=workload, seed=seed,
        )

    chunked, plain, seesaw = executor.run(
        [
            cell(
                "vllm", static_cfg.label(),
                replace(options, chunked_prefill=True, chunk_size=chunk),
            ),
            cell("vllm", static_cfg.label(), options),
            cell("seesaw", transition_label(cp, cd), seesaw_options),
        ]
    )
    if objective.result_key(plain) > objective.result_key(chunked):
        return plain, seesaw
    return chunked, seesaw
