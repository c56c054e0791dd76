"""Attainment-vs-load: throughput-tuned vs. SLO-tuned configurations.

The paper's autotuner (and the seed's) ranks configurations by offline
throughput; this experiment quantifies what that objective costs an
*online* deployment. At each offered load the workload is stamped with
Poisson arrivals and served by two static configurations:

- the **throughput-tuned** pick (the seed objective, chosen once,
  offline — exactly what ``compare`` used to deploy), and
- the **SLO-tuned** pick: the config the SLO-constrained-goodput
  objective selects *for that offered rate* via the analytic queueing
  correction (M/M/1 wait on top of the Appendix A rates).

Reported per point: each pick's measured SLO attainment, p99 TTFT and
goodput (attainment x achieved rate). Expected shape: at low load the two
objectives agree (queueing is negligible, capacity dominates); as load
approaches the throughput pick's capacity the SLO objective trades peak
throughput for headroom/service latency and holds attainment above the
throughput pick's.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.autotuner.objective import ServingObjective
from repro.autotuner.search import rank_static_configs
from repro.engines.base import EngineOptions
from repro.hardware.cluster import ClusterSpec, make_cluster
from repro.models.config import ModelConfig
from repro.models.registry import get_model
from repro.runtime.metrics import EngineResult
from repro.utils.tables import ascii_table
from repro.workloads.arrivals import poisson_arrivals
from repro.workloads.datasets import arxiv_workload
from repro.workloads.spec import WorkloadSpec

DEFAULT_LOAD_FRACTIONS = (0.3, 0.6, 1.0)
# Calibrated to the default 34b/A10x8/arxiv cell: the throughput-tuned
# pick (D2T2P2) decodes at ~80-125 ms/token in simulation, so tpot <= 70ms
# is a target it structurally misses while the TP-heavy runner-up meets it
# at ~2/3 the capacity — the trade the SLO objective exists to make.
DEFAULT_TTFT_SLO = 8.0
DEFAULT_TPOT_SLO = 0.07


@dataclass(frozen=True)
class SLOSweepPoint:
    """Both picks' measured behaviour at one offered request rate."""

    rate_rps: float
    throughput_result: EngineResult
    slo_result: EngineResult
    throughput_attainment: float
    slo_attainment: float
    predicted_attainment: float  # the analytic estimate for the SLO pick

    @property
    def throughput_goodput_rps(self) -> float:
        return self.throughput_attainment * self.throughput_result.throughput_rps

    @property
    def slo_goodput_rps(self) -> float:
        return self.slo_attainment * self.slo_result.throughput_rps


@dataclass(frozen=True)
class SLOSweepResult:
    ttft_slo: float
    tpot_slo: float
    capacity_rps: float  # measured offline capacity of the throughput pick
    points: tuple[SLOSweepPoint, ...]

    def attainments(self, system: str) -> list[float]:
        """Attainment per rate for ``throughput`` or ``slo`` (curve data)."""
        return [getattr(p, f"{system}_attainment") for p in self.points]


def run_slo_sweep(
    model: ModelConfig | None = None,
    cluster: ClusterSpec | None = None,
    workload: WorkloadSpec | None = None,
    *,
    load_fractions: tuple[float, ...] = DEFAULT_LOAD_FRACTIONS,
    ttft_slo: float = DEFAULT_TTFT_SLO,
    tpot_slo: float = DEFAULT_TPOT_SLO,
    num_requests: int = 32,
    seed: int = 0,
    executor=None,
) -> SLOSweepResult:
    """Serve the workload at a sweep of loads under both tuning objectives.

    ``load_fractions`` are multiples of the throughput-tuned pick's own
    measured offline throughput, so the sweep brackets its saturation knee
    regardless of model/cluster scale. ``executor`` (inline by default)
    fans the capacity probe and the per-load serving runs over worker
    processes and the result cache; results are bit-identical at any
    ``--jobs``.
    """
    from repro.exec import CellExecutor, CellSpec

    executor = executor or CellExecutor()
    model = model or get_model("34b")
    cluster = cluster or make_cluster("A10", 8)
    workload = workload or arxiv_workload(num_requests, seed=seed)

    def cell(cfg, opts: EngineOptions, wl) -> CellSpec:
        return CellSpec(
            engine="vllm", model=model, cluster=cluster,
            config=cfg.label(), options=opts, workload=wl, seed=seed,
        )

    throughput_cfg = rank_static_configs(model, cluster, workload)[0].config
    (offline,) = executor.run([cell(throughput_cfg, EngineOptions(), workload)])
    capacity = offline.throughput_rps

    opts = EngineOptions(ttft_slo=ttft_slo, tpot_slo=tpot_slo)
    # The per-load picks and predictions are analytic (cheap, in-process);
    # only the serving runs go through the executor.
    prepared = []
    for frac in load_fractions:
        rate = frac * capacity
        online = poisson_arrivals(workload, rate, seed=seed)
        objective = ServingObjective(
            kind="slo", request_rate=rate, ttft_slo=ttft_slo, tpot_slo=tpot_slo
        )
        top = rank_static_configs(model, cluster, workload, objective=objective)[0]
        slo_cfg, predicted = top.config, top.predicted_attainment
        prepared.append((rate, online, slo_cfg, predicted))
    specs = []
    for _, online, slo_cfg, _ in prepared:
        specs.append(cell(throughput_cfg, opts, online))
        if slo_cfg != throughput_cfg:
            specs.append(cell(slo_cfg, opts, online))
    results = iter(executor.run(specs))
    points = []
    for rate, _, slo_cfg, predicted in prepared:
        thr_res = next(results)
        slo_res = thr_res if slo_cfg == throughput_cfg else next(results)
        points.append(
            SLOSweepPoint(
                rate_rps=rate,
                throughput_result=thr_res,
                slo_result=slo_res,
                throughput_attainment=_attainment(thr_res, ttft_slo, tpot_slo),
                slo_attainment=_attainment(slo_res, ttft_slo, tpot_slo),
                predicted_attainment=predicted,
            )
        )
    return SLOSweepResult(
        ttft_slo=ttft_slo,
        tpot_slo=tpot_slo,
        capacity_rps=capacity,
        points=tuple(points),
    )


def _attainment(result: EngineResult, ttft_slo: float, tpot_slo: float) -> float:
    assert result.latency is not None
    return result.latency.slo_attainment(ttft_slo=ttft_slo, tpot_slo=tpot_slo)


def render_slo_sweep(result: SLOSweepResult | None = None) -> str:
    result = result if result is not None else run_slo_sweep()
    rows = []
    for p in result.points:
        for name, res, att in (
            ("thr-tuned", p.throughput_result, p.throughput_attainment),
            ("slo-tuned", p.slo_result, p.slo_attainment),
        ):
            lat = res.latency
            assert lat is not None
            rows.append(
                [
                    f"{p.rate_rps:.3f}",
                    f"{name} {res.label}",
                    f"{att * 100:.0f}%",
                    f"{att * res.throughput_rps:.3f}",
                    f"{lat.ttft.p99:.2f}",
                    f"{lat.tpot.p99 * 1e3:.0f}",
                    f"{res.throughput_rps:.3f}",
                ]
            )
    return ascii_table(
        [
            "rate(r/s)",
            "system",
            "slo-att",
            "goodput(r/s)",
            "ttft-p99(s)",
            "tpot-p99(ms)",
            "req/s",
        ],
        rows,
        title=(
            f"SLO sweep (ttft<={result.ttft_slo:g}s, "
            f"tpot<={result.tpot_slo * 1e3:g}ms; "
            f"thr-tuned capacity {result.capacity_rps:.3f} req/s)"
        ),
    )
