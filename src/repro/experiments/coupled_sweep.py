"""Planned vs. observed routing: what event-coupling is worth.

The decoupled router (PR 2/3) commits every dispatch against a
*predicted* per-replica load ledger before any replica simulates; the
event-coupled simulator (:mod:`repro.cluster`) interleaves dispatch into
the shared-clock event loop, so every decision sees the replicas'
**observed** state — actual queue depths, KV headroom, and measured
preemptions. This experiment quantifies the difference: the same bursty
workload is served by the same dispatch policies (``jsq``, ``slo``) in
both modes at a sweep of offered loads, reporting p99 TTFT and TTFT-SLO
attainment.

The default cell is engineered to make planning hard: a bimodal workload
(long prompts with sizable outputs) on a KV-tight data-parallel
configuration, with strongly bursty arrivals around the saturation knee.
A burst of long requests overcommits one replica's KV and triggers real
evictions — which only the coupled router can see and route around
(the decoupled ledger drains on analytic rates and predicts none of it).
Expected shape: below the knee the two modes are close (planning is easy
when queues stay shallow); at and above it, observed-load dispatch holds
p99 TTFT and attainment above its planned counterpart.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.report import router_observability_cells
from repro.engines.base import EngineOptions
from repro.errors import ConfigurationError
from repro.hardware.cluster import ClusterSpec, make_cluster
from repro.models.config import ModelConfig
from repro.models.registry import get_model
from repro.parallel.config import ParallelConfig, parse_config
from repro.runtime.metrics import EngineResult
from repro.utils.tables import ascii_table
from repro.workloads.arrivals import bursty_arrivals
from repro.workloads.spec import WorkloadSpec
from repro.workloads.synthetic import bimodal_workload

DEFAULT_POLICIES = ("jsq", "slo")
DEFAULT_LOAD_FRACTIONS = (0.8, 1.1)
DEFAULT_BURSTINESS = 10.0
DEFAULT_TTFT_SLO = 25.0


@dataclass(frozen=True)
class CoupledSweepPoint:
    """One (load, policy, mode) cell of the sweep."""

    rate_rps: float
    load_fraction: float
    policy: str
    coupled: bool
    result: EngineResult

    @property
    def ttft_p99(self) -> float:
        assert self.result.latency is not None
        return self.result.latency.ttft.p99

    def attainment(self, ttft_slo: float) -> float:
        assert self.result.latency is not None
        return self.result.latency.slo_attainment(ttft_slo=ttft_slo, tpot_slo=None)


@dataclass(frozen=True)
class CoupledSweepResult:
    capacity_rps: float  # measured offline throughput of the config
    burstiness: float
    ttft_slo: float
    points: tuple[CoupledSweepPoint, ...]

    def point(
        self, load_fraction: float, policy: str, coupled: bool
    ) -> CoupledSweepPoint:
        for p in self.points:
            if (
                p.load_fraction == load_fraction
                and p.policy == policy
                and p.coupled == coupled
            ):
                return p
        raise ConfigurationError(
            f"no sweep point ({load_fraction}, {policy}, coupled={coupled})"
        )

    def observed_wins(self) -> list[CoupledSweepPoint]:
        """Coupled points beating their decoupled counterpart on p99 TTFT
        or SLO attainment — the fidelity gap this sweep measures."""
        wins = []
        for p in self.points:
            if not p.coupled:
                continue
            base = self.point(p.load_fraction, p.policy, coupled=False)
            if p.ttft_p99 < base.ttft_p99 or p.attainment(self.ttft_slo) > base.attainment(
                self.ttft_slo
            ):
                wins.append(p)
        return wins


def run_coupled_sweep(
    model: ModelConfig | None = None,
    cluster: ClusterSpec | None = None,
    workload: WorkloadSpec | None = None,
    *,
    config: ParallelConfig | None = None,
    policies: tuple[str, ...] = DEFAULT_POLICIES,
    load_fractions: tuple[float, ...] = DEFAULT_LOAD_FRACTIONS,
    burstiness: float = DEFAULT_BURSTINESS,
    ttft_slo: float = DEFAULT_TTFT_SLO,
    num_requests: int = 40,
    seed: int = 0,
    executor=None,
) -> CoupledSweepResult:
    """Serve one bursty workload under every (load, policy, mode) cell.

    ``load_fractions`` are multiples of the configuration's own measured
    offline throughput, bracketing the saturation knee regardless of
    model/cluster scale. ``executor`` (inline by default) fans the
    capacity probe and the sweep cells over worker processes and the
    result cache; results are bit-identical at any ``--jobs``.
    """
    from repro.exec import CellExecutor, CellSpec

    executor = executor or CellExecutor()
    model = model or get_model("13b")
    cluster = cluster or make_cluster("A10", 8)
    config = config or parse_config("D4T2")
    workload = workload or bimodal_workload(
        num_requests, long_prompt=6144, short_prompt=512, output_len=768
    )
    if config.dp < 2:
        raise ConfigurationError("coupled sweep needs a data-parallel config")

    def cell(opts: EngineOptions, wl) -> CellSpec:
        return CellSpec(
            engine="vllm", model=model, cluster=cluster,
            config=config.label(), options=opts, workload=wl, seed=seed,
        )

    (offline,) = executor.run([cell(EngineOptions(), workload)])
    capacity = offline.throughput_rps
    cells = [
        (frac, frac * capacity, policy, coupled, online)
        for frac in load_fractions
        for online in (
            bursty_arrivals(
                workload, frac * capacity, burstiness=burstiness, seed=seed
            ),
        )
        for policy in policies
        for coupled in (False, True)
    ]
    results = executor.run(
        cell(
            EngineOptions(
                router=policy,
                router_seed=seed,
                ttft_slo=ttft_slo,
                coupled=coupled,
            ),
            online,
        )
        for _, _, policy, coupled, online in cells
    )
    points = [
        CoupledSweepPoint(
            rate_rps=rate,
            load_fraction=frac,
            policy=policy,
            coupled=coupled,
            result=result,
        )
        for (frac, rate, policy, coupled, _), result in zip(
            cells, results, strict=True
        )
    ]
    return CoupledSweepResult(
        capacity_rps=capacity,
        burstiness=burstiness,
        ttft_slo=ttft_slo,
        points=tuple(points),
    )


def render_coupled_sweep(result: CoupledSweepResult | None = None) -> str:
    result = result if result is not None else run_coupled_sweep()
    rows = []
    for p in result.points:
        r = p.result
        lat, stats = r.latency, r.router
        assert lat is not None and stats is not None
        preempt, moved, idle = router_observability_cells(stats)
        rows.append(
            [
                f"{p.load_fraction:g}x",
                p.policy,
                "coupled" if p.coupled else "planned",
                f"{r.throughput_rps:.3f}",
                f"{lat.ttft.p50:.2f}",
                f"{p.ttft_p99:.2f}",
                f"{p.attainment(result.ttft_slo) * 100:.0f}%",
                preempt,
                moved,
                idle,
            ]
        )
    return ascii_table(
        [
            "load",
            "policy",
            "mode",
            "req/s",
            "ttft-p50",
            "ttft-p99",
            "slo-att",
            "preempt",
            "moved",
            "idle",
        ],
        rows,
        title=(
            f"Planned vs observed routing (capacity {result.capacity_rps:.2f} "
            f"req/s, bursty cv2={result.burstiness:g}, "
            f"ttft<={result.ttft_slo:g}s)"
        ),
    )
