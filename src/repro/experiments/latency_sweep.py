"""Load-latency curves: Seesaw vs. the best static config under live traffic.

The paper evaluates offline throughput only; this experiment asks the
online question its Section 7 leaves open — what Seesaw's re-sharding
stalls cost in *latency* as the request rate grows. The same base workload
is stamped with Poisson (or bursty) arrivals at a sweep of request rates
and served by (a) the best static vLLM-style configuration and (b) the
best Seesaw (cp, cd) pair. Per rate we record TTFT/TPOT/E2E percentiles,
queue delay, and SLO attainment.

Expected shape: at low rates both systems are arrival-bound (latency flat,
throughput = offered rate); past each system's capacity the queue grows
and TTFT blows up. Seesaw's extra transitions make its TTFT knee appear at
*lower* rates than its offline throughput advantage would suggest — the
re-sharding stall sits directly on the critical path of whoever arrives
mid-decode-phase.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.autotuner.search import best_seesaw_pair, best_static_config
from repro.hardware.cluster import ClusterSpec, make_cluster
from repro.models.config import ModelConfig
from repro.models.registry import get_model
from repro.runtime.metrics import EngineResult
from repro.utils.tables import ascii_table
from repro.workloads.arrivals import make_arrivals
from repro.workloads.datasets import sharegpt_workload
from repro.workloads.spec import WorkloadSpec

DEFAULT_RATES = (0.05, 0.1, 0.2, 0.4)


@dataclass(frozen=True)
class LatencySweepPoint:
    """Both systems' results at one offered request rate."""

    rate_rps: float
    static: EngineResult
    seesaw: EngineResult


@dataclass(frozen=True)
class LatencySweepResult:
    points: tuple[LatencySweepPoint, ...]

    def ttft_p99(self, system: str) -> list[float]:
        """p99 TTFT per rate for ``static`` or ``seesaw`` (curve data)."""
        out = []
        for p in self.points:
            r = getattr(p, system)
            assert r.latency is not None
            out.append(r.latency.ttft.p99)
        return out


def run_latency_sweep(
    model: ModelConfig | None = None,
    cluster: ClusterSpec | None = None,
    workload: WorkloadSpec | None = None,
    *,
    rates: tuple[float, ...] = DEFAULT_RATES,
    arrival: str = "poisson",
    burstiness: float = 4.0,
    num_requests: int = 60,
    seed: int = 0,
    executor=None,
) -> LatencySweepResult:
    """``executor`` (a :class:`~repro.exec.CellExecutor`, inline by
    default) fans the (rate, system) cells over worker processes and the
    result cache. Results are bit-identical at any ``--jobs``."""
    from repro.core.options import SeesawOptions
    from repro.engines.base import EngineOptions
    from repro.exec import CellExecutor, CellSpec

    executor = executor or CellExecutor()
    model = model or get_model("34b")
    cluster = cluster or make_cluster("A10", 8)
    workload = workload or sharegpt_workload(num_requests, seed=seed)

    # Tune both systems once, offline, as the paper does; the sweep then
    # measures how those fixed choices behave under increasing load.
    static_cfg = best_static_config(model, cluster, workload, executor=executor)
    cp, cd = best_seesaw_pair(model, cluster, workload, executor=executor)

    specs = []
    for rate in rates:
        online = make_arrivals(
            workload, arrival, rate, burstiness=burstiness, seed=seed
        )
        specs.append(
            CellSpec(
                engine="vllm", model=model, cluster=cluster,
                config=static_cfg.label(), options=EngineOptions(),
                workload=online, seed=seed,
            )
        )
        specs.append(
            CellSpec(
                engine="seesaw", model=model, cluster=cluster,
                config=f"{cp.label()}->{cd.label()}",
                options=SeesawOptions(), workload=online, seed=seed,
            )
        )
    results = executor.run(specs)
    points = [
        LatencySweepPoint(
            rate_rps=rate, static=results[2 * i], seesaw=results[2 * i + 1]
        )
        for i, rate in enumerate(rates)
    ]
    return LatencySweepResult(points=tuple(points))


def render_latency_sweep(result: LatencySweepResult | None = None) -> str:
    result = result if result is not None else run_latency_sweep()
    rows = []
    for p in result.points:
        for name, r in (("static", p.static), ("seesaw", p.seesaw)):
            lat = r.latency
            assert lat is not None
            rows.append(
                [
                    f"{p.rate_rps:g}",
                    f"{name} {r.label}",
                    f"{r.throughput_rps:.3f}",
                    f"{lat.ttft.p50:.2f}",
                    f"{lat.ttft.p99:.2f}",
                    f"{lat.tpot.p50 * 1e3:.0f}",
                    f"{lat.tpot.p99 * 1e3:.0f}",
                    f"{lat.e2e.p99:.1f}",
                    f"{lat.queue_delay.mean:.2f}",
                    str(r.transitions),
                ]
            )
    return ascii_table(
        [
            "rate(r/s)",
            "system",
            "req/s",
            "ttft-p50",
            "ttft-p99",
            "tpot-p50(ms)",
            "tpot-p99(ms)",
            "e2e-p99",
            "queue(s)",
            "transitions",
        ],
        rows,
        title="Load-latency sweep: Seesaw vs. best static config",
    )
