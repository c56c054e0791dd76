"""Elastic fleet vs peak provisioning under a diurnal day-shape.

The defining production scenario for an elastic serving fleet: offered
load follows a day curve (``diurnal:`` arrivals — peak near double the
mean, trough near zero), and capacity is billed by the replica-second.
A statically provisioned fleet must hold the peak replica count for the
whole day; an autoscaled fleet rides the curve — paying the cost-model
scale-up latency (weight load over the host link + KV warmup) on every
ramp, and draining replicas into the trough.

The sweep serves the same diurnal workload three ways on the
event-coupled simulator:

- ``static-peak`` — ``max_dp`` replicas, fixed (autoscaler ``none``);
- ``threshold``   — reactive scaling on observed queue depth / idle
  fraction;
- ``predictive``  — Erlang-C right-sizing from the measured arrival rate.

and reports p99-TTFT SLO attainment, billed replica-seconds, and goodput
per replica-second. The acceptance claim (pinned by tests and CI): an
autoscaled fleet matches the peak-provisioned fleet's SLO attainment at
materially (>= 25%) fewer replica-seconds.
"""

from __future__ import annotations

from dataclasses import dataclass, replace as dc_replace

from repro.engines.base import EngineOptions
from repro.errors import ConfigurationError
from repro.hardware.cluster import ClusterSpec, make_cluster
from repro.models.config import ModelConfig
from repro.models.registry import get_model
from repro.parallel.config import ParallelConfig, parse_config
from repro.runtime.metrics import EngineResult
from repro.utils.tables import ascii_table
from repro.workloads.arrivals import diurnal_arrivals
from repro.workloads.spec import WorkloadSpec
from repro.workloads.synthetic import constant_workload

DEFAULT_AUTOSCALERS = ("threshold", "predictive")
DEFAULT_TTFT_SLO = 15.0
DEFAULT_PERIODS = 2.0  # day-curve cycles the workload spans
DEFAULT_LOAD_FRACTION = 0.5  # mean offered load vs the peak fleet's capacity


@dataclass(frozen=True)
class AutoscalePoint:
    """One fleet-provisioning mode serving the diurnal workload."""

    autoscaler: str  # "none" = the static peak-provisioned fleet
    result: EngineResult

    @property
    def replica_seconds(self) -> float:
        stats = self.result.router
        assert stats is not None
        if stats.fleet is not None:
            return stats.fleet.replica_seconds
        return stats.num_replicas * self.result.total_time

    def attainment(self, ttft_slo: float) -> float:
        assert self.result.latency is not None
        return self.result.latency.slo_attainment(ttft_slo=ttft_slo, tpot_slo=None)

    def goodput_per_replica_second(self, ttft_slo: float) -> float:
        return (
            self.attainment(ttft_slo)
            * self.result.num_requests
            / self.replica_seconds
        )


@dataclass(frozen=True)
class AutoscaleSweepResult:
    capacity_rps_per_replica: float
    mean_rate_rps: float
    period_s: float
    ttft_slo: float
    max_dp: int
    points: tuple[AutoscalePoint, ...]

    def point(self, autoscaler: str) -> AutoscalePoint:
        for p in self.points:
            if p.autoscaler == autoscaler:
                return p
        raise ConfigurationError(f"no sweep point for autoscaler {autoscaler!r}")

    @property
    def static_peak(self) -> AutoscalePoint:
        return self.point("none")

    def elastic_wins(self) -> list[AutoscalePoint]:
        """Autoscaled points matching the static peak fleet's attainment
        at >= 25% fewer replica-seconds — the acceptance claim."""
        base = self.static_peak
        base_att = base.attainment(self.ttft_slo)
        return [
            p
            for p in self.points
            if p.autoscaler != "none"
            and p.attainment(self.ttft_slo) >= base_att
            and p.replica_seconds <= 0.75 * base.replica_seconds
        ]


def run_autoscale_sweep(
    model: ModelConfig | None = None,
    cluster: ClusterSpec | None = None,
    *,
    replica_config: ParallelConfig | None = None,
    max_dp: int = 4,
    autoscalers: tuple[str, ...] = DEFAULT_AUTOSCALERS,
    ttft_slo: float = DEFAULT_TTFT_SLO,
    load_fraction: float = DEFAULT_LOAD_FRACTION,
    periods: float = DEFAULT_PERIODS,
    num_requests: int | None = None,
    prompt_len: int = 2048,
    output_len: int = 128,
    seed: int = 0,
    executor=None,
) -> AutoscaleSweepResult:
    """Serve one diurnal workload with a static peak fleet and each
    autoscaler.

    The cell is self-scaling: one replica's measured offline throughput
    sets the mean offered rate at ``load_fraction * max_dp`` replicas'
    worth, so the diurnal peak (about ``1.8x`` the mean at the default
    amplitude) needs most of ``max_dp`` while the trough idles most of
    the fleet — the regime where elasticity pays. ``num_requests``
    defaults to whatever spans ``periods`` day-curve cycles; the period
    is derived, keeping run length stable across models. ``executor``
    (inline by default) fans the capacity probe and the fleet runs over
    worker processes and the result cache; results are bit-identical at
    any ``--jobs``.
    """
    from repro.exec import CellExecutor, CellSpec

    executor = executor or CellExecutor()
    model = model or get_model("15b")
    cluster = cluster or make_cluster("A10", 8)
    replica_config = replica_config or parse_config("T2")
    if replica_config.dp != 1:
        raise ConfigurationError("replica_config is one replica; set max_dp")
    if max_dp < 2:
        raise ConfigurationError("autoscale sweep needs max_dp >= 2")
    if max_dp * replica_config.num_gpus > cluster.num_gpus:
        raise ConfigurationError(
            f"max_dp {max_dp} needs {max_dp * replica_config.num_gpus} GPUs, "
            f"cluster has {cluster.num_gpus}"
        )

    def cell(cfg, opts: EngineOptions, wl) -> CellSpec:
        return CellSpec(
            engine="vllm", model=model, cluster=cluster,
            config=cfg.label(), options=opts, workload=wl, seed=seed,
        )

    probe = constant_workload(24, prompt_len, output_len)
    (probe_res,) = executor.run([cell(replica_config, EngineOptions(), probe)])
    capacity = probe_res.throughput_rps
    mean_rate = load_fraction * max_dp * capacity
    if num_requests is None:
        num_requests = max(48, int(periods * 120))
    period_s = num_requests / mean_rate / periods
    base = constant_workload(num_requests, prompt_len, output_len)
    workload: WorkloadSpec = diurnal_arrivals(base, mean_rate, period_s, seed=seed)

    peak_config = dc_replace(replica_config, dp=max_dp)
    peak_opts = EngineOptions(router="jsq", coupled=True, ttft_slo=ttft_slo)
    elastic_opts = [
        EngineOptions(
            router="jsq",
            coupled=True,
            ttft_slo=ttft_slo,
            autoscaler=policy,
            min_dp=1,
            max_dp=max_dp,
        )
        for policy in autoscalers
    ]
    fleet_results = executor.run(
        [cell(peak_config, peak_opts, workload)]
        + [cell(replica_config, opts, workload) for opts in elastic_opts]
    )
    points = [
        AutoscalePoint(autoscaler=name, result=result)
        for name, result in zip(("none", *autoscalers), fleet_results, strict=True)
    ]
    return AutoscaleSweepResult(
        capacity_rps_per_replica=capacity,
        mean_rate_rps=mean_rate,
        period_s=period_s,
        ttft_slo=ttft_slo,
        max_dp=max_dp,
        points=tuple(points),
    )


def render_autoscale_sweep(result: AutoscaleSweepResult | None = None) -> str:
    result = result if result is not None else run_autoscale_sweep()
    base = result.static_peak
    rows = []
    for p in result.points:
        r = p.result
        lat, stats = r.latency, r.router
        assert lat is not None and stats is not None
        fleet = stats.fleet
        savings = 1.0 - p.replica_seconds / base.replica_seconds
        rows.append(
            [
                "static-peak" if p.autoscaler == "none" else p.autoscaler,
                str(fleet.peak_dp if fleet else stats.num_replicas),
                f"{fleet.mean_dp:.2f}" if fleet else f"{stats.num_replicas:.2f}",
                f"+{fleet.scale_ups}/-{fleet.scale_downs}" if fleet else "+0/-0",
                f"{lat.ttft.p99:.2f}",
                f"{p.attainment(result.ttft_slo) * 100:.0f}%",
                f"{p.replica_seconds:.1f}",
                f"{savings * 100:+.0f}%",
                f"{p.goodput_per_replica_second(result.ttft_slo):.4f}",
            ]
        )
    return ascii_table(
        [
            "fleet",
            "peak-dp",
            "mean-dp",
            "scale",
            "ttft-p99",
            "slo-att",
            "replica-s",
            "saved",
            "goodput/replica-s",
        ],
        rows,
        title=(
            f"Elastic fleet vs peak provisioning (diurnal "
            f"{result.mean_rate_rps:.2f} req/s mean, T={result.period_s:.0f}s, "
            f"ttft<={result.ttft_slo:g}s, max dp {result.max_dp})"
        ),
    )
