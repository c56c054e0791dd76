"""Run metrics, phase accounting and the engine result record.

Every engine produces an :class:`EngineResult`: end-to-end wall time,
request/token throughput, per-phase time (prefill / decode / mixed /
re-shard / swap stall / idle), the accumulated cost-model breakdown, and
counters (iterations, transitions, swapped tokens). The Fig. 12 speedup
breakdown and the benchmark artifacts are produced straight from these
records.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.costmodel.breakdown import Breakdown
from repro.errors import SimulationError
from repro.routing.stats import RouterStats
from repro.runtime.latency import LatencyStats


@dataclass
class PhaseTimer:
    """Accumulates wall time per engine phase."""

    phases: dict[str, float] = field(default_factory=dict)

    def add(self, phase: str, seconds: float) -> None:
        if seconds < 0:
            raise SimulationError(f"negative phase time for {phase!r}")
        self.phases[phase] = self.phases.get(phase, 0.0) + seconds

    def get(self, phase: str) -> float:
        return self.phases.get(phase, 0.0)

    @property
    def total(self) -> float:
        return sum(self.phases.values())


@dataclass
class RunMetrics:
    """Mutable counters an engine updates while it runs."""

    phase_timer: PhaseTimer = field(default_factory=PhaseTimer)
    iterations: int = 0
    transitions: int = 0
    swapped_in_tokens: int = 0
    swapped_out_tokens: int = 0
    resharded_bytes: float = 0.0
    # Preemptions this replica actually performed (recompute or swap-out);
    # the O(1) counter behind the coupled router's observed-load view.
    preemptions: int = 0
    # Breakdown components in field order, summed in place per iteration.
    _sums: list[float] = field(default_factory=lambda: [0.0] * 6)

    @property
    def breakdown(self) -> Breakdown:
        """Every iteration's breakdown added so far (read-only)."""
        return Breakdown(*self._sums)

    def add_phase(self, phase: str, seconds: float, breakdown: Breakdown | None = None) -> None:
        self.phase_timer.add(phase, seconds)
        if breakdown is not None:
            sums = self._sums
            sums[0] += breakdown.linear_dm
            sums[1] += breakdown.linear_comp
            sums[2] += breakdown.attn_dm
            sums[3] += breakdown.attn_comp
            sums[4] += breakdown.comm
            sums[5] += breakdown.overhead


@dataclass(frozen=True)
class EngineResult:
    """Immutable summary of one engine run."""

    engine: str
    label: str
    num_requests: int
    total_time: float
    input_tokens: int
    output_tokens: int
    phase_time: dict[str, float]
    breakdown: Breakdown
    iterations: int
    transitions: int
    swapped_in_tokens: int = 0
    swapped_out_tokens: int = 0
    # Per-request latency statistics (None for purely analytic results
    # that never simulated individual requests).
    latency: LatencyStats | None = None
    # Cluster-level dispatch statistics from the routing subsystem (None
    # for single-replica paths that never routed).
    router: RouterStats | None = None

    def __post_init__(self) -> None:
        if self.total_time <= 0:
            raise SimulationError("engine run must take positive time")

    @property
    def throughput_rps(self) -> float:
        """End-to-end request throughput (the paper's headline metric)."""
        return self.num_requests / self.total_time

    @property
    def throughput_tokens_per_s(self) -> float:
        """Generated-token throughput."""
        return self.output_tokens / self.total_time

    @property
    def total_tokens_per_s(self) -> float:
        """Processed-token (input+output) throughput."""
        return (self.input_tokens + self.output_tokens) / self.total_time

    def describe(self) -> str:
        phases = ", ".join(
            f"{k}={v:.1f}s" for k, v in sorted(self.phase_time.items()) if v > 0
        )
        return (
            f"{self.engine}[{self.label}]: {self.num_requests} reqs in "
            f"{self.total_time:.1f}s -> {self.throughput_rps:.3f} req/s "
            f"({self.throughput_tokens_per_s:.0f} out-tok/s; {phases})"
        )


def merge_dp_results(
    results: list[EngineResult],
    engine: str,
    label: str,
    router: RouterStats | None = None,
    total_time: float | None = None,
) -> EngineResult:
    """Combine per-replica results of a data-parallel run.

    Replicas run concurrently on disjoint request partitions, so *wall*
    quantities take the slowest replica while *work* quantities add up:

    - ``total_time`` and each ``phase_time`` entry are per-replica wall
      clocks and merge with ``max`` (phase time of the merged run is the
      longest any replica spent in that phase — replicas overlap, so
      summing would double-count wall time);
    - ``iterations``, tokens, swap counters and latency records are work
      performed and merge with ``sum``/union;
    - ``transitions`` are lock-step re-shards of the whole replica group
      (Seesaw re-shards every GPU at once), so they merge with ``max``.

    Partial-lifetime replicas (elastic fleets) merge on the same rules:
    every per-replica clock lives on the shared cluster clock, so a
    replica born late or drained early contributes only the phases of
    its own window, and its latency records join the union unchanged.
    The one quantity the replicas cannot answer is the run's end —
    a drained replica's clock stops when *its* work stops — so callers
    that know the cluster makespan pass it as ``total_time`` (defaults
    to the slowest replica, the full-lifetime behaviour).

    ``router`` is the cluster-level dispatch record of the run that
    produced these partitions; it is attached as-is (routing happens once,
    above the replicas, so there is nothing per-replica to merge).
    """
    if not results:
        raise SimulationError("no replica results to merge")
    if total_time is None:
        total_time = max(r.total_time for r in results)
    phase: dict[str, float] = {}
    for r in results:
        for k, v in r.phase_time.items():
            phase[k] = max(phase.get(k, 0.0), v)
    bd = results[0].breakdown
    for r in results[1:]:
        bd = bd + r.breakdown
    latencies = [r.latency for r in results if r.latency is not None]
    return EngineResult(
        engine=engine,
        label=label,
        num_requests=sum(r.num_requests for r in results),
        total_time=total_time,
        input_tokens=sum(r.input_tokens for r in results),
        output_tokens=sum(r.output_tokens for r in results),
        phase_time=phase,
        breakdown=bd,
        iterations=sum(r.iterations for r in results),
        transitions=max(r.transitions for r in results),
        swapped_in_tokens=sum(r.swapped_in_tokens for r in results),
        swapped_out_tokens=sum(r.swapped_out_tokens for r in results),
        latency=LatencyStats.merged(latencies) if latencies else None,
        router=router,
    )
