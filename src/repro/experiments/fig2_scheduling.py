"""Figure 2: scheduling policies under transition overhead.

The paper's Fig. 2 is a schematic; this experiment makes it quantitative.
The same workload runs under three policies combined with model
re-sharding:

(a) *prefill-prioritizing* — eager transitions (``eager_transitions``
    ablation): many re-shards, high transition overhead;
(b) *decode-prioritizing* — no tiered buffer (``use_cpu_buffer=False``):
    few transitions but the decode batch drains (under-utilization);
(c) *tiered buffering + transition-minimizing* — Seesaw's default: few
    transitions AND a full decode batch.

Expected ordering: (c) has the fewest transitions among eager policies and
the highest throughput of the three.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.options import SeesawOptions
from repro.hardware.cluster import ClusterSpec, make_cluster
from repro.models.config import ModelConfig
from repro.models.registry import get_model
from repro.parallel.config import ParallelConfig, parse_config, transition_label
from repro.runtime.metrics import EngineResult
from repro.utils.tables import ascii_table
from repro.workloads.datasets import sharegpt_workload
from repro.workloads.spec import WorkloadSpec


@dataclass(frozen=True)
class Fig2Result:
    policies: dict[str, EngineResult]

    @property
    def throughputs(self) -> dict[str, float]:
        return {k: r.throughput_rps for k, r in self.policies.items()}


def run_fig2(
    model: ModelConfig | None = None,
    cluster: ClusterSpec | None = None,
    workload: WorkloadSpec | None = None,
    *,
    prefill_config: ParallelConfig | None = None,
    decode_config: ParallelConfig | None = None,
    num_requests: int = 600,
    executor=None,
) -> Fig2Result:
    # 70B on A10s with several times more requests than GPU KV capacity:
    # decode-prioritizing must drain its batch to zero before the next
    # prefill wave (under-utilization), while tiered buffering keeps the
    # batch topped up from the CPU pool — the regime Fig. 2 illustrates.
    model = model or get_model("70b")
    cluster = cluster or make_cluster("A10", 8)
    workload = workload or sharegpt_workload(num_requests, seed=11)
    cp = prefill_config or parse_config("P8")
    cd = decode_config or parse_config("T4P2")

    from repro.exec import CellExecutor, CellSpec

    options = {
        "prefill-prioritizing": SeesawOptions(eager_transitions=True),
        "decode-prioritizing": SeesawOptions(use_cpu_buffer=False),
        "tiered+transition-minimizing": SeesawOptions(),
    }
    runs = (executor or CellExecutor()).run(
        CellSpec(
            engine="seesaw", model=model, cluster=cluster,
            config=transition_label(cp, cd), options=opts, workload=workload,
        )
        for opts in options.values()
    )
    policies = dict(zip(options, runs, strict=True))
    return Fig2Result(policies=policies)


def render_fig2(result: Fig2Result | None = None) -> str:
    result = result if result is not None else run_fig2()
    rows = []
    for name, r in result.policies.items():
        rows.append(
            [
                name,
                str(r.transitions),
                f"{r.throughput_rps:.4f}",
                f"{r.phase_time.get('reshard', 0.0):.1f}",
                f"{r.total_time:.1f}",
            ]
        )
    return ascii_table(
        ["policy", "transitions", "req/s", "reshard(s)", "total(s)"],
        rows,
        title="Figure 2 (quantified): scheduling policies with model re-sharding",
    )
