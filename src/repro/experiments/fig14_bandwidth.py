"""Figure 14: projected throughput vs inter-connection bandwidth.

CodeLLaMA-34B, arxiv-summarization, eight A10s; the all-reduce bandwidth is
scaled from 0.1x to 50x of PCIe (the paper projects this by mutating traced
all-reduce times; we re-run the cost-model-driven engines with a scaled
fabric, which is the same operation).

Shapes to reproduce: at low bandwidth pipeline-heavy configs win; at very
high bandwidth tensor-heavy configs win; Seesaw tracks the upper envelope
across the whole sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.autotuner.search import best_seesaw_pair
from repro.core.options import SeesawOptions
from repro.engines.base import EngineOptions
from repro.hardware.cluster import ClusterSpec, make_cluster
from repro.models.config import ModelConfig
from repro.models.registry import get_model
from repro.parallel.config import transition_label
from repro.utils.tables import ascii_series
from repro.workloads.datasets import arxiv_workload
from repro.workloads.spec import WorkloadSpec

DEFAULT_SCALES = (0.1, 0.33, 1.0, 3.3, 10.0, 50.0)
STATIC_LABELS = (
    "d2t1p4",
    "d2t2p2",
    "d2t4p1",
    "d1t1p8",
    "d1t2p4",
    "d1t4p2",
    "d1t8p1",
)
SEESAW_LABEL = "d2p4->d2t4"
SEESAW_AUTO_LABEL = "seesaw(auto)"


@dataclass(frozen=True)
class Fig14Result:
    scales: tuple[float, ...]
    throughput: dict[str, list[float]]

    def normalized(self) -> dict[str, list[float]]:
        vmax = max(max(v) for v in self.throughput.values())
        return {k: [x / vmax for x in v] for k, v in self.throughput.items()}

    def best_static_at(self, idx: int) -> str:
        return max(STATIC_LABELS, key=lambda k: self.throughput[k][idx])


def run_fig14(
    model: ModelConfig | None = None,
    base_cluster: ClusterSpec | None = None,
    workload: WorkloadSpec | None = None,
    *,
    scales: Sequence[float] = DEFAULT_SCALES,
    num_requests: int = 64,
    seed: int = 14,
    executor=None,
) -> Fig14Result:
    from repro.exec import CellExecutor, CellSpec

    executor = executor or CellExecutor()
    model = model or get_model("34b")
    base_cluster = base_cluster or make_cluster("A10", 8)
    workload = workload or arxiv_workload(num_requests, seed=seed)

    curves = list(STATIC_LABELS) + [SEESAW_LABEL, SEESAW_AUTO_LABEL]
    specs = []
    for scale in scales:
        cluster = base_cluster.scaled_bandwidth(scale)
        # Seesaw's adaptive mode: re-pick the (cp, cd) pair for the fabric
        # at hand (the paper's fixed-pair curve assumes PCIe-era trade-offs;
        # re-sharding itself is what lets the engine follow the optimum —
        # including degenerating to a single config when bandwidth makes
        # stage-specific sharding unnecessary).
        cp, cd = best_seesaw_pair(
            model,
            cluster,
            workload,
            simulate_top=3,
            sample_requests=min(32, workload.num_requests),
            executor=executor,
        )
        cells = [("vllm", label, EngineOptions()) for label in STATIC_LABELS]
        cells.append(("seesaw", SEESAW_LABEL, SeesawOptions()))
        cells.append(("seesaw", transition_label(cp, cd), SeesawOptions()))
        specs.extend(
            CellSpec(
                engine=engine, model=model, cluster=cluster, config=config,
                options=opts, workload=workload,
            )
            for engine, config, opts in cells
        )
    runs = executor.run(specs)
    throughput = {
        curve: [r.throughput_rps for r in runs[i :: len(curves)]]
        for i, curve in enumerate(curves)
    }
    return Fig14Result(scales=tuple(scales), throughput=throughput)


def render_fig14(result: Fig14Result | None = None) -> str:
    result = result if result is not None else run_fig14()
    norm = result.normalized()
    return ascii_series(
        "bw x",
        list(result.scales),
        norm,
        title="Figure 14: normalized throughput vs all-reduce bandwidth "
        "(34B, arxiv, 8x A10)",
    )
