"""Figure 11: throughput on A100 — PCIe vs NVLink.

LLaMA2-70B on eight A100-40G GPUs, both interconnect variants, both
datasets. Shapes to reproduce:

- on PCIe, Seesaw clearly beats vLLM (the paper: +46% arxiv, +30% sharegpt);
- on NVLink the all-reduce is cheap, so the gap narrows (paper: +13% on
  sharegpt, parity on arxiv);
- Seesaw lifts the PCIe machine much closer to NVLink-level throughput
  (paper: vLLM PCIe ~60% of NVLink; Seesaw ~82-89%).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.autotuner.search import compare_best
from repro.hardware.cluster import make_cluster
from repro.models.registry import get_model
from repro.runtime.metrics import EngineResult
from repro.utils.tables import ascii_table
from repro.workloads.datasets import arxiv_workload, sharegpt_workload


@dataclass(frozen=True)
class Fig11Result:
    """results[(dataset, interconnect)] -> {'vllm': ..., 'seesaw': ...}"""

    results: dict[tuple[str, str], dict[str, EngineResult]]

    def speedup(self, dataset: str, interconnect: str) -> float:
        cell = self.results[(dataset, interconnect)]
        return cell["seesaw"].throughput_rps / cell["vllm"].throughput_rps

    def pcie_recovery(self, dataset: str, engine: str) -> float:
        """Engine's PCIe throughput as a fraction of the same engine class's
        NVLink *vLLM* throughput (the paper normalizes to vLLM+NVLink)."""
        base = self.results[(dataset, "nvlink")]["vllm"].throughput_rps
        return self.results[(dataset, "pcie")][engine].throughput_rps / base


def run_fig11(
    *,
    num_arxiv: int = 80,
    num_sharegpt: int = 160,
    simulate_top: int = 3,
    seed: int = 11,
    executor=None,
) -> Fig11Result:
    """Run every (dataset, interconnect) cell through the shared
    autotune-and-compare recipe (``executor`` is inline by default)."""
    model = get_model("70b")
    clusters = {
        "pcie": make_cluster("A100-PCIE", 8),
        "nvlink": make_cluster("A100-SXM", 8),
    }
    workloads = {
        "arxiv": arxiv_workload(num_arxiv, seed=seed),
        "sharegpt": sharegpt_workload(num_sharegpt, seed=seed),
    }
    results: dict[tuple[str, str], dict[str, EngineResult]] = {}
    for ds_name, workload in workloads.items():
        for ic_name, cluster in clusters.items():
            vllm, seesaw = compare_best(
                model, cluster, workload, simulate_top=simulate_top, seed=seed,
                executor=executor,
            )
            results[(ds_name, ic_name)] = {"vllm": vllm, "seesaw": seesaw}
    return Fig11Result(results=results)


def render_fig11(result: Fig11Result) -> str:
    rows = []
    for (dataset, ic), cell in result.results.items():
        base = result.results[(dataset, "nvlink")]["vllm"].throughput_rps
        for engine_name, r in cell.items():
            rows.append(
                [
                    dataset,
                    ic,
                    engine_name,
                    r.label,
                    f"{r.throughput_rps:.4f}",
                    f"{r.throughput_rps / base:.2f}",
                ]
            )
    return ascii_table(
        ["dataset", "link", "engine", "config", "req/s", "norm (vllm+nvlink=1)"],
        rows,
        title="Figure 11: LLaMA2-70B on 8x A100 - PCIe vs NVLink",
    )
