"""Figure 10: end-to-end throughput on PCIe systems (A10 and L4).

For each (GPU, model, dataset) cell the harness does what the paper's
evaluation does:

- sweep every feasible static configuration for the vLLM-like baseline
  (chunked prefill enabled, chunk size tuned) and keep the best;
- pick Seesaw's (cp, cd) pair by the same search;
- report normalized throughput with the winning labels.

The paper uses 4 GPUs for the 15B model and 8 for 34B/70B; 500 arxiv
requests and 2000 sharegpt requests (scaled down by default here — pass
``full_scale=True`` to match the paper's counts).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.autotuner.search import compare_best
from repro.hardware.cluster import make_cluster
from repro.models.registry import get_model
from repro.runtime.metrics import EngineResult
from repro.utils.stats import geomean
from repro.utils.tables import ascii_table
from repro.workloads.datasets import arxiv_workload, sharegpt_workload


@dataclass(frozen=True)
class Fig10Cell:
    """One bar pair of Fig. 10."""

    gpu: str
    model: str
    dataset: str
    vllm: EngineResult
    seesaw: EngineResult

    @property
    def speedup(self) -> float:
        return self.seesaw.throughput_rps / self.vllm.throughput_rps


@dataclass(frozen=True)
class Fig10Result:
    cells: list[Fig10Cell]

    @property
    def geomean_speedup(self) -> float:
        return geomean([c.speedup for c in self.cells])

    @property
    def max_speedup(self) -> float:
        return max(c.speedup for c in self.cells)


_MODEL_GPUS = {"15b": 4, "34b": 8, "70b": 8}


def run_fig10_cell(
    gpu: str,
    model_name: str,
    dataset: str,
    *,
    num_requests: int | None = None,
    simulate_top: int = 3,
    seed: int = 10,
    executor=None,
) -> Fig10Cell:
    """Run one (GPU, model, dataset) cell of Fig. 10 through the shared
    autotune-and-compare recipe (``executor`` is inline by default)."""
    model = get_model(model_name)
    cluster = make_cluster(gpu, _MODEL_GPUS[model_name])
    if dataset == "arxiv":
        workload = arxiv_workload(num_requests or 100, seed=seed)
    else:
        workload = sharegpt_workload(num_requests or 200, seed=seed)
    vllm, seesaw = compare_best(
        model, cluster, workload, simulate_top=simulate_top, seed=seed,
        executor=executor,
    )
    return Fig10Cell(
        gpu=gpu, model=model_name, dataset=dataset, vllm=vllm, seesaw=seesaw
    )


def run_fig10(
    gpus: tuple[str, ...] = ("A10", "L4"),
    models: tuple[str, ...] = ("15b", "34b", "70b"),
    datasets: tuple[str, ...] = ("arxiv", "sharegpt"),
    *,
    full_scale: bool = False,
    num_requests: int | None = None,
    simulate_top: int = 3,
    executor=None,
) -> Fig10Result:
    """Run the full grid. ``full_scale`` uses the paper's request counts;
    ``executor`` (inline by default) runs every cell, so ``--jobs`` and
    ``--cache`` apply."""
    cells = []
    for gpu in gpus:
        for dataset in datasets:
            n = num_requests
            if n is None:
                n = (500 if dataset == "arxiv" else 2000) if full_scale else None
            for model_name in models:
                cells.append(
                    run_fig10_cell(
                        gpu,
                        model_name,
                        dataset,
                        num_requests=n,
                        simulate_top=simulate_top,
                        executor=executor,
                    )
                )
    return Fig10Result(cells=cells)


def render_fig10(result: Fig10Result) -> str:
    rows = []
    for c in result.cells:
        rows.append(
            [
                c.gpu,
                c.dataset,
                c.model,
                c.vllm.label,
                f"{c.vllm.throughput_rps:.4f}",
                c.seesaw.label,
                f"{c.seesaw.throughput_rps:.4f}",
                f"{c.speedup:.2f}x",
            ]
        )
    table = ascii_table(
        ["gpu", "dataset", "model", "vllm cfg", "vllm rps", "seesaw cfg", "seesaw rps", "speedup"],
        rows,
        title="Figure 10: end-to-end throughput on PCIe systems",
    )
    return (
        table
        + f"\ngeomean speedup: {result.geomean_speedup:.2f}x, "
        + f"max: {result.max_speedup:.2f}x"
    )
