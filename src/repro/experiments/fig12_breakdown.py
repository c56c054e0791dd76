"""Figure 12: speedup breakdown — how Seesaw merges both parallelisms.

CodeLLaMA-34B, arxiv-summarization, four A10 GPUs. Four runs:

- ``TP4``   (chunked prefill off): best decode, terrible prefill;
- ``PP4``   (chunked prefill off): best prefill, slow decode;
- ``P4->T4`` (Seesaw): prefill like PP4 plus decode like TP4;
- ``TP2PP2+chunked``: the best single vLLM configuration.

Each run reports end-to-end time split into prefill / mixed / decode /
other (re-shard + swap stalls), the stacked bars of the figure. Expected
shape: Seesaw's prefill segment is close to PP4's and its decode segment
close to TP4's, beating TP2PP2+chunked overall.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.autotuner.search import tune_chunk_size
from repro.core.options import SeesawOptions
from repro.engines.base import EngineOptions
from repro.hardware.cluster import make_cluster
from repro.models.registry import get_model
from repro.parallel.config import parse_config
from repro.runtime.metrics import EngineResult
from repro.utils.tables import ascii_table
from repro.workloads.datasets import arxiv_workload
from repro.workloads.spec import WorkloadSpec


@dataclass(frozen=True)
class Fig12Result:
    runs: dict[str, EngineResult]

    def other_time(self, run: str) -> float:
        r = self.runs[run]
        known = sum(
            r.phase_time.get(p, 0.0) for p in ("prefill", "mixed", "decode")
        )
        return max(0.0, r.total_time - known)


def run_fig12(
    workload: WorkloadSpec | None = None,
    *,
    num_requests: int = 120,
    seed: int = 12,
    executor=None,
) -> Fig12Result:
    model = get_model("34b")
    cluster = make_cluster("A10", 4)
    workload = workload or arxiv_workload(num_requests, seed=seed)

    from repro.exec import CellExecutor, CellSpec

    executor = executor or CellExecutor()
    chunk = tune_chunk_size(
        model, cluster, parse_config("T2P2"), workload, executor=executor
    )
    cells = {
        "tp4": ("vllm", "T4", EngineOptions()),
        "pp4": ("vllm", "P4", EngineOptions()),
        "p4->t4": ("seesaw", "P4->T4", SeesawOptions()),
        "tp2pp2+chunked": (
            "vllm", "T2P2", EngineOptions(chunked_prefill=True, chunk_size=chunk)
        ),
    }
    results = executor.run(
        CellSpec(
            engine=engine, model=model, cluster=cluster, config=config,
            options=opts, workload=workload,
        )
        for engine, config, opts in cells.values()
    )
    runs = dict(zip(cells, results, strict=True))
    return Fig12Result(runs=runs)


def render_fig12(result: Fig12Result | None = None) -> str:
    result = result if result is not None else run_fig12()
    rows = []
    for name, r in result.runs.items():
        rows.append(
            [
                name,
                f"{r.phase_time.get('prefill', 0.0):.1f}",
                f"{r.phase_time.get('mixed', 0.0):.1f}",
                f"{r.phase_time.get('decode', 0.0):.1f}",
                f"{result.other_time(name):.1f}",
                f"{r.total_time:.1f}",
            ]
        )
    return ascii_table(
        ["run", "prefill", "mix", "decode", "other", "total (s)"],
        rows,
        title="Figure 12: speedup breakdown - 34B, arxiv, 4x A10",
    )
