"""Figure 9: input/output length distributions of the datasets.

Renders histogram summaries of the two samplers so their shapes can be
compared against the published densities: arxiv-summarization has long
inputs and short outputs; sharegpt has comparable input/output lengths.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.tables import ascii_table
from repro.workloads.datasets import arxiv_workload, sharegpt_workload
from repro.workloads.spec import WorkloadSpec, WorkloadStats, workload_stats


@dataclass(frozen=True)
class Fig9Result:
    stats: dict[str, WorkloadStats]
    histograms: dict[str, dict[str, np.ndarray]]
    bin_edges: np.ndarray


def run_fig9(
    num_sharegpt: int = 2000,
    num_arxiv: int = 500,
    seed: int = 9,
    max_tokens: int = 6400,
    num_bins: int = 16,
) -> Fig9Result:
    workloads: dict[str, WorkloadSpec] = {
        "arxiv-summarization": arxiv_workload(num_arxiv, seed=seed),
        "sharegpt": sharegpt_workload(num_sharegpt, seed=seed),
    }
    edges = np.linspace(0, max_tokens, num_bins + 1)
    stats = {}
    histograms: dict[str, dict[str, np.ndarray]] = {}
    for name, wl in workloads.items():
        stats[name] = workload_stats(wl)
        histograms[name] = {
            "input": np.histogram(wl.prompt_len, bins=edges, density=True)[0],
            "output": np.histogram(wl.output_len, bins=edges, density=True)[0],
        }
    return Fig9Result(stats=stats, histograms=histograms, bin_edges=edges)


def render_fig9(result: Fig9Result | None = None) -> str:
    result = result if result is not None else run_fig9()
    rows = []
    for name, s in result.stats.items():
        rows.append(
            [
                name,
                str(s.num_requests),
                f"{s.input_mean:.0f}",
                f"{s.input_p50:.0f}",
                f"{s.input_p90:.0f}",
                f"{s.output_mean:.0f}",
                f"{s.output_p50:.0f}",
                f"{s.output_p90:.0f}",
                f"{s.decode_prefill_ratio:.2f}",
            ]
        )
    return ascii_table(
        [
            "dataset",
            "n",
            "in mean",
            "in p50",
            "in p90",
            "out mean",
            "out p50",
            "out p90",
            "D:P",
        ],
        rows,
        title="Figure 9: dataset length distributions",
    )
