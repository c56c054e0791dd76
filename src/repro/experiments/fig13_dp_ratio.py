"""Figure 13: throughput vs the output:input length ratio (D:P).

LLaMA2-70B on eight A10 GPUs, constant input length 3000, output length
swept. Curves: TP4PP2, TP2PP4, PP8, and Seesaw PP8->TP4PP2, normalized to
the maximum point as the paper does.

Shapes to reproduce:
- at D:P -> 0 (prefill-only), PP8 and Seesaw coincide at the top and
  TP4PP2 trails badly (all-reduce overhead);
- as D:P grows, PP8 collapses (decode weight amplification) and TP4PP2
  takes over, with a region where TP2PP4 is the best static choice;
- Seesaw is at or above every static curve across the sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.options import SeesawOptions
from repro.engines.base import EngineOptions
from repro.hardware.cluster import ClusterSpec, make_cluster
from repro.models.config import ModelConfig
from repro.models.registry import get_model
from repro.utils.tables import ascii_series
from repro.workloads.synthetic import ratio_workload

DEFAULT_RATIOS = (0.0003, 0.0033, 0.01, 0.033, 0.066, 0.1, 0.2, 0.3)
STATIC_LABELS = ("tp4pp2", "tp2pp4", "pp8")
SEESAW_LABEL = "pp8->tp4pp2"


@dataclass(frozen=True)
class Fig13Result:
    ratios: tuple[float, ...]
    # label -> throughput (req/s) per ratio
    throughput: dict[str, list[float]]

    def normalized(self) -> dict[str, list[float]]:
        vmax = max(max(v) for v in self.throughput.values())
        return {k: [x / vmax for x in v] for k, v in self.throughput.items()}

    def best_static_at(self, idx: int) -> str:
        return max(STATIC_LABELS, key=lambda k: self.throughput[k][idx])


def run_fig13(
    model: ModelConfig | None = None,
    cluster: ClusterSpec | None = None,
    *,
    ratios: Sequence[float] = DEFAULT_RATIOS,
    num_requests: int = 64,
    prompt_len: int = 3000,
    executor=None,
) -> Fig13Result:
    from repro.exec import CellExecutor, CellSpec

    model = model or get_model("70b")
    cluster = cluster or make_cluster("A10", 8)
    curves = [(label, "vllm", EngineOptions()) for label in STATIC_LABELS]
    curves.append((SEESAW_LABEL, "seesaw", SeesawOptions()))
    workloads = [
        ratio_workload(num_requests, ratio, prompt_len=prompt_len) for ratio in ratios
    ]
    runs = (executor or CellExecutor()).run(
        CellSpec(
            engine=engine, model=model, cluster=cluster, config=label,
            options=opts, workload=workload,
        )
        for workload in workloads
        for label, engine, opts in curves
    )
    throughput = {
        label: [r.throughput_rps for r in runs[i :: len(curves)]]
        for i, (label, _, _) in enumerate(curves)
    }
    return Fig13Result(ratios=tuple(ratios), throughput=throughput)


def render_fig13(result: Fig13Result | None = None) -> str:
    result = result if result is not None else run_fig13()
    norm = result.normalized()
    return ascii_series(
        "D:P",
        list(result.ratios),
        norm,
        title="Figure 13: normalized throughput vs output:input ratio "
        "(70B, 8x A10, input 3000)",
    )
