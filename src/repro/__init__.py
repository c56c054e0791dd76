"""Seesaw reproduction: high-throughput LLM inference via model re-sharding.

A complete, executable reproduction of *Seesaw: High-throughput LLM
Inference via Model Re-sharding* (MLSys 2025) on a simulated multi-GPU
cluster. The package provides:

- :mod:`repro.core` — the Seesaw engine (dynamic model re-sharding, tiered
  KV cache buffering, transition-minimizing scheduling, async swap
  pipeline);
- :mod:`repro.engines` — the baselines (vLLM-like static engine with
  continuous batching and chunked prefill, decode-prioritized engine,
  DistServe-style disaggregation);
- :mod:`repro.hardware` / :mod:`repro.models` / :mod:`repro.parallel` /
  :mod:`repro.costmodel` / :mod:`repro.runtime` — the simulated substrate;
- :mod:`repro.workloads` — dataset-shaped and synthetic workloads;
- :mod:`repro.autotuner` — configuration search;
- :mod:`repro.experiments` — one harness per paper table/figure.

Quickstart::

    from repro import (
        SeesawEngine, VllmLikeEngine, make_cluster, get_model, parse_config,
        sharegpt_workload,
    )

    model = get_model("34b")
    cluster = make_cluster("A10", 8)
    workload = sharegpt_workload(200, seed=0)
    baseline = VllmLikeEngine(model, cluster, parse_config("T4P2")).run(workload)
    seesaw = SeesawEngine(
        model, cluster, parse_config("P8"), parse_config("T4P2")
    ).run(workload)
    print(seesaw.throughput_rps / baseline.throughput_rps)
"""

from repro.core import SeesawEngine, SeesawOptions
from repro.engines import (
    DecodePrioritizedEngine,
    DisaggregatedEngine,
    EngineOptions,
    RunHooks,
    VllmLikeEngine,
)
from repro.engines.disaggregated import DisaggregationPlan
from repro.hardware import ClusterSpec, GPU_REGISTRY, GPUSpec, get_gpu
from repro.hardware.cluster import make_cluster
from repro.models import MODEL_REGISTRY, ModelConfig, get_model
from repro.parallel import ParallelConfig, parse_config, parse_transition
from repro.runtime import EngineResult, Request
from repro.workloads import (
    WorkloadSpec,
    arxiv_workload,
    constant_workload,
    ratio_workload,
    sample_dataset,
    sharegpt_workload,
    uniform_workload,
)
from repro.autotuner import best_seesaw_pair, best_static_config, tune_chunk_size

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "SeesawEngine",
    "SeesawOptions",
    "VllmLikeEngine",
    "DecodePrioritizedEngine",
    "DisaggregatedEngine",
    "DisaggregationPlan",
    "EngineOptions",
    "RunHooks",
    "ClusterSpec",
    "GPUSpec",
    "GPU_REGISTRY",
    "get_gpu",
    "make_cluster",
    "ModelConfig",
    "MODEL_REGISTRY",
    "get_model",
    "ParallelConfig",
    "parse_config",
    "parse_transition",
    "EngineResult",
    "Request",
    "WorkloadSpec",
    "arxiv_workload",
    "sharegpt_workload",
    "constant_workload",
    "uniform_workload",
    "ratio_workload",
    "sample_dataset",
    "best_static_config",
    "best_seesaw_pair",
    "tune_chunk_size",
]
