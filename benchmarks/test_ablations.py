"""Ablations of Seesaw's design decisions (the flags of ``SeesawOptions``).

Each benchmark flips one mechanism and reports the cost of losing it:
tiered CPU buffering, transition-minimizing scheduling, async swap overlap,
the HND KV layout, and weight-shard reuse during re-sharding.
"""

import pytest

from repro.analysis.report import comparison_table
from repro.core.engine import SeesawEngine
from repro.core.options import SeesawOptions
from repro.costmodel.transfer import KVLayout
from repro.hardware.cluster import make_cluster
from repro.models.registry import get_model
from repro.parallel.config import parse_config
from repro.workloads.datasets import sharegpt_workload

MODEL = get_model("70b")
CLUSTER = make_cluster("A10", 8)
CP, CD = parse_config("P8"), parse_config("T4P2")


@pytest.fixture(scope="module")
def workload():
    # Several times GPU KV capacity so every mechanism is exercised.
    return sharegpt_workload(300, seed=42)


def run_with(options: SeesawOptions, workload):
    return SeesawEngine(MODEL, CLUSTER, CP, CD, options).run(workload)


@pytest.fixture(scope="module")
def baseline(workload):
    return run_with(SeesawOptions(), workload)


def test_ablation_tiered_buffer(benchmark, workload, baseline, save_artifact):
    ablated = benchmark.pedantic(
        run_with,
        args=(SeesawOptions(use_cpu_buffer=False), workload),
        rounds=1,
        iterations=1,
    )
    assert baseline.throughput_rps > 1.1 * ablated.throughput_rps
    save_artifact(
        "ablation_tiered_buffer",
        comparison_table(
            {"seesaw": baseline, "no-cpu-buffer": ablated},
            title="Ablation: tiered KV cache buffering",
        ),
    )


def test_ablation_transition_minimizing(benchmark, workload, baseline, save_artifact):
    ablated = benchmark.pedantic(
        run_with,
        args=(SeesawOptions(eager_transitions=True), workload),
        rounds=1,
        iterations=1,
    )
    assert ablated.transitions > 4 * max(1, baseline.transitions)
    assert baseline.throughput_rps > 1.2 * ablated.throughput_rps
    save_artifact(
        "ablation_transition_minimizing",
        comparison_table(
            {"seesaw": baseline, "eager-transitions": ablated},
            title="Ablation: transition-minimizing scheduling",
        ),
    )


def test_ablation_async_overlap(benchmark, workload, baseline, save_artifact):
    ablated = benchmark.pedantic(
        run_with,
        args=(SeesawOptions(overlap_swap=False), workload),
        rounds=1,
        iterations=1,
    )
    assert ablated.total_time >= baseline.total_time
    save_artifact(
        "ablation_async_overlap",
        comparison_table(
            {"seesaw": baseline, "blocking-swaps": ablated},
            title="Ablation: asynchronous swap pipeline",
        ),
    )


def test_ablation_kv_layout(benchmark, workload, baseline, save_artifact):
    ablated = benchmark.pedantic(
        run_with,
        args=(SeesawOptions(kv_layout=KVLayout.NHD), workload),
        rounds=1,
        iterations=1,
    )
    assert ablated.total_time >= baseline.total_time
    save_artifact(
        "ablation_kv_layout",
        comparison_table(
            {"seesaw(HND)": baseline, "seesaw(NHD)": ablated},
            title="Ablation: bandwidth-aware KV layout",
        ),
    )


def test_ablation_weight_shard_reuse(benchmark, workload, baseline, save_artifact):
    optimized = benchmark.pedantic(
        run_with,
        args=(SeesawOptions(reuse_weight_overlap=True), workload),
        rounds=1,
        iterations=1,
    )
    assert optimized.total_time <= baseline.total_time + 1e-9
    save_artifact(
        "ablation_weight_shard_reuse",
        comparison_table(
            {"full-reload": baseline, "shard-reuse": optimized},
            title="Extension: reuse resident weight shards during re-shard",
        ),
    )
