"""Experiment harnesses: one module per table/figure of the paper.

Every module exposes a ``run_*`` function returning a structured result and
a ``render`` helper producing the ASCII equivalent of the paper's artifact.
Request counts default to scaled-down values so the full suite runs in
seconds; pass explicit counts (or, for Fig. 10, ``full_scale=True``) for
the paper's sizes. The benchmark suite writes each rendered artifact to
``benchmarks/artifacts/``.
"""

from repro.experiments.table1_hw import run_table1, render_table1
from repro.experiments.fig1_breakdown import run_fig1, render_fig1
from repro.experiments.fig2_scheduling import run_fig2, render_fig2
from repro.experiments.fig4_disagg import run_fig4, render_fig4
from repro.experiments.fig9_datasets import run_fig9, render_fig9
from repro.experiments.fig10_e2e import run_fig10, render_fig10
from repro.experiments.fig11_a100 import run_fig11, render_fig11
from repro.experiments.fig12_breakdown import run_fig12, render_fig12
from repro.experiments.fig13_dp_ratio import run_fig13, render_fig13
from repro.experiments.fig14_bandwidth import run_fig14, render_fig14
from repro.experiments.fig15_dp_decode import run_fig15, render_fig15
from repro.experiments.latency_sweep import run_latency_sweep, render_latency_sweep
from repro.experiments.routing_sweep import run_routing_sweep, render_routing_sweep
from repro.experiments.slo_sweep import run_slo_sweep, render_slo_sweep
from repro.experiments.coupled_sweep import run_coupled_sweep, render_coupled_sweep
from repro.experiments.autoscale_sweep import (
    run_autoscale_sweep,
    render_autoscale_sweep,
)

__all__ = [
    "run_autoscale_sweep",
    "render_autoscale_sweep",
    "run_coupled_sweep",
    "render_coupled_sweep",
    "run_latency_sweep",
    "render_latency_sweep",
    "run_routing_sweep",
    "render_routing_sweep",
    "run_slo_sweep",
    "render_slo_sweep",
    "run_table1",
    "render_table1",
    "run_fig1",
    "render_fig1",
    "run_fig2",
    "render_fig2",
    "run_fig4",
    "render_fig4",
    "run_fig9",
    "render_fig9",
    "run_fig10",
    "render_fig10",
    "run_fig11",
    "render_fig11",
    "run_fig12",
    "render_fig12",
    "run_fig13",
    "render_fig13",
    "run_fig14",
    "render_fig14",
    "run_fig15",
    "render_fig15",
]
