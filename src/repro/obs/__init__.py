"""Observability subsystem: telemetry, tracing, artifact I/O, dashboards.

Pass a :class:`Telemetry` hub to ``run()`` as ``RunHooks(telemetry=...)``
and every layer of a run — engine iteration loops, the event-coupled
cluster simulator, the elastic fleet and its autoscaler, the fluid fast
path — records fixed-interval time-series and lifecycle events into it
on the shared virtual clock. ``None`` (the default) keeps every loop on its
exact pre-telemetry instruction path.

Pass a :class:`Tracer` as ``RunHooks(tracing=...)`` (same contract)
and every request gets a span tree on the shared clock — queue wait,
dispatch, prefill, decode, preemption stalls, storm re-dispatch, fleet
warm-up, disaggregated KV handoff — plus a critical-path decomposition
of its end-to-end latency into additive segments whose conservation is
enforced as an invariant. The tracer also keeps one phase track per
replica (the ``--timeline`` schedule).
"""

from repro.obs.critical_path import (
    SEGMENT_KINDS,
    Segment,
    TailReport,
    TraceInvariantError,
    aggregate_tail,
    check_conservation,
    decompose,
)
from repro.obs.dashboard import render_dashboard, sparkline, worst_windows
from repro.obs.export import SCHEMA, load_jsonl, write_csv, write_jsonl
from repro.obs.telemetry import (
    DEFAULT_INTERVAL_S,
    DEFAULT_MAX_EVENTS,
    DEFAULT_SLO_BUDGET,
    MAX_WINDOWS,
    Counter,
    Gauge,
    Histogram,
    ReplicaProbe,
    Telemetry,
    percentiles,
)
from repro.obs.tracing import (
    SAMPLING_MODES,
    TRACE_SCHEMA,
    Link,
    PhaseSpan,
    RequestTrace,
    Span,
    TraceArtifact,
    Tracer,
    chrome_trace_events,
    load_trace_jsonl,
    parse_sampling,
    phase_segments,
    render_timeline,
    render_trace_flame,
    write_chrome_trace,
    write_trace_jsonl,
)

__all__ = [
    "SCHEMA",
    "SAMPLING_MODES",
    "SEGMENT_KINDS",
    "TRACE_SCHEMA",
    "DEFAULT_INTERVAL_S",
    "DEFAULT_MAX_EVENTS",
    "DEFAULT_SLO_BUDGET",
    "MAX_WINDOWS",
    "Counter",
    "Gauge",
    "Histogram",
    "Link",
    "PhaseSpan",
    "ReplicaProbe",
    "RequestTrace",
    "Segment",
    "Span",
    "TailReport",
    "Telemetry",
    "TraceArtifact",
    "TraceInvariantError",
    "Tracer",
    "aggregate_tail",
    "check_conservation",
    "chrome_trace_events",
    "decompose",
    "load_jsonl",
    "load_trace_jsonl",
    "parse_sampling",
    "percentiles",
    "phase_segments",
    "render_dashboard",
    "render_timeline",
    "render_trace_flame",
    "sparkline",
    "worst_windows",
    "write_chrome_trace",
    "write_csv",
    "write_jsonl",
]
