"""Command-line interface: ``python -m repro <command>``.

Commands:

- ``run``      — run one engine on one workload and print the summary.
- ``compare``  — vLLM-best vs Seesaw-best on a (gpu, model, dataset) cell.
- ``sweep``    — throughput of every feasible static config plus Seesaw.
- ``reproduce``— regenerate a named paper artifact (fig1, fig4, ...).
- ``predict``  — analytic rates for a configuration (no simulation).
- ``obs``      — render the telemetry dashboard from a JSONL artifact or
  a live (re-)run with telemetry enabled (``--follow`` tails a growing
  artifact).
- ``trace``    — per-request critical-path report from a repro-trace-v1
  artifact or a live run with tracing enabled.

All commands are deterministic given ``--seed``.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Sequence

from repro.analysis.report import (
    comparison_table,
    fleet_table,
    latency_table,
    routing_table,
    telemetry_table,
)
from repro.autotuner.objective import OBJECTIVES, ServingObjective
from repro.cluster.autoscaler import AUTOSCALER_POLICIES
from repro.autotuner.search import (
    best_seesaw_pair,
    best_static_config,
    rank_static_configs,
    tune_chunk_size,
)
from repro.core.engine import SeesawEngine
from repro.engines.base import EngineOptions
from repro.engines.vllm_like import VllmLikeEngine
from repro.errors import ConfigurationError, ReproError
from repro.hardware.cluster import make_cluster
from repro.models.registry import get_model
from repro.parallel.config import parse_config, parse_transition
from repro.routing import ROUTER_POLICIES
from repro.runtime.metrics import EngineResult
from repro.runtime.trace import render_timeline
from repro.workloads.arrivals import (
    ARRIVAL_KINDS,
    DIURNAL_PREFIX,
    TRACE_PREFIX,
    make_arrivals,
    offered_rate,
)
from repro.workloads.datasets import sample_dataset
from repro.workloads.synthetic import constant_workload


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--model", default="34b", help="model name or alias (default 34b)")
    parser.add_argument("--gpu", default="A10", help="GPU model (default A10)")
    parser.add_argument("--num-gpus", type=int, default=8)
    parser.add_argument(
        "--dataset",
        default="sharegpt",
        help="sharegpt | arxiv | const:<prompt>x<output>",
    )
    parser.add_argument("--num-requests", type=int, default=200)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--request-rate",
        type=float,
        default=0.0,
        help="offered request rate in req/s; 0 (default) runs offline "
        "with every request available at t=0",
    )
    parser.add_argument(
        "--arrival",
        type=_arrival_kind,
        default="poisson",
        help="arrival process used when --request-rate > 0 "
        f"({' | '.join(ARRIVAL_KINDS)}), {DIURNAL_PREFIX}<period-seconds> "
        "for a sinusoidal day-shape at the mean --request-rate, or "
        f"{TRACE_PREFIX}<path> to replay a JSON/CSV timestamp log (at its "
        "recorded rate, or rescaled to --request-rate when set)",
    )
    parser.add_argument(
        "--burstiness",
        type=float,
        default=None,
        help="squared coefficient of variation of bursty inter-arrival "
        "gaps (1.0 = Poisson); with --arrival bursty it defaults to 4.0, "
        f"and with --arrival {DIURNAL_PREFIX}<period> it picks the base "
        "process under the day-shape (default 1.0, Poisson gaps)",
    )
    parser.add_argument(
        "--router",
        choices=list(ROUTER_POLICIES),
        default="static",
        help="multi-replica dispatch policy (default static, the seed's "
        "round-robin t=0 deal; jsq / least-work / po2 dispatch at arrival "
        "time against tracked replica load; slo routes to the replica "
        "with the best predicted attainment)",
    )
    parser.add_argument(
        "--coupled",
        action="store_true",
        help="event-coupled cluster simulation: run all DP replicas on one "
        "shared clock and dispatch each arrival against their observed "
        "load (actual queues, measured preemptions) instead of the "
        "predicted load ledger",
    )
    parser.add_argument(
        "--autoscaler",
        default="none",
        help="elastic-fleet scaling policy on the coupled path "
        f"({' | '.join(AUTOSCALER_POLICIES)}); threshold scales on "
        "observed queue depth / idle fraction, predictive right-sizes "
        "with the serving objective's Erlang-C wait; scale-ups pay the "
        "cost-model provisioning latency (weight load + KV warmup) and "
        "scale-downs drain (default none: fixed fleet)",
    )
    parser.add_argument(
        "--fidelity",
        choices=["event", "fluid", "auto"],
        default="event",
        help="coupled-simulation fidelity: event (default) replays every "
        "iteration on the shared clock; fluid solves a calibrated "
        "mean-field model per dispatch (~100x faster, p99-TTFT within "
        "the calibrated tolerance, no preemption storms); auto picks "
        "fluid above a work-volume threshold",
    )
    parser.add_argument(
        "--min-dp",
        type=int,
        default=None,
        help="floor on the autoscaled replica count (default 1)",
    )
    parser.add_argument(
        "--max-dp",
        type=int,
        default=None,
        help="ceiling on the autoscaled replica count (default: as many "
        "replicas as the cluster's GPUs can hold)",
    )
    parser.add_argument(
        "--ttft-slo",
        type=float,
        default=None,
        help="TTFT service-level objective in seconds; enables the SLO "
        "attainment column and feeds SLO-aware tuning/routing",
    )
    parser.add_argument(
        "--tpot-slo",
        type=float,
        default=None,
        help="TPOT service-level objective in seconds per output token "
        "(e.g. 0.1 = 100 ms/token)",
    )
    parser.add_argument(
        "--objective",
        choices=list(OBJECTIVES),
        default="throughput",
        help="autotuner ranking target: throughput (default, the paper's "
        "offline metric) or slo (SLO-constrained goodput at the offered "
        "--request-rate, with simulated re-ranking by attainment)",
    )
    parser.add_argument(
        "--sanitize",
        action="store_true",
        help="run the shared-clock invariant sanitizer (simsan) alongside "
        "the simulation: per-replica/cluster clock monotonicity, event "
        "causality, token conservation, KV balance, request identity and "
        "fleet lifecycle legality (on the fluid fidelity, the analog "
        "conservation laws over the mean-field accumulators); needs "
        "--coupled, and any violation aborts the run with the rule id",
    )


def _add_engine_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--config",
        default="T4P2",
        help="static label (T4P2) or Seesaw transition (P8->T4P2)",
    )
    parser.add_argument("--chunked", action="store_true", help="chunked prefill")
    parser.add_argument("--chunk-size", type=int, default=2048)


def _add_telemetry_flags(parser: argparse.ArgumentParser) -> None:
    from repro.obs.telemetry import DEFAULT_INTERVAL_S

    parser.add_argument(
        "--telemetry",
        action="store_true",
        help="record windowed time-series telemetry (per-replica queues, "
        "KV utilization, fleet membership, SLO burn rate) on the virtual "
        "clock; off by default — the instrumented loops stay bit-exact "
        "with telemetry disabled",
    )
    parser.add_argument(
        "--telemetry-interval",
        type=float,
        default=DEFAULT_INTERVAL_S,
        help="sampling interval in virtual seconds (default "
        f"{DEFAULT_INTERVAL_S:g})",
    )
    parser.add_argument(
        "--telemetry-out",
        default=None,
        metavar="PATH",
        help="write the recorded telemetry to PATH (JSONL, or CSV when "
        "PATH ends in .csv); implies --telemetry",
    )


def _add_tracing_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--tracing",
        default=None,
        metavar="MODE",
        help="record per-request span trees with critical-path latency "
        "attribution on the virtual clock; MODE selects which requests "
        "keep a trace: all | slo_miss (only SLO violators; needs "
        "--ttft-slo and/or --tpot-slo) | p99_exemplars (the worst 1% by "
        "e2e) | rate:<f> (deterministic f-fraction sample). Off by "
        "default — the instrumented loops stay bit-exact without it",
    )
    parser.add_argument(
        "--trace-out",
        default=None,
        metavar="PATH",
        help="write the recorded traces to PATH as repro-trace-v1 JSONL; "
        "implies --tracing all unless --tracing is given",
    )
    parser.add_argument(
        "--trace-chrome",
        default=None,
        metavar="PATH",
        help="also export the traces as Chrome trace-event JSON (load in "
        "Perfetto / chrome://tracing); implies --tracing all unless "
        "--tracing is given",
    )


def _add_exec_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="fan independent simulation cells over N worker processes; "
        "results merge in submission order, so the report is "
        "byte-identical to --jobs 1 (the default, which keeps the exact "
        "zero-overhead in-process path)",
    )
    parser.add_argument(
        "--cache",
        action="store_true",
        help="memoize cell results in the content-addressed on-disk "
        "cache (~/.cache/repro; key = canonical cell spec + code-version "
        "salt, so any source change invalidates every entry); repeated "
        "cells across sweeps and re-runs are served from disk",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="cache under DIR instead of ~/.cache/repro (implies --cache)",
    )


def _make_executor(args: argparse.Namespace):
    """The :class:`~repro.exec.CellExecutor` the exec flags describe
    (inline and uncached at ``--jobs 1`` without ``--cache``)."""
    jobs = getattr(args, "jobs", 1)
    want_cache = getattr(args, "cache", False) or getattr(args, "cache_dir", None)
    if getattr(args, "sanitize", False) and (jobs > 1 or want_cache):
        raise ConfigurationError(
            "--sanitize is incompatible with --jobs > 1 / --cache: the "
            "sanitizer is a process-local hook whose checks cannot cross "
            "a worker boundary or be replayed from a cache entry; drop "
            "--sanitize or run with --jobs 1 and no cache"
        )
    from repro.exec import CellExecutor, ResultCache

    cache = None
    if want_cache:
        cache = ResultCache(root=getattr(args, "cache_dir", None))
    return CellExecutor(jobs=jobs, cache=cache)


def _report_cache(executor) -> None:
    """One stderr line of cache effectiveness (stderr keeps stdout
    byte-identical with and without a cache)."""
    cache = executor.cache
    if cache is None:
        return
    print(
        f"cache: {cache.hits} hit(s), {cache.misses} miss(es) under "
        f"{cache.root}",
        file=sys.stderr,
    )


def _arrival_kind(value: str) -> str:
    """argparse type for --arrival: a named process, diurnal:<period> or
    trace:<path>."""
    if (
        value in ARRIVAL_KINDS
        or value.startswith(TRACE_PREFIX)
        or value.startswith(DIURNAL_PREFIX)
    ):
        return value
    raise argparse.ArgumentTypeError(
        f"must be one of {', '.join(ARRIVAL_KINDS)}, "
        f"{DIURNAL_PREFIX}<period> or {TRACE_PREFIX}<path>"
    )


def _make_workload(args: argparse.Namespace):
    if args.dataset.startswith("const:"):
        spec = args.dataset.split(":", 1)[1]
        try:
            prompt, output = (int(x) for x in spec.lower().split("x"))
        except ValueError:
            raise ReproError(
                f"malformed constant dataset spec {args.dataset!r}: expected "
                "const:<prompt>x<output> with integer lengths, e.g. const:2000x200"
            ) from None
        workload = constant_workload(args.num_requests, prompt, output)
    else:
        workload = sample_dataset(
            args.dataset, num_requests=args.num_requests, seed=args.seed
        )
    if not math.isfinite(args.request_rate) or args.request_rate < 0:
        raise ConfigurationError(
            f"--request-rate must be >= 0 (got {args.request_rate:g}); "
            "0 runs offline with every request at t=0"
        )
    if args.arrival.startswith(DIURNAL_PREFIX) and args.request_rate <= 0:
        raise ConfigurationError(
            f"--arrival {args.arrival} needs --request-rate > 0 (the "
            "day-shape modulates the mean offered rate)"
        )
    if (
        getattr(args, "autoscaler", "none") != "none"
        and args.request_rate <= 0
        and not args.arrival.startswith(TRACE_PREFIX)
    ):
        raise ConfigurationError(
            f"--autoscaler {args.autoscaler} needs an online workload: pass "
            "--request-rate > 0 (or an arrival trace) — an offline t=0 "
            "burst has no arrival process to scale against"
        )
    if args.arrival.startswith(TRACE_PREFIX):
        workload = make_arrivals(workload, args.arrival, args.request_rate)
    elif args.request_rate > 0:
        burstiness = args.burstiness
        if burstiness is None:
            # Bursty traffic defaults to the heavy cv2=4 regime; every
            # other process (diurnal's base included) defaults to
            # memoryless gaps unless the flag is set explicitly.
            burstiness = 4.0 if args.arrival == "bursty" else 1.0
        workload = make_arrivals(
            workload,
            args.arrival,
            args.request_rate,
            burstiness=burstiness,
            seed=args.seed,
        )
    return workload


def _offered(args: argparse.Namespace, workload) -> float:
    """Offered request rate of the run (trace replays measure their own).

    A degenerate trace (single timestamp, zero span) has no measurable
    rate; it is treated as offline (0.0) rather than an error so plain
    trace replays keep working without SLO flags.
    """
    if args.arrival.startswith(TRACE_PREFIX):
        try:
            return offered_rate(workload)
        except ReproError:
            return 0.0
    return args.request_rate


def _serving_objective(args: argparse.Namespace, workload) -> ServingObjective:
    """The autotuner objective the CLI flags describe."""
    return ServingObjective(
        kind=args.objective,
        request_rate=_offered(args, workload),
        ttft_slo=args.ttft_slo,
        tpot_slo=args.tpot_slo,
    )


def _print_result(
    result: EngineResult,
    ttft_slo: float | None = None,
    tpot_slo: float | None = None,
) -> None:
    print(result.describe())
    if result.latency is not None:
        print(f"latency: {result.latency.describe()}")
    if result.router is not None and result.router.num_replicas > 1:
        print(f"routing: {result.router.describe()}")
    if result.router is not None and result.router.fleet is not None:
        print(f"fleet: {result.router.fleet.describe()}")
        print()
        print(
            fleet_table(
                {result.label: result},
                title="elastic fleet",
                ttft_slo=ttft_slo,
                tpot_slo=tpot_slo,
            )
        )
    print(comparison_table({result.label: result}))
    if (ttft_slo is not None or tpot_slo is not None) and result.latency is not None:
        print()
        print(
            latency_table(
                {result.label: result},
                title="latency vs SLO",
                ttft_slo=ttft_slo,
                tpot_slo=tpot_slo,
            )
        )


def _make_sanitizer(args: argparse.Namespace):
    """The simsan instance ``--sanitize`` asks for, or ``None`` (the
    default — the bit-exact uninstrumented path)."""
    if not getattr(args, "sanitize", False):
        return None
    from repro.check import Sanitizer

    return Sanitizer()


def _make_telemetry(args: argparse.Namespace):
    """The telemetry hub the CLI flags ask for, or ``None`` (the default —
    the zero-overhead path)."""
    if not (getattr(args, "telemetry", False) or getattr(args, "telemetry_out", None)):
        return None
    from repro.obs import Telemetry

    return Telemetry(interval_s=args.telemetry_interval)


def _make_tracer(args: argparse.Namespace):
    """The request tracer the CLI flags ask for, or ``None`` (the default
    — the zero-overhead path). ``--trace-out``/``--trace-chrome`` imply
    ``--tracing all``."""
    sampling = getattr(args, "tracing", None)
    if sampling is None:
        if not (
            getattr(args, "trace_out", None) or getattr(args, "trace_chrome", None)
        ):
            return None
        sampling = "all"
    from repro.obs import Tracer, parse_sampling

    mode, _ = parse_sampling(sampling)  # validates the mode early
    if mode == "slo_miss" and args.ttft_slo is None and args.tpot_slo is None:
        raise ConfigurationError(
            "--tracing slo_miss needs --ttft-slo and/or --tpot-slo: an SLO "
            "miss is only defined against a configured SLO"
        )
    return Tracer(sampling)


def _report_traces(tracer, args: argparse.Namespace) -> None:
    """Post-run trace reporting/export shared by run and trace --live."""
    from repro.analysis.report import critical_path_table
    from repro.obs import aggregate_tail, write_chrome_trace, write_trace_jsonl

    traces = tracer.traces
    print()
    if not traces:
        print(
            f"tracing: 0 of {tracer.num_requests} requests sampled "
            f"(mode {tracer.sampling})"
        )
    else:
        print(
            f"tracing: {len(traces)} of {tracer.num_requests} requests "
            f"traced (mode {tracer.sampling})"
        )
        report = aggregate_tail(traces, percentile=99.0)
        print(critical_path_table(report, title="critical path (p99 tail)"))
    if getattr(args, "trace_out", None):
        n = write_trace_jsonl(tracer, args.trace_out)
        print(f"{n} traces written to {args.trace_out}")
    if getattr(args, "trace_chrome", None):
        n = write_chrome_trace(traces, args.trace_chrome)
        print(f"chrome trace ({n} events) written to {args.trace_chrome}")


def _export_telemetry(tel, path: str) -> None:
    from repro.obs import write_csv, write_jsonl

    if path.endswith(".csv"):
        write_csv(tel, path)
    else:
        write_jsonl(tel, path)
    print(f"telemetry written to {path}")


def _build_engine(
    args: argparse.Namespace,
    objective: ServingObjective,
    telemetry=None,
    tracer=None,
):
    """One engine from the shared run/obs flag set (static or transition)."""
    model = get_model(args.model)
    cluster = make_cluster(args.gpu, args.num_gpus)
    common = {
        "chunk_size": args.chunk_size,
        "trace": getattr(args, "timeline", False),
        "router": args.router,
        "router_seed": args.seed,
        "ttft_slo": args.ttft_slo,
        "tpot_slo": args.tpot_slo,
        "coupled": args.coupled,
        "fidelity": args.fidelity,
        "autoscaler": args.autoscaler,
        "min_dp": args.min_dp,
        "max_dp": args.max_dp,
        "telemetry": telemetry,
        "tracing": tracer,
        "sanitize": _make_sanitizer(args),
    }
    if "->" in args.config:
        from repro.core.options import SeesawOptions

        cp, cd = parse_transition(args.config)
        seesaw_opts = SeesawOptions(
            chunked_prefill=False,
            # The SLO objective lets Seesaw's phase loop weigh waiting for
            # predicted arrivals against re-sharding immediately.
            arrival_rate=objective.arrival_rate_hint,
            **common,
        )
        return SeesawEngine(model, cluster, cp, cd, seesaw_opts)
    options = EngineOptions(chunked_prefill=args.chunked, **common)
    return VllmLikeEngine(model, cluster, parse_config(args.config), options)


def cmd_run(args: argparse.Namespace) -> int:
    workload = _make_workload(args)
    objective = _serving_objective(args, workload)
    tel = _make_telemetry(args)
    tracer = _make_tracer(args)
    engine = _build_engine(args, objective, telemetry=tel, tracer=tracer)
    result = engine.run(workload)
    _print_result(result, ttft_slo=args.ttft_slo, tpot_slo=args.tpot_slo)
    san = engine.options.sanitize
    if san is not None:
        print(f"sanitizer: {san.describe()}")
    if tel is not None:
        print()
        print(telemetry_table(tel, title="telemetry"))
        if args.telemetry_out:
            _export_telemetry(tel, args.telemetry_out)
    if tracer is not None:
        _report_traces(tracer, args)
    if args.timeline and engine.last_trace.enabled:
        print()
        print(render_timeline(engine.last_trace))
    return 0


def _obs_follow(args: argparse.Namespace) -> int:
    """Tail a growing telemetry JSONL: re-render the dashboard every
    ``--poll`` seconds until interrupted (``--once`` renders one frame
    and exits — the CI escape hatch)."""
    import time

    from repro.obs import load_jsonl, render_dashboard

    if args.artifact is None:
        raise ConfigurationError(
            "repro obs --follow needs a JSONL artifact path to tail (the "
            "file a concurrent run is writing with --telemetry-out)"
        )
    try:
        while True:
            try:
                tel = load_jsonl(args.artifact)
                frame = render_dashboard(tel, width=args.width, top=args.top)
            except (ReproError, OSError) as exc:
                frame = f"waiting for {args.artifact}: {exc}\n"
            if not args.once:
                # ANSI clear + home keeps the dashboard in place like
                # watch(1) instead of scrolling a frame per poll.
                sys.stdout.write("\x1b[2J\x1b[H")
            sys.stdout.write(frame)
            sys.stdout.flush()
            if args.once:
                return 0
            time.sleep(args.poll)
    except KeyboardInterrupt:
        return 0


def cmd_obs(args: argparse.Namespace) -> int:
    from repro.obs import load_jsonl, render_dashboard

    if args.follow or args.once:
        return _obs_follow(args)
    if args.artifact is not None:
        tel = load_jsonl(args.artifact)
    elif args.live:
        from repro.obs import Telemetry

        workload = _make_workload(args)
        objective = _serving_objective(args, workload)
        tel = Telemetry(interval_s=args.telemetry_interval)
        engine = _build_engine(args, objective, telemetry=tel)
        engine.run(workload)
        if args.telemetry_out:
            _export_telemetry(tel, args.telemetry_out)
    else:
        raise ConfigurationError(
            "repro obs needs a JSONL artifact path (from a run with "
            "--telemetry-out) or --live to simulate one now"
        )
    print(render_dashboard(tel, width=args.width, top=args.top), end="")
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    from repro.analysis.report import critical_path_table
    from repro.obs import (
        aggregate_tail,
        load_trace_jsonl,
        render_trace_flame,
        write_chrome_trace,
    )

    if args.artifact is not None:
        artifact = load_trace_jsonl(args.artifact)
        traces = artifact.traces
        sampling = artifact.sampling
        num_requests = artifact.num_requests
        dropped = artifact.dropped_requests
    elif args.live:
        workload = _make_workload(args)
        objective = _serving_objective(args, workload)
        tracer = _make_tracer(args)
        if tracer is None:
            from repro.obs import Tracer

            tracer = Tracer("all")
        engine = _build_engine(args, objective, tracer=tracer)
        engine.run(workload)
        if args.trace_out:
            from repro.obs import write_trace_jsonl

            n = write_trace_jsonl(tracer, args.trace_out)
            print(f"{n} traces written to {args.trace_out}")
        traces = tracer.traces
        sampling = tracer.sampling
        num_requests = tracer.num_requests
        dropped = tracer.dropped_requests
    else:
        raise ConfigurationError(
            "repro trace needs a repro-trace-v1 JSONL artifact path (from a "
            "run with --trace-out) or --live to simulate one now"
        )
    line = (
        f"{len(traces)} of {num_requests} requests traced (mode {sampling})"
    )
    if dropped:
        line += f", {dropped} dropped at the trace cap"
    print(line)
    if not traces:
        return 0
    report = aggregate_tail(traces, percentile=args.percentile)
    print()
    print(
        critical_path_table(
            report, title=f"critical path (p{args.percentile:g} tail)"
        )
    )
    worst = sorted(traces, key=lambda t: (-t.e2e, t.request_id))[: args.top]
    for trace in worst:
        print()
        print(render_trace_flame(trace, width=args.width))
    if args.export_chrome:
        n = write_chrome_trace(traces, args.export_chrome)
        print()
        print(f"chrome trace ({n} events) written to {args.export_chrome}")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    model = get_model(args.model)
    cluster = make_cluster(args.gpu, args.num_gpus)
    workload = _make_workload(args)
    objective = _serving_objective(args, workload)
    executor = _make_executor(args)
    from repro.core.options import SeesawOptions
    from repro.exec import CellSpec

    slo_opts = {"ttft_slo": args.ttft_slo, "tpot_slo": args.tpot_slo}
    router_opts = {
        "router": args.router,
        "router_seed": args.seed,
        "coupled": args.coupled,
        "fidelity": args.fidelity,
        "autoscaler": args.autoscaler,
        "min_dp": args.min_dp,
        "max_dp": args.max_dp,
        "sanitize": _make_sanitizer(args),
        **slo_opts,
    }
    static_cfg = best_static_config(
        model,
        cluster,
        workload,
        simulate_top=3,
        options=EngineOptions(**router_opts),
        objective=objective,
        executor=executor,
    )
    chunk = tune_chunk_size(model, cluster, static_cfg, workload, executor=executor)
    chunked_opts = EngineOptions(
        chunked_prefill=True, chunk_size=chunk, **router_opts
    )
    plain_opts = EngineOptions(**router_opts)
    seesaw_run_opts = SeesawOptions(
        **router_opts, arrival_rate=objective.arrival_rate_hint
    )
    cp, cd = best_seesaw_pair(
        model,
        cluster,
        workload,
        simulate_top=3,
        options=seesaw_run_opts,
        objective=objective,
        executor=executor,
    )
    # The three headline runs are independent cells: batch them into one
    # fan-out (results come back in submission order).
    vllm, vllm_plain, seesaw = executor.run(
        [
            CellSpec(
                engine="vllm", model=model, cluster=cluster,
                config=static_cfg.label(), options=chunked_opts,
                workload=workload, seed=args.seed,
            ),
            CellSpec(
                engine="vllm", model=model, cluster=cluster,
                config=static_cfg.label(), options=plain_opts,
                workload=workload, seed=args.seed,
            ),
            CellSpec(
                engine="seesaw", model=model, cluster=cluster,
                config=f"{cp.label()}->{cd.label()}",
                options=seesaw_run_opts, workload=workload, seed=args.seed,
            ),
        ]
    )
    # The chunked-vs-plain pick honors the objective too: under slo, a
    # faster run that misses the SLOs must not displace a compliant one.
    if objective.result_key(vllm_plain) > objective.result_key(vllm):
        vllm = vllm_plain
    results = {f"vllm {vllm.label}": vllm, f"seesaw {seesaw.label}": seesaw}
    print(
        comparison_table(
            results,
            baseline_key=f"vllm {vllm.label}",
            title=f"{args.model} / {args.dataset} on {cluster.describe()} "
            f"(objective: {objective.describe()})",
        )
    )
    if args.arrival.startswith(TRACE_PREFIX):
        print()
        print(latency_table(results, title=f"latency under {args.arrival}", **slo_opts))
    elif args.request_rate > 0:
        print()
        print(
            latency_table(
                results, title=f"latency at {args.request_rate:g} req/s", **slo_opts
            )
        )
    elif args.ttft_slo is not None or args.tpot_slo is not None:
        print()
        print(latency_table(results, title="latency vs SLO (offline)", **slo_opts))
    if any(
        r.router is not None and r.router.num_replicas > 1 for r in results.values()
    ):
        print()
        print(routing_table(results, title=f"replica load ({args.router} router)"))
    print(f"speedup: {seesaw.throughput_rps / vllm.throughput_rps:.2f}x")
    _report_cache(executor)
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    model = get_model(args.model)
    cluster = make_cluster(args.gpu, args.num_gpus)
    workload = _make_workload(args)
    objective = _serving_objective(args, workload)
    executor = _make_executor(args)
    from repro.core.options import SeesawOptions
    from repro.exec import CellSpec

    results: dict[str, EngineResult] = {}
    slo_opts = {"ttft_slo": args.ttft_slo, "tpot_slo": args.tpot_slo}
    fleet_opts = {
        "autoscaler": args.autoscaler, "min_dp": args.min_dp, "max_dp": args.max_dp
    }
    opts = EngineOptions(
        router=args.router,
        router_seed=args.seed,
        coupled=args.coupled,
        fidelity=args.fidelity,
        sanitize=_make_sanitizer(args),
        **fleet_opts,
        **slo_opts,
    )
    labels = [
        ranked.config.label()
        for ranked in rank_static_configs(
            model, cluster, workload, objective=objective
        )
    ]
    static_runs = executor.run(
        CellSpec(
            engine="vllm", model=model, cluster=cluster, config=label,
            options=opts, workload=workload, seed=args.seed,
        )
        for label in labels
    )
    results.update(zip(labels, static_runs, strict=True))
    seesaw_opts = SeesawOptions(
        router=args.router,
        router_seed=args.seed,
        coupled=args.coupled,
        fidelity=args.fidelity,
        sanitize=_make_sanitizer(args),
        **fleet_opts,
        **slo_opts,
        arrival_rate=objective.arrival_rate_hint,
    )
    cp, cd = best_seesaw_pair(
        model, cluster, workload, simulate_top=3,
        options=seesaw_opts, objective=objective, executor=executor,
    )
    (seesaw,) = executor.run(
        [
            CellSpec(
                engine="seesaw", model=model, cluster=cluster,
                config=f"{cp.label()}->{cd.label()}", options=seesaw_opts,
                workload=workload, seed=args.seed,
            )
        ]
    )
    results[f"seesaw {seesaw.label}"] = seesaw
    # The baseline pick honors the objective: under slo, normalizing
    # against a 0%-attainment config would misstate every speedup.
    best_static = max(
        (k for k in results if not k.startswith("seesaw")),
        key=lambda k: objective.result_key(results[k]),
    )
    print(
        comparison_table(
            results,
            baseline_key=best_static,
            title=f"Static sweep + Seesaw ({args.model}, {args.dataset})",
        )
    )
    if (args.ttft_slo is not None or args.tpot_slo is not None) and any(
        r.latency is not None for r in results.values()
    ):
        print()
        print(latency_table(results, title="latency vs SLO", **slo_opts))
    _report_cache(executor)
    return 0


def cmd_predict(args: argparse.Namespace) -> int:
    from repro.autotuner.predictor import predict_request_rate

    model = get_model(args.model)
    cluster = make_cluster(args.gpu, args.num_gpus)
    if "->" in args.config:
        cp, cd = parse_transition(args.config)
    else:
        cp = cd = parse_config(args.config)
    rates = predict_request_rate(
        model, cluster, cp, cd, args.input_len, args.output_len
    )
    print(f"config            : {cp.label()} -> {cd.label()}")
    print(f"prefill rate      : {rates.prefill_tokens_per_s:,.0f} tok/s")
    print(f"decode rate       : {rates.decode_tokens_per_s:,.0f} tok/s")
    print(f"max decode batch  : {rates.max_batch_size}")
    print(f"predicted req rate: {rates.request_rate:.3f} req/s")
    if args.request_rate > 0 or args.ttft_slo is not None or args.tpot_slo is not None:
        objective = ServingObjective(
            kind="slo",
            request_rate=args.request_rate,
            ttft_slo=args.ttft_slo,
            tpot_slo=args.tpot_slo,
        )
        pred = objective.predict(rates, args.input_len, args.output_len)
        print(f"utilization       : {pred.utilization:.2f}")
        queue = "inf" if pred.queue_wait_mean_s == float("inf") else f"{pred.queue_wait_mean_s:.3f}s"
        ttft = "inf" if pred.ttft_mean_s == float("inf") else f"{pred.ttft_mean_s:.3f}s"
        print(f"mean queue wait   : {queue}")
        print(f"predicted ttft    : {ttft}")
        print(f"predicted tpot    : {pred.tpot_s * 1e3:.1f} ms/tok")
        print(f"slo attainment    : {pred.attainment * 100:.0f}%")
        print(f"goodput           : {pred.goodput_rps:.3f} req/s")
    return 0


def cmd_check_lint(args: argparse.Namespace) -> int:
    from pathlib import Path

    import repro
    from repro.check import lint_paths

    if args.paths:
        paths = [Path(p) for p in args.paths]
    else:
        paths = [Path(repro.__file__).parent]
    select = None
    if args.select:
        select = {part.strip() for part in args.select.split(",") if part.strip()}
    report = lint_paths(paths, select=select)
    if args.report:
        Path(args.report).write_text(report.to_json() + "\n", encoding="utf-8")
        print(f"lint report written to {args.report}", file=sys.stderr)
    if args.format == "json":
        print(report.to_json())
    else:
        print(report.format_text())
    return report.exit_code(strict=args.strict)


def cmd_check_goldens(args: argparse.Namespace) -> int:
    from repro.check.goldens import GOLDEN_SEED, render_goldens_table, run_goldens

    known = sorted(GOLDEN_SEED)
    if args.list:
        for name in known:
            print(name)
        return 0
    names = tuple(args.names) if args.names else None
    if names:
        unknown = [n for n in names if n not in GOLDEN_SEED]
        if unknown:
            raise ConfigurationError(
                f"unknown golden scenario(s) {unknown}; one of {known}"
            )
    executor = _make_executor(args)
    outcomes = run_goldens(names, executor=executor)
    print(render_goldens_table(outcomes))
    _report_cache(executor)
    return 0 if all(o.passed for o in outcomes) else 1


def cmd_cache(args: argparse.Namespace) -> int:
    from repro.exec import ResultCache

    cache = ResultCache(root=args.cache_dir)
    if args.cache_command == "clear":
        removed = cache.clear()
        print(f"removed {removed} cached result(s) under {cache.root}")
        return 0
    stats = cache.stats()
    print(f"root            : {stats.root}")
    print(f"code salt       : {stats.salt}")
    print(f"generations     : {stats.generations}")
    print(f"entries         : {stats.entries}")
    print(f"current-salt    : {stats.current_entries}")
    print(f"total size      : {stats.total_bytes / 1024:.1f} KiB")
    return 0


def cmd_reproduce(args: argparse.Namespace) -> int:
    from repro import experiments as ex

    executor = _make_executor(args)
    artifacts = {
        "table1": lambda: ex.render_table1(),
        "fig1": lambda: ex.render_fig1(ex.run_fig1()),
        "fig2": lambda: ex.render_fig2(ex.run_fig2(num_requests=300)),
        "fig4": lambda: ex.render_fig4(ex.run_fig4(num_requests=200)),
        "fig9": lambda: ex.render_fig9(ex.run_fig9()),
        "fig10": lambda: ex.render_fig10(ex.run_fig10()),
        "fig11": lambda: ex.render_fig11(
            ex.run_fig11(num_arxiv=60, num_sharegpt=150)
        ),
        "fig12": lambda: ex.render_fig12(ex.run_fig12(num_requests=100)),
        "fig13": lambda: ex.render_fig13(ex.run_fig13(num_requests=32)),
        "fig14": lambda: ex.render_fig14(ex.run_fig14(num_requests=32)),
        "fig15": lambda: ex.render_fig15(ex.run_fig15()),
        "latency": lambda: ex.render_latency_sweep(
            ex.run_latency_sweep(num_requests=40, executor=executor)
        ),
        "routing": lambda: ex.render_routing_sweep(
            ex.run_routing_sweep(num_requests=48, executor=executor)
        ),
        "slo": lambda: ex.render_slo_sweep(
            ex.run_slo_sweep(num_requests=32, executor=executor)
        ),
        "coupled": lambda: ex.render_coupled_sweep(
            ex.run_coupled_sweep(num_requests=40, executor=executor)
        ),
        "autoscale": lambda: ex.render_autoscale_sweep(
            ex.run_autoscale_sweep(executor=executor)
        ),
    }
    if args.artifact not in artifacts:
        print(
            f"unknown artifact {args.artifact!r}; one of {sorted(artifacts)}",
            file=sys.stderr,
        )
        return 2
    print(artifacts[args.artifact]())
    _report_cache(executor)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="Seesaw reproduction CLI"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one engine configuration")
    _add_common(p_run)
    _add_engine_flags(p_run)
    p_run.add_argument(
        "--timeline", action="store_true", help="print the schedule timeline"
    )
    _add_telemetry_flags(p_run)
    _add_tracing_flags(p_run)
    p_run.set_defaults(func=cmd_run)

    p_obs = sub.add_parser(
        "obs", help="telemetry dashboard from a JSONL artifact or live run"
    )
    p_obs.add_argument(
        "artifact",
        nargs="?",
        default=None,
        help="telemetry JSONL written by run --telemetry-out (omit with "
        "--live to simulate now)",
    )
    p_obs.add_argument(
        "--live",
        action="store_true",
        help="run the configured cell with telemetry enabled and render "
        "its dashboard (accepts every `repro run` flag)",
    )
    p_obs.add_argument("--width", type=int, default=60, help="sparkline width")
    p_obs.add_argument(
        "--top", type=int, default=3, help="worst windows to list (default 3)"
    )
    p_obs.add_argument(
        "--follow",
        action="store_true",
        help="live-tail the artifact: re-render the dashboard every "
        "--poll seconds as the JSONL grows (Ctrl-C to stop)",
    )
    p_obs.add_argument(
        "--poll",
        type=float,
        default=2.0,
        help="seconds between --follow re-renders (default 2)",
    )
    p_obs.add_argument(
        "--once",
        action="store_true",
        help="render a single --follow frame and exit (CI-friendly: no "
        "screen clearing, no loop)",
    )
    _add_common(p_obs)
    _add_engine_flags(p_obs)
    _add_telemetry_flags(p_obs)
    p_obs.set_defaults(func=cmd_obs)

    p_trace = sub.add_parser(
        "trace",
        help="per-request critical-path report from a trace artifact or "
        "live run",
    )
    p_trace.add_argument(
        "artifact",
        nargs="?",
        default=None,
        help="repro-trace-v1 JSONL written by run --trace-out (omit with "
        "--live to simulate now)",
    )
    p_trace.add_argument(
        "--live",
        action="store_true",
        help="run the configured cell with tracing enabled and report on "
        "its traces (accepts every `repro run` flag; defaults to "
        "--tracing all)",
    )
    p_trace.add_argument(
        "--top",
        type=int,
        default=3,
        help="worst requests to render as flame views (default 3)",
    )
    p_trace.add_argument(
        "--percentile",
        type=float,
        default=99.0,
        help="tail percentile for the critical-path aggregation "
        "(default 99)",
    )
    p_trace.add_argument(
        "--width", type=int, default=64, help="flame-view bar width"
    )
    p_trace.add_argument(
        "--export-chrome",
        default=None,
        metavar="PATH",
        help="export the loaded traces as Chrome trace-event JSON "
        "(Perfetto / chrome://tracing)",
    )
    _add_common(p_trace)
    _add_engine_flags(p_trace)
    _add_tracing_flags(p_trace)
    p_trace.set_defaults(func=cmd_trace)

    p_cmp = sub.add_parser("compare", help="vLLM-best vs Seesaw-best")
    _add_common(p_cmp)
    _add_exec_flags(p_cmp)
    p_cmp.set_defaults(func=cmd_compare)

    p_sweep = sub.add_parser("sweep", help="all static configs + Seesaw")
    _add_common(p_sweep)
    _add_exec_flags(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    p_pred = sub.add_parser("predict", help="analytic rates, no simulation")
    _add_common(p_pred)
    p_pred.add_argument("--config", default="P8->T4P2")
    p_pred.add_argument("--input-len", type=float, default=2000)
    p_pred.add_argument("--output-len", type=float, default=200)
    p_pred.set_defaults(func=cmd_predict)

    p_check = sub.add_parser(
        "check",
        help="correctness tooling: determinism linter (simlint), pinned "
        "golden cells",
    )
    check_sub = p_check.add_subparsers(dest="check_command", required=True)
    p_lint = check_sub.add_parser(
        "lint",
        help="AST determinism lint (rules R1-R6) over source trees",
        description="simlint: wall-clock reads (R1), unseeded global RNG "
        "(R2), set-iteration order hazards in scheduling code (R3), "
        "unguarded telemetry in hot loops (R4), relative clock "
        "accumulation (R5) and options mutation after construction (R6). "
        "Suppress a finding with a trailing comment of the form "
        "`repro-check: ignore[R3]` preceded by a hash; unused "
        "suppressions are themselves reported (R0).",
    )
    p_lint.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (default: the installed repro "
        "package source)",
    )
    p_lint.add_argument(
        "--strict",
        action="store_true",
        help="exit non-zero on warnings too, not just errors (CI mode)",
    )
    p_lint.add_argument(
        "--format", choices=["text", "json"], default="text", dest="format"
    )
    p_lint.add_argument(
        "--report",
        default=None,
        metavar="PATH",
        help="also write the full JSON report to PATH (CI artifact)",
    )
    p_lint.add_argument(
        "--select",
        default=None,
        metavar="RULES",
        help="comma-separated rule ids to run (default: all), e.g. R1,R3",
    )
    p_lint.set_defaults(func=cmd_check_lint)
    p_gold = check_sub.add_parser(
        "goldens",
        help="re-run the pinned golden cells and diff against the seed",
        description="Re-runs the seed-pinned offline scenarios (all four "
        "engines, plus the DP and chunked-prefill paths) and compares "
        "total/phase times bit-exactly against the golden literals; "
        "exits non-zero on any mismatch.",
    )
    p_gold.add_argument(
        "names",
        nargs="*",
        help="scenario names to run (default: all; see --list)",
    )
    p_gold.add_argument(
        "--list", action="store_true", help="list scenario names and exit"
    )
    _add_exec_flags(p_gold)
    p_gold.set_defaults(func=cmd_check_goldens)

    p_repro = sub.add_parser("reproduce", help="regenerate a paper artifact")
    p_repro.add_argument(
        "artifact",
        help="table1 | fig1 | ... | fig15 | latency | routing | slo | "
        "coupled | autoscale",
    )
    _add_exec_flags(p_repro)
    p_repro.set_defaults(func=cmd_reproduce)

    p_cache = sub.add_parser(
        "cache", help="manage the on-disk simulation result cache"
    )
    cache_sub = p_cache.add_subparsers(dest="cache_command", required=True)
    for sub_name, sub_help in (
        ("stats", "entry counts, size and the current code salt"),
        ("clear", "remove every cached result (all code generations)"),
    ):
        p_cache_sub = cache_sub.add_parser(sub_name, help=sub_help)
        p_cache_sub.add_argument(
            "--cache-dir",
            default=None,
            metavar="DIR",
            help="cache root to inspect (default ~/.cache/repro)",
        )
        p_cache_sub.set_defaults(func=cmd_cache)

    from repro.bench import add_bench_parser

    add_bench_parser(sub)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
