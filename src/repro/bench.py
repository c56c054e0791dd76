"""Perf-trajectory harness: timed reference cells with committed baselines.

``repro bench`` times a fixed set of reference cells — one per hot path
the simulator grew (offline engine loop, event-coupled dispatch,
autoscaled fleets, the fluid fast path) — and reports wall time, work
rate (iterations or requests per second) and peak RSS for each. The
committed baselines under ``benchmarks/perf/BENCH_<cell>.json`` are the
repo's perf trajectory: ``--check`` fails when a cell regresses more
than :data:`REGRESSION_TOLERANCE` against its baseline, and ``--update``
rewrites the baselines after a deliberate perf change.

Wall clocks are not portable across machines, so every run also times a
fixed pure-Python/numpy calibration spin and normalizes the measured
wall by the spin-time ratio before comparing: a machine twice as slow as
the baseline recorder gets twice the budget. The spin is deliberately a
mix of interpreter-bound and numpy-bound work — the same mix the
simulator's hot loops have.

Setup (workload synthesis, engine construction) happens outside the
timed region; only the simulation itself is measured.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path
from typing import Callable

import numpy as np

from repro.engines.base import EngineOptions, RunHooks
from repro.errors import SimulationError
from repro.hardware.cluster import make_cluster
from repro.models.registry import get_model
from repro.workloads.arrivals import diurnal_arrivals, poisson_arrivals
from repro.workloads.datasets import sharegpt_workload

# A cell fails --check when its normalized wall exceeds baseline x this.
REGRESSION_TOLERANCE = 1.25

# ``--telemetry-overhead`` fails when the instrumented coupled-JSQ cell
# costs more than this ratio of the telemetry-off run (same process, so
# no calibration needed — the two runs share the machine).
TELEMETRY_OVERHEAD_TOLERANCE = 1.10

# ``--tracing-overhead`` has the same contract for the request tracer:
# the coupled-JSQ cell with p99_exemplars tracing vs tracing off.
TRACING_OVERHEAD_TOLERANCE = 1.10

_BASELINE_PREFIX = "BENCH_"


def default_baseline_dir() -> Path:
    """``benchmarks/perf/`` next to the source tree (the committed
    trajectory), falling back to the working directory for installs
    that carry no repo checkout."""
    repo = Path(__file__).resolve().parents[2]
    candidate = repo / "benchmarks" / "perf"
    if candidate.is_dir():
        return candidate
    return Path.cwd() / "benchmarks" / "perf"


def calibration_spin() -> float:
    """Seconds for a fixed interpreter+numpy workload (machine speed)."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(1_500_000):
        acc += i ^ (i >> 3)
    a = np.arange(100_000, dtype=np.int64)
    for _ in range(40):
        acc += int((a * 3 + 1).sum())
    if acc < 0:  # pragma: no cover - keeps the loop un-eliminable
        raise AssertionError
    return time.perf_counter() - t0


# --------------------------------------------------------------------- #
# Reference cells
# --------------------------------------------------------------------- #


def _reference_run(
    workload, options: EngineOptions, hooks: RunHooks | None = None,
    *, config: str = "D4T2", num_gpus: int = 8,
):
    """The timed run of a 15b-on-A10 vLLM reference cell. The engine is
    built from its :class:`~repro.exec.CellSpec` here, outside the
    timed region."""
    from repro.exec import CellSpec

    engine = CellSpec(
        engine="vllm", model=get_model("15b"),
        cluster=make_cluster("A10", num_gpus), config=config,
        options=options, workload=workload,
    ).build_engine()
    return lambda: engine.run(workload, hooks)


def _cell_offline_static(scale: float):
    """Offline engine inner loop: no arrivals, decoupled static deal."""
    n = max(16, int(2000 * scale))
    wl = sharegpt_workload(num_requests=n, seed=7)
    return _reference_run(wl, EngineOptions(router="static")), "iterations"


def _cell_coupled_jsq(scale: float, hooks: RunHooks | None = None):
    """Event-coupled JSQ dispatch on the shared clock (the reference
    cell of the event-path speedup criterion and of the telemetry and
    tracing overhead gates)."""
    n = max(16, int(2000 * scale))
    wl = poisson_arrivals(sharegpt_workload(num_requests=n, seed=7), rate_rps=8.0, seed=7)
    options = EngineOptions(router="jsq", coupled=True)
    return _reference_run(wl, options, hooks), "iterations"


def _cell_autoscaled_diurnal(scale: float):
    """Elastic threshold fleet under a diurnal day-shape."""
    n = max(16, int(2000 * scale))
    wl = diurnal_arrivals(
        sharegpt_workload(num_requests=n, seed=11),
        rate_rps=6.0,
        period_s=240.0,
        seed=11,
    )
    options = EngineOptions(
        router="jsq", coupled=True, autoscaler="threshold", min_dp=1, max_dp=4
    )
    return _reference_run(wl, options), "iterations"


def _cell_fluid_million(scale: float):
    """A million-request diurnal day on a 200-replica fleet, solved by
    the calibrated fluid fast path."""
    n = max(1000, int(1_000_000 * scale))
    wl = diurnal_arrivals(
        sharegpt_workload(num_requests=n, seed=3),
        rate_rps=140.0 * n / 1_000_000,
        period_s=8640.0,
        seed=3,
    )
    options = EngineOptions(
        router="jsq",
        coupled=True,
        fidelity="fluid",
        autoscaler="threshold",
        min_dp=20,
        max_dp=200,
    )
    return _reference_run(wl, options, config="D200T2", num_gpus=400), "requests"


def run_sweep_parallel(scale: float = 1.0, jobs: int = 2) -> dict:
    """Multi-cell sweep wall: the same 8 coupled-JSQ cells executed
    serially (``--jobs 1``) and through the process pool (``--jobs N``),
    in that order, with the parallel results asserted bit-identical to
    the serial ones before anything is reported. ``wall_s`` (what the
    regression gate budgets) is the *parallel* wall; ``serial_wall_s``
    and ``speedup`` record what the fan-out bought on this machine."""
    from repro.exec import CellExecutor, CellSpec

    n = max(16, int(400 * scale))
    model = get_model("15b")
    cluster = make_cluster("A10", 8)
    specs = [
        CellSpec(
            engine="vllm",
            model=model,
            cluster=cluster,
            config="D4T2",
            options=EngineOptions(router="jsq", router_seed=7 + i, coupled=True),
            workload=poisson_arrivals(
                sharegpt_workload(num_requests=n, seed=7 + i),
                rate_rps=8.0,
                seed=7 + i,
            ),
            seed=7 + i,
        )
        for i in range(8)
    ]
    t0 = time.perf_counter()
    serial = CellExecutor(jobs=1).run(specs)
    serial_wall = time.perf_counter() - t0
    t0 = time.perf_counter()
    outcomes = CellExecutor(jobs=jobs).run_outcomes(specs)
    wall = time.perf_counter() - t0
    parallel = [o.result for o in outcomes]
    if parallel != serial:
        raise SimulationError(
            "parallel sweep diverged from the serial run "
            "(the executor's determinism contract is broken)"
        )
    work = len(specs)
    return {
        "cell": "sweep_parallel",
        "wall_s": round(wall, 4),
        "serial_wall_s": round(serial_wall, 4),
        "speedup": round(serial_wall / wall, 2) if wall > 0 else 0.0,
        "jobs": jobs,
        "work_kind": "cells",
        "work_items": work,
        "work_rate": round(work / wall, 1) if wall > 0 else 0.0,
        "peak_rss_mb": round(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1
        ),
        "child_peak_rss_mb": round(
            max((o.peak_rss_mb for o in outcomes), default=0.0), 1
        ),
        "sim_seconds": round(sum(r.total_time for r in parallel), 2),
    }


CELLS: dict[str, Callable] = {
    "offline_static": _cell_offline_static,
    "coupled_jsq": _cell_coupled_jsq,
    "autoscaled_diurnal": _cell_autoscaled_diurnal,
    "fluid_million": _cell_fluid_million,
    # Special-cased in run_cell: times a serial-vs-pooled executor pair
    # rather than one engine run (the value here is for the listing).
    "sweep_parallel": run_sweep_parallel,
}


def run_cell(
    name: str, scale: float = 1.0, profile_dir: Path | None = None, jobs: int = 2
) -> dict:
    """Time one reference cell; returns the measurement record."""
    if name == "sweep_parallel":
        return run_sweep_parallel(scale, jobs=jobs)
    runner, work_kind = CELLS[name](scale)
    if profile_dir is not None:
        import cProfile

        prof = cProfile.Profile()
        t0 = time.perf_counter()
        result = prof.runcall(runner)
        wall = time.perf_counter() - t0
        profile_dir.mkdir(parents=True, exist_ok=True)
        prof.dump_stats(profile_dir / f"{name}.prof")
    else:
        t0 = time.perf_counter()
        result = runner()
        wall = time.perf_counter() - t0
    if work_kind == "iterations":
        work = result.iterations
    else:
        work = result.latency.num_requests if result.latency is not None else 0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    child_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    return {
        "cell": name,
        "wall_s": round(wall, 4),
        "work_kind": work_kind,
        "work_items": int(work),
        "work_rate": round(work / wall, 1) if wall > 0 else 0.0,
        "peak_rss_mb": round(peak_rss_mb, 1),
        "child_peak_rss_mb": round(child_rss_mb, 1),
        "sim_seconds": round(result.total_time, 2),
    }


def run_hook_overhead(hook: str, scale: float = 1.0, repeats: int = 5) -> dict:
    """Hook-on vs hook-off wall time on the coupled-JSQ cell, for the
    ``telemetry`` hub or the ``tracing`` tracer (``p99_exemplars``, the
    always-on production posture: marks for everyone, trace trees only
    for the tail).

    Both variants run in this process in interleaved off/on rounds (min
    of ``repeats`` each, fresh engine and hook per repetition) so slow
    machine drift hits both sides equally and the ratio needs no
    cross-machine calibration. The gate is the hook's cost contract: the
    instrumented run must stay under the hook's tolerance times the
    zero-overhead run.
    """
    from repro.obs import Telemetry, Tracer

    if hook == "telemetry":
        make, tolerance, extra = (
            lambda: RunHooks(telemetry=Telemetry()), TELEMETRY_OVERHEAD_TOLERANCE, {}
        )
    else:
        make, tolerance, extra = (
            lambda: RunHooks(tracing=Tracer("p99_exemplars")),
            TRACING_OVERHEAD_TOLERANCE,
            {"sampling": "p99_exemplars"},
        )

    def one_wall(hooks) -> float:
        runner, _ = _cell_coupled_jsq(scale, hooks)
        t0 = time.perf_counter()
        runner()
        return time.perf_counter() - t0

    off = on = float("inf")
    for _ in range(repeats):
        off = min(off, one_wall(None))
        on = min(on, one_wall(make()))
    ratio = on / off if off > 0 else 1.0
    return {
        "cell": "coupled_jsq",
        **extra,
        "off_wall_s": round(off, 4),
        "on_wall_s": round(on, 4),
        "overhead_ratio": round(ratio, 4),
        "tolerance": tolerance,
        "ok": ratio <= tolerance,
    }


def baseline_path(directory: Path, cell: str) -> Path:
    return directory / f"{_BASELINE_PREFIX}{cell}.json"


def load_baseline(directory: Path, cell: str) -> dict | None:
    path = baseline_path(directory, cell)
    if not path.is_file():
        return None
    return json.loads(path.read_text())


def check_measurement(measurement: dict, baseline: dict, calib_s: float) -> tuple[bool, str]:
    """Normalized-regression verdict for one cell.

    The measured wall is scaled by ``baseline_calib / current_calib`` so
    a slower (or faster) machine is compared in the baseline recorder's
    time units.
    """
    base_wall = float(baseline["wall_s"])
    base_calib = float(baseline["calib_s"])
    factor = base_calib / calib_s if calib_s > 0 else 1.0
    norm_wall = measurement["wall_s"] * factor
    budget = base_wall * REGRESSION_TOLERANCE
    ok = norm_wall <= budget
    detail = (
        f"wall={measurement['wall_s']:.3f}s norm={norm_wall:.3f}s "
        f"budget={budget:.3f}s (baseline {base_wall:.3f}s x {REGRESSION_TOLERANCE})"
    )
    return ok, detail


def cmd_bench(args: argparse.Namespace) -> int:
    directory = Path(args.baseline_dir) if args.baseline_dir else default_baseline_dir()
    if (args.telemetry_overhead or args.tracing_overhead) and args.cells is None:
        names = []  # the overhead gates alone, unless cells were asked for
    else:
        names = args.cells or list(CELLS)
    unknown = [n for n in names if n not in CELLS]
    if unknown:
        print(f"unknown cells: {', '.join(unknown)}", file=sys.stderr)
        print(f"available: {', '.join(CELLS)}", file=sys.stderr)
        return 2
    profile_dir = Path(args.profile) if args.profile else None
    calib = calibration_spin()
    print(f"calibration spin: {calib:.3f}s")
    failed = []
    for name in names:
        measurement = run_cell(
            name, scale=args.scale, profile_dir=profile_dir, jobs=args.jobs
        )
        measurement["calib_s"] = round(calib, 4)
        line = (
            f"{name:20s} wall={measurement['wall_s']:8.3f}s "
            f"{measurement['work_kind']}={measurement['work_items']} "
            f"rate={measurement['work_rate']:.0f}/s "
            f"rss={measurement['peak_rss_mb']:.0f}MB"
        )
        if "speedup" in measurement:
            line += (
                f" speedup={measurement['speedup']:.2f}x"
                f"(jobs={measurement['jobs']})"
            )
        if args.update:
            if args.scale != 1.0:
                print("refusing to --update baselines at --scale != 1", file=sys.stderr)
                return 2
            directory.mkdir(parents=True, exist_ok=True)
            baseline_path(directory, name).write_text(
                json.dumps(measurement, indent=2, sort_keys=True) + "\n"
            )
            line += "  [baseline updated]"
        elif args.check:
            baseline = load_baseline(directory, name)
            if baseline is None:
                failed.append(name)
                line += "  [FAIL: no baseline]"
            elif args.scale != 1.0:
                line += "  [check skipped: scaled cell]"
            else:
                ok, detail = check_measurement(measurement, baseline, calib)
                line += f"  [{'ok' if ok else 'FAIL'}: {detail}]"
                if not ok:
                    failed.append(name)
        print(line)
        if args.json:
            out = Path(args.json)
            out.mkdir(parents=True, exist_ok=True)
            (out / f"{_BASELINE_PREFIX}{name}.json").write_text(
                json.dumps(measurement, indent=2, sort_keys=True) + "\n"
            )
    for hook in ("telemetry", "tracing"):
        if not getattr(args, f"{hook}_overhead"):
            continue
        if args.scale != 1.0:
            print(f"{hook} overhead gate requires --scale 1", file=sys.stderr)
            return 2
        overhead = run_hook_overhead(hook)
        verdict = "ok" if overhead["ok"] else "FAIL"
        print(
            f"{hook + '_overhead':21s}off={overhead['off_wall_s']:.3f}s "
            f"on={overhead['on_wall_s']:.3f}s "
            f"ratio={overhead['overhead_ratio']:.3f} "
            f"[{verdict}: tolerance {overhead['tolerance']}]"
        )
        if args.json:
            out = Path(args.json)
            out.mkdir(parents=True, exist_ok=True)
            (out / f"BENCH_{hook}_overhead.json").write_text(
                json.dumps(overhead, indent=2, sort_keys=True) + "\n"
            )
        if not overhead["ok"]:
            failed.append(f"{hook}_overhead")
    if profile_dir is not None:
        print(f"profiles written under {profile_dir}/")
    if failed:
        print(f"perf regression in: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


def add_bench_parser(sub) -> None:
    """Attach the ``bench`` subcommand to the CLI's subparsers."""
    p = sub.add_parser("bench", help="time the perf reference cells")
    p.add_argument(
        "--cells",
        nargs="*",
        default=None,
        metavar="CELL",
        help=f"cells to run (default all: {' '.join(CELLS)})",
    )
    p.add_argument(
        "--check",
        action="store_true",
        help="fail (exit 1) when a cell regresses >25%% against its "
        "committed baseline, normalized by the calibration spin",
    )
    p.add_argument(
        "--update",
        action="store_true",
        help="rewrite the committed baselines from this run",
    )
    p.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="shrink cells by this factor (smoke testing; disables --check)",
    )
    p.add_argument(
        "--jobs",
        type=int,
        default=2,
        metavar="N",
        help="worker processes for the sweep_parallel cell (default 2)",
    )
    p.add_argument(
        "--profile",
        default=None,
        metavar="DIR",
        help="dump a cProfile .prof per cell into DIR",
    )
    p.add_argument(
        "--json",
        default=None,
        metavar="DIR",
        help="also write each measurement as JSON into DIR (CI artifacts)",
    )
    p.add_argument(
        "--baseline-dir",
        default=None,
        help="baseline directory (default: the repo's benchmarks/perf/)",
    )
    p.add_argument(
        "--telemetry-overhead",
        action="store_true",
        help="gate the telemetry cost contract: time the coupled-JSQ cell "
        "with telemetry off and on, fail (exit 1) when the instrumented "
        f"run exceeds {TELEMETRY_OVERHEAD_TOLERANCE}x the zero-overhead "
        "run; on its own it skips the normal cells",
    )
    p.add_argument(
        "--tracing-overhead",
        action="store_true",
        help="gate the tracing cost contract: time the coupled-JSQ cell "
        "with tracing off and with --tracing p99_exemplars, fail (exit 1) "
        f"when the instrumented run exceeds {TRACING_OVERHEAD_TOLERANCE}x "
        "the zero-overhead run; on its own it skips the normal cells",
    )
    p.set_defaults(func=cmd_bench)
