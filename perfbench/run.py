"""Benchmark of the simulator as users run it.

    python3 perfbench/run.py --workload compare_offline --seed 0 --seconds 30 --trace 0

Run from the root of a checkout: the simulator is imported from ``src/``
next to this directory, never from an installed copy. Each run:

1. times ``setup_repeats`` fresh-process set-ups (interpreter start,
   imports, workload synthesis, cell construction) and reports their
   median as ``setup_s`` (``--trace 0`` only);
2. sets up the run's inputs in this process: ``inputs`` workloads drawn
   from consecutive seeds derived from ``--seed``;
3. runs the op serially, one at a time (closed loop, no pool), cycling
   through the inputs for ``--seconds`` and over each input at least
   once: each op is a cold pass on an empty result cache, and each
   input's first op is followed by ``warm_repeats`` replays against the
   filled cache; a speed spin (``SpeedSpin``) follows every cold pass;
4. checks every op's output digest against the committed reference for
   its input seed (``reference.json``) and against earlier ops on the same
   input, and that each warm replay is byte-identical to its cold pass;
5. records the machine context (cores, calibration spin, usable
   parallelism, Python and numpy versions);
6. prints one JSON object as its last line: end-to-end metrics with
   ``--trace 0`` (cold-op medians, scaled to the reference speed by the
   run's median speed spin), per-layer metrics with ``--trace 1``.

With ``--trace 1`` the first ``TRACE_INPUTS`` inputs run once untraced
and once with the per-layer wrappers of ``layertrace.py`` installed, so
the tracing overhead is stated next to the numbers it distorts.
"""

from __future__ import annotations

# A benchmark measures host time, so it reads the wall clock.
from time import perf_counter as clock  # noqa: TID251

T_START = clock()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
PROBE_TIMEOUT_S = 120.0
TRACE_INPUTS = 4

from cells import WORKLOADS, CompareOffline  # noqa: E402
from layertrace import LAYERS, LayerTracer  # noqa: E402


def import_program() -> None:
    """Put the checkout's ``src/`` first on the path; refuse to run
    without it (there is no installed fallback)."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no simulator source at {SRC}/repro")
    sys.path.insert(0, str(SRC))


# ------------------------------------------------------------------------ #
# Child processes: set-up probes and the parallelism spin
# ------------------------------------------------------------------------ #


def _child(args: list[str]) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, str(HERE / "run.py"), *args],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
        cwd=ROOT,
    )


def _reap(procs: list[subprocess.Popen]) -> None:
    for p in procs:
        try:
            p.wait(timeout=PROBE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            p.kill()
            p.wait()
        if p.returncode != 0:
            raise RuntimeError(f"probe {p.args[2:]} exited {p.returncode}")


def _readline(proc: subprocess.Popen) -> str:
    line = proc.stdout.readline()
    if not line:
        proc.kill()
        proc.wait()
        raise RuntimeError(f"probe {proc.args[2:]} exited before reporting")
    return line.strip()


def probe_setup(workload: str, seed: int) -> float:
    """Host seconds from spawning a fresh interpreter to the moment it
    holds a ready-to-run op (the child's exit is not counted)."""
    t0 = clock()
    proc = _child(["--probe", "setup", "--workload", workload, "--seed", str(seed)])
    try:
        if _readline(proc) != "ready":
            raise RuntimeError("set-up probe sent an unexpected line")
        elapsed = clock() - t0
    finally:
        proc.stdin.close()
        _reap([proc])
    return elapsed


def spin_group(n: int) -> list[float]:
    """Start ``n`` spin probes, release them together, and return each
    one's spin seconds (the same fixed work in every probe)."""
    procs = [_child(["--probe", "spin"]) for _ in range(n)]
    try:
        for p in procs:
            if _readline(p) != "ready":
                raise RuntimeError("spin probe sent an unexpected line")
        for p in procs:
            p.stdin.write("go\n")
            p.stdin.flush()
        times = [float(_readline(p)) for p in procs]
    finally:
        for p in procs:
            p.stdin.close()
        _reap(procs)
    return times


def run_probe(kind: str, workload: str | None, seed: int) -> int:
    import_program()
    if kind == "setup":
        WORKLOADS[workload].setup(seed)
        print("ready", flush=True)
        # Freeing the workload is not part of set-up; skip the teardown.
        os._exit(0)
    from repro.bench import calibration_spin

    print("ready", flush=True)
    if sys.stdin.readline().strip() != "go":
        return 1
    print(sum(calibration_spin() for _ in range(3)), flush=True)
    return 0


def machine_context() -> dict:
    """Context recorded with every result set (not a metric)."""
    import numpy as np
    from repro.bench import calibration_spin

    single = spin_group(1)[0]
    pair = spin_group(2)
    return {
        "nproc": os.cpu_count(),
        "calibration_spin_s": round(statistics.median(calibration_spin() for _ in range(3)), 4),
        # Two concurrent copies of the spin against one alone: 2.0 means
        # two usable cores, 1.0 means the pair shared one.
        "usable_parallelism": round(2 * single / max(pair), 2),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


# Seconds a ``SpeedSpin`` takes on the reference box (2-core Xeon VM)
# when no neighbour slows it: the unit ``ref_host_s`` is reported in.
SPIN_REF_S = 0.07


class SpeedSpin:
    """A fixed mix of interpreter, allocation and cache-bound work whose
    host seconds measure the machine's speed at the moment. It is the
    benchmark's own code, so no change to the program moves it. The
    random gather over 8 MB slows down, as the ops do, when neighbours
    on the host contend for its shared cache."""

    def __init__(self):
        import numpy as np

        n = 1_000_000
        self.table = np.arange(n, dtype=np.int64)
        self.index = np.random.default_rng(0).integers(0, n, size=500_000)

    def __call__(self) -> float:
        t0 = clock()
        acc = 0
        counts: dict[int, float] = {}
        for i in range(300_000):
            acc += i ^ (i >> 3)
            counts[i & 1023] = float(i)
        acc += int(sum([float(i) for i in range(200_000)]))
        for _ in range(5):
            acc += int(self.table[self.index].sum())
        if acc < 0:
            raise AssertionError("unreachable; keeps the loops live")
        return clock() - t0


# ------------------------------------------------------------------------ #
# Ops
# ------------------------------------------------------------------------ #


class Run:
    """One benchmark run's ops, checks and counters. Op ``k`` runs on
    input ``k mod len(seeds)``; each input has its own seed and digest.
    With ``calibrate`` a speed spin follows every cold pass (and one
    precedes the first), so the spins sample the machine's speed over the
    same stretch of time as the ops."""

    def __init__(
        self, workload, seeds: list[int], scratch: Path, references: dict, calibrate: bool
    ):
        self.wl = workload
        self.seeds = seeds
        self.scratch = scratch
        self.references = references
        self.speed_spin = SpeedSpin() if calibrate else None
        self.spins: list[float] = []
        self.states: list = []
        self.seen: dict[int, tuple[str, str]] = {}
        self.attempted = 0
        self.failed = 0
        self.k = 0

    def fail(self, why: str) -> None:
        self.failed += 1
        print(f"FAILED op {self.k}: {why}", file=sys.stderr)

    def check(self, seed: int, out, cold: bool) -> None:
        """Digest checks; each failed check fails the op once."""
        if seed not in self.seen:
            self.seen[seed] = (out.digest, out.text)
            ref = self.references.get(str(seed))
            if ref is not None and out.digest != ref:
                self.fail(f"input seed {seed}: digest {out.digest} != reference {ref}")
                return
        if (out.digest, out.text) != self.seen[seed]:
            self.fail(f"input seed {seed}: digest {out.digest} differs from its first op")
        elif cold and out.cache_hits:
            self.fail(f"cold pass hit the cache {out.cache_hits} times")
        elif not cold and out.cache_misses:
            self.fail(f"warm replay missed the cache {out.cache_misses} times")

    def op(self, tracer: LayerTracer | None = None, warm: bool = True) -> dict | None:
        """Cold pass plus (if ``warm``) warm replays on a fresh cache
        directory."""
        j = self.k % len(self.seeds)
        seed, state = self.seeds[j], self.states[j]
        cache_dir = self.scratch / f"op{self.k}"
        shutil.rmtree(cache_dir, ignore_errors=True)
        cache_dir.mkdir(parents=True)
        rec: dict = {"input": j, "warm_phases": []}
        failed = self.failed
        try:
            self.attempted += 1
            if tracer is not None:
                rec["cold_phase"] = tracer.new_phase()
            # The previous op's garbage is not this op's cost.
            gc.collect()
            if self.speed_spin is not None and not self.spins:
                self.spins.append(self.speed_spin())
            t0 = clock()
            out = self.wl.op(state, cache_dir)
            rec["host_s"] = clock() - t0
            if self.speed_spin is not None:
                self.spins.append(self.speed_spin())
            rec["sim_requests"] = self.wl.simulated(out, cache_dir)
            rec["digest"], rec["text"] = out.digest, out.text
            self.check(seed, out, cold=True)
            warm_s = []
            for _ in range(self.wl.warm_repeats if warm else 0):
                self.attempted += 1
                if tracer is not None:
                    rec["warm_phases"].append(tracer.new_phase())
                t0 = clock()
                wout = self.wl.op(state, cache_dir)
                warm_s.append(clock() - t0)
                self.check(seed, wout, cold=False)
            rec["warm_s"] = statistics.median(warm_s) if warm_s else float("nan")
        except Exception:
            traceback.print_exc()
            self.fail("raised")
            return None
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)
            self.k += 1
        print(
            f"op {self.k - 1} input_seed={seed} {'traced' if tracer else 'plain'} "
            f"digest={rec['digest']} host_s={rec['host_s']:.4f} "
            f"warm_s={rec['warm_s']:.4f} sim_requests={rec['sim_requests']}"
        )
        return rec if self.failed == failed else None


def load_references(workload: str) -> dict:
    if not REFERENCE.is_file():
        return {}
    return json.loads(REFERENCE.read_text()).get(workload, {})


def write_references(workload: str, digests: dict[int, str]) -> None:
    refs = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    mine = refs.setdefault(workload, {})
    mine.update({str(s): d for s, d in digests.items()})
    refs[workload] = dict(sorted(mine.items(), key=lambda kv: int(kv[0])))
    REFERENCE.write_text(json.dumps(refs, indent=2, sort_keys=True) + "\n")


# ------------------------------------------------------------------------ #
# Metrics
# ------------------------------------------------------------------------ #


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def end_to_end(records: list[dict], spins: list[float], setup_samples: list[float]) -> dict:
    """``ref_host_s`` is the median cold-op host seconds scaled to the
    reference speed by the run's median speed spin (``SPIN_REF_S`` over
    it). A shared machine's speed swings by up to 1.7x for tens of seconds
    at a time, and the ops and the spins between them slow down together."""
    scale = SPIN_REF_S / statistics.median(spins)
    return {
        "ref_host_s": metric(statistics.median(r["host_s"] for r in records) * scale, "s"),
        "ref_sim_req_per_s": metric(
            statistics.median(r["sim_requests"] / r["host_s"] for r in records) / scale, "req/s"
        ),
        "setup_s": metric(statistics.median(setup_samples), "s"),
        "peak_rss_mb": metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"
        ),
    }


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def _sum_results(phase, entry: str, fn) -> float:
    return sum(fn(r) for r in phase.results.get(entry, ()))


def per_layer(
    setup_phase, inputs: int, setup_wall: float, plain: list[dict], traced: list[dict]
) -> tuple[dict, bool]:
    """Per-layer metrics of one input: its share of the set-up phase plus
    the mean traced cold op. Returns the metrics and whether each op's
    self times stayed within its wall."""
    colds = [r["cold_phase"] for r in traced]
    host = _mean(r["host_s"] for r in traced)
    untraced = _mean(r["host_s"] for r in plain)
    wall = setup_wall + host
    m: dict = {}
    self_sum = 0.0
    for layer in LAYERS:
        self_s = setup_phase.self_s.get(layer, 0.0) / inputs + _mean(
            c.self_s.get(layer, 0.0) for c in colds
        )
        calls = setup_phase.calls.get(layer, 0) / inputs + _mean(
            c.calls.get(layer, 0) for c in colds
        )
        self_sum += self_s
        m[f"{layer}.calls"] = metric(calls, "count")
        m[f"{layer}.self_s"] = metric(self_s, "s")
        m[f"{layer}.share"] = metric(self_s / wall, "ratio")

    def per_op(entry, fn):
        return _mean(_sum_results(c, entry, fn) for c in colds)

    def preempts(r):
        return r.latency.total_preemptions if r.latency is not None else 0

    def fleet_events(r):
        fleet = r.router.fleet if r.router is not None else None
        return fleet.scale_events if fleet is not None else 0

    cluster_runs = ("ClusterSimulator.run", "FluidSimulator.run")
    dispatches = _mean(c.entry_calls.get("ReplicaLoad.dispatch", 0) for c in colds)
    routing_self = _mean(c.self_s.get("routing", 0.0) for c in colds)
    eng_iters = per_op("BaseEngine.run", lambda r: r.iterations)
    core_iters = per_op("SeesawEngine.run", lambda r: r.iterations)
    cost_calls = _mean(c.calls.get("costmodel", 0) for c in colds)
    warm = [w for r in traced for w in r["warm_phases"]]
    gets = sum(w.cache_gets for w in warm)
    m.update({
        "routing.us_per_dispatch": metric(1e6 * routing_self / dispatches if dispatches else 0.0, "us"),
        "engines.iterations": metric(eng_iters, "count"),
        "engines.preemptions": metric(per_op("BaseEngine.run", preempts), "count"),
        "core.iterations": metric(core_iters, "count"),
        "core.transitions": metric(per_op("SeesawEngine.run", lambda r: r.transitions), "count"),
        "core.sim_speedup": metric(
            _mean(CompareOffline.speedup(r["text"]) for r in traced if r["text"]), "x"
        ),
        "cluster.redispatches": metric(
            sum(per_op(e, lambda r: r.router.redispatches) for e in cluster_runs), "count"
        ),
        "cluster.scale_events": metric(sum(per_op(e, fleet_events) for e in cluster_runs), "count"),
        "costmodel.calls_per_iter": metric(
            cost_calls / (eng_iters + core_iters) if eng_iters + core_iters else 0.0, "ratio"
        ),
        "exec.cache_hit_ratio": metric(sum(w.cache_hits for w in warm) / gets if gets else 0.0, "ratio"),
        "exec.key_s": metric(_mean(w.entry_self_s.get("ResultCache.key_for", 0.0) for w in warm), "s"),
        "exec.warm_s": metric(statistics.median(r["warm_s"] for r in plain), "s"),
        "trace.setup_s": metric(setup_wall, "s"),
        "trace.host_s": metric(host, "s"),
        "trace.untraced_host_s": metric(untraced, "s"),
        "trace.overhead": metric(host / untraced, "ratio"),
        "trace.self_sum_s": metric(self_sum, "s"),
        "other.self_s": metric(wall - self_sum, "s"),
    })
    within = all(sum(c.self_s.values()) <= r["host_s"] for c, r in zip(colds, traced))
    return m, within


def print_layer_table(metrics: dict) -> None:
    print(f"{'layer':<10} {'calls':>12} {'self_s':>10} {'share':>7}")
    for layer in LAYERS:
        print(
            f"{layer:<10} {metrics[f'{layer}.calls']['value']:>12.0f} "
            f"{metrics[f'{layer}.self_s']['value']:>10.4f} "
            f"{metrics[f'{layer}.share']['value']:>7.1%}"
        )
    print(
        f"{'other':<10} {'':>12} {metrics['other.self_s']['value']:>10.4f} "
        f"(set-up {metrics['trace.setup_s']['value']:.4f} s; traced op "
        f"{metrics['trace.host_s']['value']:.4f} s vs untraced "
        f"{metrics['trace.untraced_host_s']['value']:.4f} s: "
        f"overhead {metrics['trace.overhead']['value']:.3f}x)"
    )


# ------------------------------------------------------------------------ #
# Main
# ------------------------------------------------------------------------ #


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--update-reference",
        action="store_true",
        help="record this run's digests as the references for its input seeds",
    )
    p.add_argument("--probe", choices=("setup", "spin"), help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.probe != "spin" and args.workload is None:
        p.error("--workload is required")
    return args


def _ops(run: Run, n: int, tracer: LayerTracer | None = None, warm: bool = True) -> list[dict]:
    """Up to ``n`` ops, stopping at the first that fails."""
    records = []
    for _ in range(n):
        rec = run.op(tracer, warm)
        if rec is None:
            break
        records.append(rec)
    return records


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.probe:
        return run_probe(args.probe, args.workload, args.seed)
    import_program()
    wl = WORKLOADS[args.workload]
    # The run's inputs: ``inputs`` workloads drawn from consecutive seeds,
    # so a run's median is not one draw's luck.
    seeds = [args.seed * wl.inputs + j for j in range(wl.inputs)]
    if args.trace:
        # Per-layer counts are exact and self times are means per input,
        # so a few inputs suffice and keep the slower traced run short.
        seeds = seeds[:TRACE_INPUTS]
    scratch = ROOT / ".perfbench_tmp" / str(os.getpid())
    references = {} if args.update_reference else load_references(wl.name)
    run = Run(wl, seeds, scratch, references, calibrate=not args.trace)
    print(f"workload={wl.name} seed={args.seed} input_seeds={seeds} "
          f"seconds={args.seconds:g} trace={args.trace}")
    records: list[dict] = []
    try:
        setup_samples = []
        tracer = None
        if args.trace:
            tracer = LayerTracer()
            tracer.install()
            setup_phase = tracer.phase
        else:
            setup_samples = [probe_setup(wl.name, seeds[0]) for _ in range(wl.setup_repeats)]
        t_build = clock()
        run.states = [wl.setup(s) for s in seeds]
        build_s = clock() - t_build
        # What one input's set-up costs this process: its imports plus an
        # even share of building every input.
        setup_wall = t_build - T_START + build_s / len(seeds)
        if tracer is not None:
            tracer.restore()

        deadline = clock() + args.seconds
        if tracer is not None:
            # One untraced then one traced op per input: the counters are
            # exact, and the overhead compares the same inputs.
            plain = _ops(run, len(seeds))
            if len(plain) == len(seeds):
                tracer.install()
                try:
                    records = _ops(run, len(seeds), tracer)
                finally:
                    tracer.restore()
        else:
            # Measure for the run's seconds, and over every input at least
            # once. Warm replays repeat exactly, so each input's first op
            # checks them and later ops are cold passes only.
            records = _ops(run, 1)
            while records and run.failed == 0 and (
                clock() < deadline or run.k < len(seeds)
            ):
                records += _ops(run, 1, warm=run.k < len(seeds))
        print("context " + json.dumps({"seed": args.seed, **machine_context()}, sort_keys=True))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:
            pass

    correct = run.failed == 0 and bool(records)
    if args.trace and len(records) != len(seeds):
        correct = False
    metrics = {}
    if records and args.trace:
        metrics, within = per_layer(setup_phase, len(seeds), setup_wall, plain, records)
        within = within and sum(setup_phase.self_s.values()) <= build_s
        print_layer_table(metrics)
        if not within:
            print("FAILED: layer self times exceed the traced wall", file=sys.stderr)
            correct = False
    elif records:
        metrics = end_to_end(records, run.spins, setup_samples)
    if args.update_reference and correct:
        write_references(wl.name, {s: run.seen[s][0] for s in seeds if s in run.seen})
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
