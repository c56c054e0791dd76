"""The benchmark's workloads: what each one builds, runs and digests.

A workload has three parts:

* ``setup(seed)`` — the work a user pays before the simulation starts:
  workload synthesis and cell construction (imports are paid by the
  process itself). Its return value is the op's state.
* ``op(state, cache_dir)`` — one closed-loop operation, run serially in
  this process through the public API. The first call on an empty
  ``cache_dir`` is the cold pass; a repeat call on the filled directory
  is the warm replay. Returns an :class:`OpOutput`.
* a digest of the simulated output, so every op is checked against the
  committed reference and against every other op of the run.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import pickle
import re
from dataclasses import dataclass, replace
from pathlib import Path


@dataclass
class OpOutput:
    digest: str
    sim_requests: int  # simulated requests finished by the op
    cache_hits: int
    cache_misses: int
    text: str = ""  # compare stdout (empty for the executor workloads)


def result_summary(result) -> dict:
    """Canonical summary of one :class:`EngineResult`: throughput,
    ``total_time``, iterations, latency percentiles and fleet stats.
    Floats are written in hex so the digest is bit-exact."""
    out = {
        "label": result.label,
        "num_requests": result.num_requests,
        "total_time": result.total_time.hex(),
        "throughput_rps": result.throughput_rps.hex(),
        "iterations": result.iterations,
        "transitions": result.transitions,
        "input_tokens": result.input_tokens,
        "output_tokens": result.output_tokens,
    }
    lat = result.latency
    if lat is not None:
        for name in ("ttft", "tpot", "e2e", "queue_delay"):
            s = getattr(lat, name)
            out[name] = [s.count, s.p50.hex(), s.p90.hex(), s.p99.hex()]
        out["preemptions"] = lat.total_preemptions
    router = result.router
    if router is not None:
        out["redispatches"] = router.redispatches
        fleet = router.fleet
        if fleet is not None:
            out["fleet"] = [
                fleet.peak_dp,
                fleet.mean_dp.hex(),
                fleet.scale_ups,
                fleet.scale_downs,
                fleet.replica_seconds.hex(),
            ]
    return out


def digest_of(payload: str) -> str:
    return hashlib.sha256(payload.encode()).hexdigest()[:32]


class CompareOffline:
    """The paper's experiment: autotuned ``repro compare`` (vLLM-best vs
    Seesaw-best) for 34b on 8xA10 over arxiv prompts, offline, through
    ``repro.cli.main`` in-process with a fresh ``--cache-dir``."""

    name = "compare_offline"
    num_requests = 750
    inputs = 20
    setup_repeats = 5
    warm_repeats = 5

    def setup(self, seed: int):
        from repro.cli import main

        argv = [
            "compare", "--model", "34b", "--gpu", "A10", "--num-gpus", "8",
            "--dataset", "arxiv", "--num-requests", str(self.num_requests),
            "--seed", str(seed),
        ]
        return main, argv

    def op(self, state, cache_dir: Path) -> OpOutput:
        main, argv = state
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main([*argv, "--cache-dir", str(cache_dir)])
        if rc != 0:
            raise RuntimeError(f"repro compare exited {rc}: {err.getvalue().strip()}")
        m = re.search(r"cache: (\d+) hit\(s\), (\d+) miss\(es\)", err.getvalue())
        if m is None:
            raise RuntimeError("repro compare printed no cache report")
        text = out.getvalue()
        return OpOutput(
            digest=digest_of(text),
            sim_requests=0,
            cache_hits=int(m.group(1)),
            cache_misses=int(m.group(2)),
            text=text,
        )

    def simulated(self, out: OpOutput, cache_dir: Path) -> int:
        """Requests the cold pass simulated: every cell it ran is one
        cache entry, and each entry's result counts its requests."""
        total = 0
        for path in sorted(cache_dir.glob("*/*.pkl")):
            # Entries this process wrote moments ago in its own directory.
            total += pickle.loads(path.read_bytes())["result"].num_requests
        return total

    @staticmethod
    def speedup(text: str) -> float:
        """Seesaw-best over vLLM-best simulated throughput, from the
        comparison table's req/s column (4 decimals each)."""
        rates = {}
        for line in text.splitlines():
            cells = [c.strip() for c in line.strip().strip("|").split("|")]
            if len(cells) > 2 and cells[0].split(" ")[0] in ("vllm", "seesaw"):
                rates[cells[0].split(" ")[0]] = float(cells[1])
            if len(rates) == 2:  # later tables repeat the row names
                break
        return rates["seesaw"] / rates["vllm"]


class FluidDay:
    """Fluid tier: a diurnal day at 140 req/s on a 400xA10 cluster that
    starts at 20 T2 replicas and may grow to 200 (threshold autoscaler),
    solved with ``fidelity="fluid"`` and run as one cell through
    ``CellExecutor(jobs=1)`` with a result cache, the way
    ``repro sweep --cache`` runs cells. The day-shape is the 1M-request
    day's (period 8640 s at 1M requests) compressed in proportion to the
    request count."""

    name = "fluid_day"
    num_requests = 50_000
    rate_rps = 140.0
    inputs = 8
    setup_repeats = 5
    warm_repeats = 1

    def setup(self, seed: int):
        from repro.engines.base import EngineOptions
        from repro.exec import CellSpec
        from repro.hardware.cluster import make_cluster
        from repro.models.registry import get_model
        from repro.workloads.arrivals import diurnal_arrivals
        from repro.workloads.datasets import sharegpt_workload

        workload = diurnal_arrivals(
            sharegpt_workload(num_requests=self.num_requests, seed=seed),
            rate_rps=self.rate_rps,
            period_s=8640.0 * self.num_requests / 1_000_000,
            seed=seed,
        )
        return CellSpec(
            engine="vllm",
            model=get_model("15b"),
            cluster=make_cluster("A10", 400),
            config="D20T2",
            options=EngineOptions(
                router="jsq", coupled=True, fidelity="fluid",
                autoscaler="threshold", min_dp=20, max_dp=200,
            ),
            workload=workload,
            seed=seed,
        )

    def op(self, state, cache_dir: Path) -> OpOutput:
        from repro.exec import CellExecutor, ResultCache

        executor = CellExecutor(jobs=1, cache=ResultCache(root=cache_dir))
        # A fresh spec per op: the spec memoizes its canonical form, and
        # every op must pay for keying the cell as a user's run does.
        result = executor.run([replace(state)])[0]
        summary = result_summary(result)
        return OpOutput(
            digest=digest_of(json.dumps(summary, sort_keys=True)),
            sim_requests=result.num_requests,
            cache_hits=executor.cache.hits,
            cache_misses=executor.cache.misses,
        )

    def simulated(self, out: OpOutput, cache_dir: Path) -> int:
        return out.sim_requests


WORKLOADS = {w.name: w for w in (CompareOffline(), FluidDay())}
