"""Parallel cell executor, cell specs, and the on-disk result cache."""

from __future__ import annotations

import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import repro

from repro.check.goldens import run_goldens
from repro.check.sanitizer import Sanitizer
from repro.cli import main
from repro.core.options import SeesawOptions
from repro.engines.base import EngineOptions, RunHooks
from repro.errors import CapacityError, ConfigurationError
from repro.exec import (
    CellExecutionError,
    CellExecutor,
    CellSpec,
    ResultCache,
    code_salt,
)
from repro.obs import Telemetry, Tracer
from repro.workloads.arrivals import poisson_arrivals
from repro.workloads.synthetic import constant_workload


def test_import_leaves_the_process_pool_unloaded():
    """``import repro.exec`` does not load ``concurrent.futures.process``
    (and the multiprocessing, socket and logging modules behind it): only
    a pooled run (``jobs > 1``) imports it, so inline runs skip its import
    time."""
    src = str(Path(repro.__file__).resolve().parent.parent)
    code = (
        "import sys\n"
        "import repro.exec\n"
        "print('concurrent.futures.process' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    )
    assert proc.stdout.strip() == "False"


def _spec(tiny_model, cluster_a10_4, **overrides) -> CellSpec:
    base = dict(
        engine="vllm",
        model=tiny_model,
        cluster=cluster_a10_4,
        config="T2P2",
        options=EngineOptions(),
        workload=constant_workload(12, 256, 16),
        seed=0,
    )
    base.update(overrides)
    return CellSpec(**base)


class TestCellSpec:
    def test_rejects_unknown_engine(self, tiny_model, cluster_a10_4):
        with pytest.raises(ConfigurationError, match="unknown engine kind"):
            _spec(tiny_model, cluster_a10_4, engine="bogus")

    def test_config_shape_validation(self, tiny_model, cluster_a10_4):
        with pytest.raises(ConfigurationError, match="transition config"):
            _spec(
                tiny_model, cluster_a10_4,
                engine="seesaw", config="T2P2", options=SeesawOptions(),
            )
        with pytest.raises(ConfigurationError, match="SeesawOptions"):
            _spec(tiny_model, cluster_a10_4, engine="seesaw", config="P2->T2")
        with pytest.raises(ConfigurationError, match="disagg"):
            _spec(tiny_model, cluster_a10_4, engine="disagg", config="T2P2")
        with pytest.raises(ConfigurationError, match="static config label"):
            _spec(tiny_model, cluster_a10_4, config="P2->T2")

    def test_cell_key_stable_across_constructions(
        self, tiny_model, cluster_a10_4
    ):
        a = _spec(tiny_model, cluster_a10_4)
        b = _spec(tiny_model, cluster_a10_4)
        assert a.cell_key == b.cell_key
        assert a.canonical_json() == b.canonical_json()

    def test_cell_key_distinguishes_every_axis(self, tiny_model, cluster_a10_4):
        base = _spec(tiny_model, cluster_a10_4)
        variants = [
            _spec(tiny_model, cluster_a10_4, seed=1),
            _spec(tiny_model, cluster_a10_4, config="T4"),
            _spec(
                tiny_model, cluster_a10_4,
                options=EngineOptions(chunked_prefill=True),
            ),
            _spec(
                tiny_model, cluster_a10_4,
                workload=constant_workload(12, 256, 17),
            ),
            _spec(
                tiny_model, cluster_a10_4,
                workload=poisson_arrivals(
                    constant_workload(12, 256, 16), 4.0, seed=3
                ),
            ),
        ]
        keys = {base.cell_key, *(v.cell_key for v in variants)}
        assert len(keys) == 1 + len(variants)

    def test_spec_pickles(self, tiny_model, cluster_a10_4):
        spec = _spec(tiny_model, cluster_a10_4)
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec
        assert clone.cell_key == spec.cell_key

    def test_po2_router_seed_derived_deterministically(
        self, tiny_model, cluster_a10_4
    ):
        spec = _spec(
            tiny_model, cluster_a10_4,
            config="D2T2",
            options=EngineOptions(router="po2"),
            workload=poisson_arrivals(
                constant_workload(12, 256, 16), 4.0, seed=3
            ),
        )
        first = spec._resolved_options()
        second = spec._resolved_options()
        assert first.router_seed is not None
        assert first.router_seed == second.router_seed
        # A different cell identity decorrelates the derived seed.
        other = _spec(
            tiny_model, cluster_a10_4,
            config="D2T2",
            options=EngineOptions(router="po2"),
            workload=poisson_arrivals(
                constant_workload(12, 256, 16), 4.0, seed=3
            ),
            seed=1,
        )
        assert other._resolved_options().router_seed != first.router_seed

    def test_po2_derived_seed_ignores_the_options_schema(
        self, tiny_model, cluster_a10_4
    ):
        """The derived seed keys on the cell minus its options, so a knob
        added or dropped from the options schema does not re-route
        unseeded po2 cells; the cell seed and workload still decorrelate."""
        wl = poisson_arrivals(constant_workload(12, 256, 16), 4.0, seed=3)

        def seed_of(**overrides):
            cell = {"options": EngineOptions(router="po2"), "workload": wl}
            spec = _spec(
                tiny_model, cluster_a10_4, config="D2T2", **{**cell, **overrides}
            )
            return spec._resolved_options().router_seed

        base = seed_of()
        assert seed_of(options=EngineOptions(router="po2", max_num_seqs=7)) == base
        assert seed_of(seed=1) != base
        other_wl = poisson_arrivals(constant_workload(12, 256, 16), 4.0, seed=4)
        assert seed_of(workload=other_wl) != base


def _mixed_cells(tiny_model, cluster_a10_4) -> list[CellSpec]:
    """Small cells covering all four engines plus coupled/fluid and a
    derived-seed po2 router — the shapes the determinism contract must
    hold across worker boundaries."""
    const = constant_workload(12, 256, 16)
    online = poisson_arrivals(constant_workload(16, 256, 16), 4.0, seed=3)
    return [
        _spec(tiny_model, cluster_a10_4),
        _spec(tiny_model, cluster_a10_4, engine="decode-prio", config="T4"),
        _spec(
            tiny_model, cluster_a10_4,
            engine="seesaw", config="P2->T2", options=SeesawOptions(),
        ),
        _spec(
            tiny_model, cluster_a10_4,
            engine="disagg", config="T2|T2", workload=const,
        ),
        _spec(
            tiny_model, cluster_a10_4,
            config="D2T2",
            options=EngineOptions(
                router="jsq", coupled=True, fidelity="fluid"
            ),
            workload=online,
        ),
        _spec(
            tiny_model, cluster_a10_4,
            config="D2T2",
            options=EngineOptions(router="po2", coupled=True),
            workload=online,
        ),
    ]


class TestCellExecutor:
    def test_serial_matches_direct_execution(self, tiny_model, cluster_a10_4):
        specs = _mixed_cells(tiny_model, cluster_a10_4)
        serial = CellExecutor(jobs=1).run(specs)
        direct = [spec.execute() for spec in specs]
        assert serial == direct

    def test_parallel_bit_identical_to_serial(self, tiny_model, cluster_a10_4):
        specs = _mixed_cells(tiny_model, cluster_a10_4)
        serial = CellExecutor(jobs=1).run(specs)
        parallel = CellExecutor(jobs=2).run(specs)
        assert parallel == serial

    def test_outcomes_carry_rss_and_order(self, tiny_model, cluster_a10_4):
        specs = _mixed_cells(tiny_model, cluster_a10_4)[:2]
        outcomes = CellExecutor(jobs=2).run_outcomes(specs)
        assert [o.spec for o in outcomes] == specs
        assert all(not o.cached for o in outcomes)
        assert all(o.peak_rss_mb > 0 for o in outcomes)

    def test_rejects_bad_jobs(self):
        with pytest.raises(ConfigurationError, match="--jobs"):
            CellExecutor(jobs=0)

    def test_worker_failure_raises_with_spec(self, tiny_model, cluster_a10_4):
        doomed = _spec(
            tiny_model, cluster_a10_4,
            workload=constant_workload(1, 5_000_000, 1),
        )
        with pytest.raises(CellExecutionError) as excinfo:
            CellExecutor(jobs=2).run([doomed])
        err = excinfo.value
        assert err.spec == doomed
        assert err.exc_type == "CapacityError"
        assert "5000000" in str(err) or "5,000,000" in str(err)
        assert doomed.describe() in str(err)
        assert "Traceback" in err.child_traceback

    def test_inline_failure_raises_raw_exception(
        self, tiny_model, cluster_a10_4
    ):
        # Inline cells run in this process, so the original exception
        # type propagates unwrapped.
        doomed = _spec(
            tiny_model, cluster_a10_4,
            workload=constant_workload(1, 5_000_000, 1),
        )
        with pytest.raises(CapacityError):
            CellExecutor(jobs=1).run([doomed])


def _hooked_cells(tiny_model, cluster_a10_4):
    """A coupled JSQ cell every hook instruments, plus (hook name, hooks,
    "did the hook observe a run?") for each process-local hook."""
    online = poisson_arrivals(constant_workload(16, 256, 16), 4.0, seed=3)
    spec = _spec(
        tiny_model, cluster_a10_4,
        config="D2T2",
        options=EngineOptions(router="jsq", coupled=True),
        workload=online,
    )
    san, tel, tracer = Sanitizer(), Telemetry(), Tracer("all")
    return spec, [
        ("sanitize", RunHooks(sanitize=san), lambda: sum(san.checks.values()) > 0),
        ("telemetry", RunHooks(telemetry=tel), lambda: len(tel.events) > 0),
        ("tracing", RunHooks(tracing=tracer), lambda: len(tracer.traces) > 0),
    ]


class TestHookedCells:
    """Hooks ride on the executor: its inline runs are observed; a pooled
    or cached executor refuses hooks at construction, before any cell
    runs."""

    def test_hooks_observe_inline_runs(self, tiny_model, cluster_a10_4):
        spec, hooked = _hooked_cells(tiny_model, cluster_a10_4)
        (plain,) = CellExecutor().run([spec])
        for name, hooks, observed in hooked:
            assert not observed()
            (result,) = CellExecutor(hooks=hooks).run([spec])
            assert observed(), name
            assert result == plain, name

    def test_trace_flag_is_a_hook(self, tiny_model, cluster_a10_4):
        """The ``--timeline`` schedule is the tracer's phase track: the
        executor's inline run records it, and a pool refuses it like any
        other hook."""
        tracer = Tracer("p99_exemplars")
        CellExecutor(hooks=RunHooks(tracing=tracer)).run(
            [_spec(tiny_model, cluster_a10_4)]
        )
        assert tracer.phase_replicas() == [0]
        assert tracer.phases(0)
        with pytest.raises(ConfigurationError, match="hooks"):
            CellExecutor(jobs=2, hooks=RunHooks(tracing=Tracer()))

    def test_pool_refuses_before_running(self, tiny_model, cluster_a10_4):
        _, hooked = _hooked_cells(tiny_model, cluster_a10_4)
        for name, hooks, observed in hooked:
            with pytest.raises(ConfigurationError, match="--sanitize is incompatible"):
                CellExecutor(jobs=2, hooks=hooks)
            assert not observed(), name

    def test_cache_refuses_before_running(
        self, tmp_path, tiny_model, cluster_a10_4
    ):
        cache = ResultCache(root=tmp_path)
        _, hooked = _hooked_cells(tiny_model, cluster_a10_4)
        for name, hooks, observed in hooked:
            with pytest.raises(ConfigurationError, match="cache"):
                CellExecutor(jobs=1, cache=cache, hooks=hooks)
            assert not observed(), name
        assert cache.stats().entries == 0
        assert cache.hits == 0 and cache.misses == 0


class TestResultCache:
    def test_miss_then_hit_bit_identical(
        self, tmp_path, tiny_model, cluster_a10_4
    ):
        spec = _spec(tiny_model, cluster_a10_4)
        cache = ResultCache(root=tmp_path)
        executor = CellExecutor(jobs=1, cache=cache)
        (cold,) = executor.run_outcomes([spec])
        (warm,) = executor.run_outcomes([spec])
        assert not cold.cached and warm.cached
        assert warm.result == cold.result
        assert warm.peak_rss_mb == 0.0
        assert cache.hits == 1 and cache.misses == 1

    def test_pooled_run_populates_cache(self, tmp_path, tiny_model, cluster_a10_4):
        specs = _mixed_cells(tiny_model, cluster_a10_4)[:2]
        cold = CellExecutor(jobs=2, cache=ResultCache(root=tmp_path)).run(specs)
        warm_cache = ResultCache(root=tmp_path)
        warm = CellExecutor(jobs=2, cache=warm_cache).run_outcomes(specs)
        assert all(o.cached for o in warm)
        assert [o.result for o in warm] == cold
        assert warm_cache.hits == len(specs)

    def test_code_salt_invalidates(self, tmp_path, tiny_model, cluster_a10_4):
        spec = _spec(tiny_model, cluster_a10_4)
        old = ResultCache(root=tmp_path, salt="old-code")
        executor = CellExecutor(jobs=1, cache=old)
        (outcome,) = executor.run_outcomes([spec])
        new = ResultCache(root=tmp_path, salt="new-code")
        assert new.get(spec) is None
        # The old generation's entry is untouched on disk.
        assert old.get(spec) == outcome.result

    def test_corrupted_entry_recovers(self, tmp_path, tiny_model, cluster_a10_4):
        spec = _spec(tiny_model, cluster_a10_4)
        cache = ResultCache(root=tmp_path)
        executor = CellExecutor(jobs=1, cache=cache)
        (cold,) = executor.run([spec])
        path = cache.path_for(spec)
        path.write_bytes(b"not a pickle")
        assert cache.get(spec) is None
        assert not path.exists()
        # The executor transparently re-simulates and re-populates.
        (again,) = executor.run([spec])
        assert again == cold
        assert cache.get(spec) == cold

    def test_wrong_payload_shape_is_a_miss(
        self, tmp_path, tiny_model, cluster_a10_4
    ):
        spec = _spec(tiny_model, cluster_a10_4)
        cache = ResultCache(root=tmp_path)
        path = cache.path_for(spec)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(pickle.dumps({"schema": "other", "result": 42}))
        assert cache.get(spec) is None
        assert not path.exists()

    def test_stats_and_clear(self, tmp_path, tiny_model, cluster_a10_4):
        spec = _spec(tiny_model, cluster_a10_4)
        for salt in ("gen-a", "gen-b"):
            cache = ResultCache(root=tmp_path, salt=salt)
            CellExecutor(jobs=1, cache=cache).run([spec])
        cache = ResultCache(root=tmp_path, salt="gen-b")
        stats = cache.stats()
        assert stats.generations == 2
        assert stats.entries == 2
        assert stats.current_entries == 1
        assert stats.total_bytes > 0
        assert cache.clear() == 2
        empty = cache.stats()
        assert empty.entries == 0 and empty.current_entries == 0

    def test_code_salt_is_stable(self):
        assert code_salt() == code_salt()
        assert len(code_salt()) == 16


class TestGoldensExecutorPath:
    def test_goldens_pass_through_executor_and_cache(self, tmp_path):
        names = ("vllm_plain", "disagg")
        cache = ResultCache(root=tmp_path)
        executor = CellExecutor(jobs=1, cache=cache)
        outcomes = run_goldens(names, executor=executor)
        assert all(o.passed for o in outcomes)
        assert cache.misses == len(names) and cache.hits == 0
        again = run_goldens(names, executor=executor)
        assert all(o.passed for o in again)
        assert cache.hits == len(names)


SWEEP_ARGS = [
    "sweep",
    "--model", "34b",
    "--dataset", "const:256x16",
    "--num-requests", "6",
    "--num-gpus", "4",
]


class TestCliExecFlags:
    def test_sweep_stdout_byte_identical_across_jobs(self, capsys):
        assert main([*SWEEP_ARGS, "--jobs", "1"]) == 0
        serial = capsys.readouterr().out
        assert main([*SWEEP_ARGS, "--jobs", "2"]) == 0
        parallel = capsys.readouterr().out
        assert parallel == serial

    def test_sweep_cache_keeps_stdout_and_reports_on_stderr(
        self, tmp_path, capsys
    ):
        cache_dir = str(tmp_path / "cache")
        assert main(SWEEP_ARGS) == 0
        plain = capsys.readouterr().out
        assert main([*SWEEP_ARGS, "--cache-dir", cache_dir]) == 0
        cold = capsys.readouterr()
        assert cold.out == plain
        assert "cache:" in cold.err and "0 hit(s)" in cold.err
        assert main([*SWEEP_ARGS, "--cache-dir", cache_dir]) == 0
        warm = capsys.readouterr()
        assert warm.out == plain
        assert "0 miss(es)" in warm.err

    def test_cache_stats_and_clear_commands(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        assert main([*SWEEP_ARGS, "--cache-dir", cache_dir]) == 0
        capsys.readouterr()
        assert main(["cache", "stats", "--cache-dir", cache_dir]) == 0
        stats_out = capsys.readouterr().out
        assert "entries" in stats_out and code_salt() in stats_out
        assert main(["cache", "clear", "--cache-dir", cache_dir]) == 0
        assert "removed" in capsys.readouterr().out
        assert main(["cache", "stats", "--cache-dir", cache_dir]) == 0
        assert "entries         : 0" in capsys.readouterr().out

    def test_sanitize_is_incompatible_with_exec_flags(self, capsys):
        rc = main([*SWEEP_ARGS, "--coupled", "--sanitize", "--jobs", "2"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "--sanitize is incompatible" in err

    def test_goldens_cli_accepts_jobs(self, capsys):
        rc = main(["check", "goldens", "vllm_plain", "--jobs", "2"])
        assert rc == 0
        assert "PASS" in capsys.readouterr().out
