"""Correctness tooling: the determinism linter (simlint) and the
shared-clock invariant sanitizer (simsan).

The lint tests feed each rule a minimal positive and negative sample
through :func:`lint_source`. The sanitizer tests are mutation-style:
inject the exact fault each rule guards against and assert it raises a
:class:`SanitizerError` carrying the right rule id — plus the golden
identity that a sanitized run is bit-exact with an unsanitized one.
"""

from __future__ import annotations

import dataclasses
import textwrap

import pytest

from repro.check import (
    ALL_RULES,
    LEGAL_TRANSITIONS,
    RULES_BY_ID,
    Sanitizer,
    SanitizerError,
    lint_paths,
    lint_source,
)
from repro.cluster.simulator import ClusterSimulator
from repro.engines.base import EngineOptions, RunHooks
from repro.engines.disaggregated import DisaggregatedEngine, DisaggregationPlan
from repro.engines.vllm_like import VllmLikeEngine
from repro.errors import ConfigurationError
from repro.parallel.config import parse_config
from repro.routing.policies import DEFAULT_STORM_PREEMPTIONS
from repro.runtime.request import Request
from repro.workloads.arrivals import poisson_arrivals
from repro.workloads.synthetic import constant_workload


def rules_of(source: str, rel: str = "src/repro/cluster/mod.py") -> list[str]:
    """Rule ids simlint reports for ``source`` pretending it lives at
    ``rel`` (a path inside the scheduling tree, so every rule applies)."""
    return [f.rule for f in lint_source(textwrap.dedent(source), rel=rel)]


class TestLintRules:
    def test_registry_is_complete(self):
        assert sorted(RULES_BY_ID) == ["R1", "R2", "R3", "R4", "R5", "R6"]
        assert len(ALL_RULES) == 6
        for rule in ALL_RULES:
            assert rule.severity in ("error", "warning")
            assert rule.description

    # R1 — wall-clock reads -------------------------------------------- #

    def test_r1_flags_wallclock_call(self):
        assert "R1" in rules_of("import time\nt = time.time()\n")

    def test_r1_resolves_import_aliases(self):
        assert "R1" in rules_of(
            "from time import perf_counter as pc\nt = pc()\n"
        )

    def test_r1_ignores_virtual_clocks(self):
        src = "def step(self):\n    self.clock = self.next_event_time()\n"
        assert rules_of(src) == []

    def test_r1_exempts_bench(self):
        src = "import time\nt = time.perf_counter()\n"
        assert lint_source(src, rel="src/repro/bench.py") == []

    # R2 — unseeded global RNG ----------------------------------------- #

    def test_r2_flags_global_random(self):
        assert "R2" in rules_of("import random\nx = random.random()\n")

    def test_r2_flags_numpy_global_seed(self):
        assert "R2" in rules_of("import numpy as np\nnp.random.seed(0)\n")

    def test_r2_allows_seeded_generators(self):
        src = (
            "import numpy as np\n"
            "rng = np.random.default_rng(7)\n"
            "x = rng.integers(0, 10)\n"
        )
        assert rules_of(src) == []

    # R3 — iteration-order hazards in scheduling code ------------------ #

    def test_r3_flags_set_iteration(self):
        src = "stepped: set[int] = set()\nfor rid in stepped:\n    pass\n"
        assert "R3" in rules_of(src)

    def test_r3_flags_dict_keys_iteration(self):
        assert "R3" in rules_of("d = {}\nfor k in d.keys():\n    pass\n")

    def test_r3_sorted_is_clean(self):
        src = "stepped: set[int] = set()\nfor rid in sorted(stepped):\n    pass\n"
        assert rules_of(src) == []

    def test_r3_scoped_to_scheduling_dirs(self):
        src = "s = {1, 2}\nfor x in s:\n    pass\n"
        assert lint_source(src, rel="src/repro/analysis/report.py") == []

    # R4 — unguarded telemetry in hot loops ---------------------------- #

    def test_r4_flags_unguarded_probe(self):
        src = (
            "def step(self):\n"
            "    self._probe.tick(self.clock)\n"
        )
        assert "R4" in rules_of(src)

    def test_r4_accepts_none_guard(self):
        src = (
            "def step(self):\n"
            "    if self._probe is not None:\n"
            "        self._probe.tick(self.clock)\n"
        )
        assert rules_of(src) == []

    def test_r4_flags_unguarded_tracer_in_core(self):
        src = (
            "def _reshard(self, state, now, elapsed):\n"
            "    tr = self.hooks.tracing\n"
            "    tr.note_phase(state.replica_id, 'reshard', now, elapsed)\n"
        )
        assert "R4" in rules_of(src, rel="src/repro/core/engine.py")

    def test_r4_flags_unguarded_sanitizer_in_cluster(self):
        src = (
            "def dispatch(self, req, rid, now):\n"
            "    san = self.sanitizer\n"
            "    san.note_dispatch(req, rid, now)\n"
        )
        assert "R4" in rules_of(src, rel="src/repro/cluster/simulator.py")

    def test_r4_accepts_early_return_guard(self):
        src = (
            "def step(self):\n"
            "    if self._probe is None:\n"
            "        return\n"
            "    self._probe.tick(self.clock)\n"
        )
        assert rules_of(src) == []

    # R5 — relative clock accumulation --------------------------------- #

    def test_r5_flags_invariant_increment(self):
        src = (
            "def run(self, dt):\n"
            "    while self.pending:\n"
            "        self.clock += dt\n"
        )
        assert "R5" in rules_of(src)

    def test_r5_allows_loop_varying_increment(self):
        src = (
            "def run(self):\n"
            "    for _ in range(3):\n"
            "        dt = self.iteration_time()\n"
            "        self.clock += dt\n"
        )
        assert rules_of(src) == []

    # R6 — options mutation after construction ------------------------- #

    def test_r6_flags_attribute_write(self):
        assert "R6" in rules_of("def f(opts):\n    opts.chunk_size = 1\n")

    def test_r6_flags_object_setattr(self):
        assert "R6" in rules_of("object.__setattr__(options, 'router', 'jsq')\n")

    def test_r6_allows_construction(self):
        src = (
            "def __init__(self, options):\n"
            "    self.options = options\n"
        )
        assert rules_of(src) == []


#: Built by concatenation so this file's own lines never spell the
#: marker (the suppression scan is line-based and would consume it).
SUPPRESS_R3 = "# repro-check: " + "ignore[R3]"


class TestSuppressions:
    def test_suppression_silences_finding(self):
        src = (
            "d = {}\n"
            f"for k in d.keys():  {SUPPRESS_R3}\n"
            "    pass\n"
        )
        assert rules_of(src) == []

    def test_unused_suppression_is_reported(self):
        src = f"x = 1  {SUPPRESS_R3}\n"
        assert rules_of(src) == ["R0"]

    def test_select_narrows_rules(self):
        src = "import time\nimport random\nt = time.time()\nx = random.random()\n"
        found = lint_source(src, rel="src/repro/cluster/mod.py", select={"R2"})
        assert [f.rule for f in found] == ["R2"]

    def test_unknown_select_rejected(self):
        with pytest.raises(ConfigurationError):
            lint_source("x = 1\n", select={"R99"})


class TestLintPaths:
    def test_syntax_error_becomes_finding(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("def broken(:\n")
        report = lint_paths([bad])
        assert report.files_checked == 1
        assert [f.rule for f in report.findings] == ["E0"]
        assert report.exit_code() == 1

    def test_strict_gates_warnings(self, tmp_path):
        mod = tmp_path / "cluster" / "mod.py"
        mod.parent.mkdir()
        mod.write_text(
            "def run(self, dt):\n"
            "    while self.pending:\n"
            "        self.clock += dt\n"
        )
        report = lint_paths([tmp_path])
        assert report.errors == 0 and report.warnings == 1
        assert report.exit_code() == 0
        assert report.exit_code(strict=True) == 1

    def test_repo_source_is_clean(self):
        import repro

        from pathlib import Path

        report = lint_paths([Path(repro.__file__).parent])
        assert [f.format() for f in report.findings] == []


class TestSanitizerUnits:
    def test_rule_table(self):
        assert ("active", "draining") in LEGAL_TRANSITIONS
        assert ("active", "stopped") not in LEGAL_TRANSITIONS

    def test_s1_replica_clock_regression(self):
        san = Sanitizer()
        san.note_replica_clock(0, 4.0, 5.0)
        with pytest.raises(SanitizerError) as exc:
            san.note_replica_clock(0, 5.0, 4.0)
        assert exc.value.rule == "S1"
        assert exc.value.replica == 0

    def test_s1_cluster_clock_regression(self):
        san = Sanitizer()
        san.note_cluster_clock(10.0)
        with pytest.raises(SanitizerError) as exc:
            san.note_cluster_clock(9.0)
        assert exc.value.rule == "S1"

    def test_s2_late_heap_pop(self):
        san = Sanitizer()
        san.note_event_pop(3.0, 0, 3.0)
        with pytest.raises(SanitizerError) as exc:
            san.note_event_pop(5.0, 0, 3.0)
        assert exc.value.rule == "S2"

    def test_s2_dispatch_before_arrival(self):
        san = Sanitizer()
        req = Request(0, 128, 8, arrival_time=10.0)
        with pytest.raises(SanitizerError) as exc:
            san.note_dispatch(req, 0, 9.0)
        assert exc.value.rule == "S2"

    def test_s5_duplicate_dispatch(self):
        san = Sanitizer()
        req = Request(0, 128, 8, arrival_time=0.0)
        san.note_dispatch(req, 0, 0.0)
        with pytest.raises(SanitizerError) as exc:
            san.note_dispatch(req, 1, 1.0)
        assert exc.value.rule == "S5"

    def test_s5_withdraw_requires_ownership(self):
        san = Sanitizer()
        req = Request(0, 128, 8, arrival_time=0.0)
        san.note_dispatch(req, 0, 0.0)
        with pytest.raises(SanitizerError) as exc:
            san.note_withdraw(req, 1, 1.0)
        assert exc.value.rule == "S5"
        # A legal withdraw releases the id for re-dispatch (the storm path).
        san.note_withdraw(req, 0, 1.0)
        san.note_dispatch(req, 1, 1.0)

    def test_s6_illegal_transition(self):
        san = Sanitizer()
        san.note_transition(0, "provisioning", "warming", 0.0)
        with pytest.raises(SanitizerError) as exc:
            san.note_transition(0, "active", "stopped", 1.0)
        assert exc.value.rule == "S6"

    def test_s6_transition_stamped_before_previous_one(self):
        san = Sanitizer()
        san.note_transition(0, "active", "draining", 5.0)
        with pytest.raises(SanitizerError, match="previous transition") as exc:
            san.note_transition(0, "draining", "stopped", 4.0)
        assert exc.value.rule == "S6"
        assert exc.value.replica == 0
        # Stamps are per replica, and a new run starts a fresh history.
        san.note_transition(1, "draining", "stopped", 4.0)
        san.begin_run()
        san.note_transition(0, "draining", "stopped", 4.0)

    def test_begin_run_resets_ownership(self):
        san = Sanitizer()
        req = Request(0, 128, 8, arrival_time=0.0)
        san.note_dispatch(req, 0, 0.0)
        san.note_cluster_clock(50.0)
        san.begin_run()
        san.note_cluster_clock(0.0)  # fresh run starts earlier: legal
        san.note_dispatch(req, 1, 0.0)  # same id in a new run: legal

    def test_error_message_carries_context(self):
        err = SanitizerError("S1", "boom", time=1.5, replica=3)
        assert "[S1:clock-monotonic]" in str(err)
        assert "t=1.500000" in str(err)
        assert "replica=3" in str(err)


class TestSanitizerConservation:
    def _drained_sim(self, tiny_model, cluster_a10_4):
        engine = VllmLikeEngine(
            tiny_model, cluster_a10_4, parse_config("T2"),
            EngineOptions(coupled=True),
        )
        sim = engine.start_replica(0)
        sim.inject(Request(0, 256, 8, arrival_time=0.0))
        sim.finish()
        return sim

    def test_s3_clean_drain_passes(self, tiny_model, cluster_a10_4):
        sim = self._drained_sim(tiny_model, cluster_a10_4)
        san = Sanitizer()
        san.check_drained(0, sim.run.state, sim.clock)
        assert san.checks["S3"] == 1 and san.checks["S4"] == 1

    def test_s3_undrained_request_caught(self, tiny_model, cluster_a10_4):
        sim = self._drained_sim(tiny_model, cluster_a10_4)
        sim.inject(Request(1, 256, 8, arrival_time=sim.clock + 1.0))
        with pytest.raises(SanitizerError) as exc:
            Sanitizer().check_drained(0, sim.run.state, sim.clock)
        assert exc.value.rule == "S3"

    def test_s3_token_mismatch_caught(self, tiny_model, cluster_a10_4):
        sim = self._drained_sim(tiny_model, cluster_a10_4)
        seq = sim.run.state.finished[0]
        seq.generated_tokens += 1  # fake an extra decoded token
        with pytest.raises(SanitizerError) as exc:
            Sanitizer().check_drained(0, sim.run.state, sim.clock)
        assert exc.value.rule == "S3"
        seq.generated_tokens -= 1

    def test_s4_leaked_block_caught(self, tiny_model, cluster_a10_4):
        sim = self._drained_sim(tiny_model, cluster_a10_4)
        kv = sim.run.state.kv
        kv.allocate(99, 128)  # a sequence the drain never freed
        with pytest.raises(SanitizerError) as exc:
            Sanitizer().check_kv(kv, 0, sim.clock)
        assert exc.value.rule == "S4"
        kv.free(99)

    def test_s4_unbalanced_books_caught(self, tiny_model, cluster_a10_4):
        sim = self._drained_sim(tiny_model, cluster_a10_4)
        kv = sim.run.state.kv
        kv._used += 1  # emulate a double-free re-credit
        with pytest.raises(SanitizerError) as exc:
            Sanitizer().check_kv(kv, 0, sim.clock)
        assert exc.value.rule == "S4"
        kv._used -= 1


class TestSanitizedRuns:
    def _run(self, tiny_model, cluster_a10_4, san):
        wl = poisson_arrivals(
            constant_workload(24, 512, 16), 6.0, seed=11
        )
        engine = VllmLikeEngine(
            tiny_model, cluster_a10_4, parse_config("D2T2"),
            EngineOptions(coupled=True, router="jsq"),
        )
        return engine.run(wl, RunHooks(sanitize=san))

    def test_reference_run_is_violation_free(self, tiny_model, cluster_a10_4):
        san = Sanitizer()
        self._run(tiny_model, cluster_a10_4, san)
        assert san.total_checks > 0
        # Every rule family exercised except the storm-withdraw arm of S5.
        for rule in ("S1", "S2", "S3", "S4", "S5", "S6"):
            assert san.checks[rule] > 0, rule

    @staticmethod
    def _key(result):
        recs = tuple(dataclasses.astuple(r) for r in result.latency.records)
        return (result.throughput_rps, result.total_time, recs)

    def test_sanitize_off_is_bit_exact(self, tiny_model, cluster_a10_4):
        plain = self._run(tiny_model, cluster_a10_4, None)
        checked = self._run(tiny_model, cluster_a10_4, Sanitizer())
        assert self._key(plain) == self._key(checked)

    def test_storm_redispatch_keeps_ownership(self, tiny_model, cluster_a10_4):
        san = Sanitizer()
        engine = VllmLikeEngine(
            tiny_model, cluster_a10_4, parse_config("D2T2"),
            EngineOptions(coupled=True, router="jsq"),
        )
        engine.hooks = RunHooks(sanitize=san)  # as run() attaches them
        reqs = [Request(i, 200, 4, arrival_time=float(i)) for i in range(6)]
        sim = ClusterSimulator(engine, reqs)
        src = sim.sims[0]
        for r in reqs[:3]:
            san.note_dispatch(r, src.replica_id, r.arrival_time)  # as run() does
            src.inject(r)
        src.run.metrics.preemptions = DEFAULT_STORM_PREEMPTIONS
        moved = sim._redispatch_storms(5.0)
        assert moved == 3
        # Ownership followed the re-dispatch: all three ids now live on
        # the calm replica, and none were lost or duplicated.
        assert san._owner == {0: 1, 1: 1, 2: 1}

    def test_options_validation(self, tiny_model, cluster_a10_4):
        wl = constant_workload(4, 256, 8)

        def engine(**opts):
            return VllmLikeEngine(
                tiny_model, cluster_a10_4, parse_config("D2T2"),
                EngineOptions(**opts),
            )

        with pytest.raises(ConfigurationError, match="Sanitizer"):
            RunHooks(sanitize=object())
        # The fluid fidelity carries its own conservation analogs now.
        san = Sanitizer()
        engine(coupled=True, fidelity="fluid").run(wl, RunHooks(sanitize=san))
        assert san.total_checks > 0

    @pytest.mark.parametrize(
        "opts",
        [{}, {"coupled": True, "router": "jsq"}],
        ids=["decoupled", "coupled-jsq"],
    )
    def test_disaggregated_run_is_sanitized(self, tiny_model, cluster_a10_4, opts):
        """Both pools of an online disaggregated run are sanitized (the
        decode pool on the coupled path too), and the result is the
        unsanitized one bit for bit."""
        wl = poisson_arrivals(constant_workload(24, 512, 16), 6.0, seed=11)
        plan = DisaggregationPlan(parse_config("D2"), parse_config("D2"))
        engine = DisaggregatedEngine(
            tiny_model, cluster_a10_4, plan, EngineOptions(**opts)
        )
        plain = engine.run(wl)
        san = Sanitizer()
        checked = engine.run(wl, RunHooks(sanitize=san))
        assert checked == plain
        assert san.checks["S3"] > 0 and san.checks["S4"] > 0

    def test_decoupled_run_is_sanitized(self, tiny_model, cluster_a10_4):
        """The decoupled path notes every planned dispatch (S2, S5), checks
        each replica clock as it steps (S1) and sweeps each replica at
        drain (S3, S4), and the result is the unsanitized one bit for bit."""
        wl = poisson_arrivals(constant_workload(24, 512, 16), 6.0, seed=11)
        engine = VllmLikeEngine(
            tiny_model, cluster_a10_4, parse_config("D2T2"),
            EngineOptions(router="jsq"),
        )
        plain = engine.run(wl)
        san = Sanitizer()
        checked = engine.run(wl, RunHooks(sanitize=san))
        assert self._key(plain) == self._key(checked)
        for rule in ("S1", "S3", "S4", "S5"):
            assert san.checks[rule] > 0, rule
        assert san.checks["S5"] == 24
        assert san.checks["S3"] == san.checks["S4"] == 2  # one per replica

    def test_describe_reports_counts(self, tiny_model, cluster_a10_4):
        san = Sanitizer()
        self._run(tiny_model, cluster_a10_4, san)
        text = san.describe()
        assert "checks passed" in text
        assert "S4 kv-balance" in text
        assert san.summary()["S5"] == 24


class TestFluidSanitizedRuns:
    """simsan on the fluid fidelity: the mean-field conservation analogs
    (S3), plus the usual clock/causality/identity hooks per arrival."""

    def _run(self, tiny_model, cluster_a10_4, san):
        wl = poisson_arrivals(constant_workload(48, 512, 16), 6.0, seed=11)
        engine = VllmLikeEngine(
            tiny_model, cluster_a10_4, parse_config("D2T2"),
            EngineOptions(coupled=True, router="jsq", fidelity="fluid"),
        )
        return engine.run(wl, RunHooks(sanitize=san))

    def test_fluid_run_is_violation_free_and_counted(
        self, tiny_model, cluster_a10_4
    ):
        san = Sanitizer()
        self._run(tiny_model, cluster_a10_4, san)
        # One S1 + S2 + S5 per arrival, one S3 per request timeline plus
        # the drain conservation sweep: --sanitize on the fluid path is
        # not a silent no-op.
        assert san.checks["S1"] == 48
        assert san.checks["S2"] == 48
        assert san.checks["S5"] == 48
        assert san.checks["S3"] == 49

    def test_fluid_sanitize_off_is_bit_exact(self, tiny_model, cluster_a10_4):
        plain = self._run(tiny_model, cluster_a10_4, None)
        checked = self._run(tiny_model, cluster_a10_4, Sanitizer())
        assert plain == checked

    def test_fluid_timeline_ordering_caught(self):
        san = Sanitizer()
        with pytest.raises(SanitizerError) as exc:
            san.note_fluid_request(
                7, 0, arrival=1.0, sched=0.5, first=2.0, finish=3.0
            )
        assert exc.value.rule == "S3"
        with pytest.raises(SanitizerError, match="finish"):
            san.note_fluid_request(
                7, 0, arrival=1.0, sched=1.5, first=2.0, finish=1.9
            )

    def test_fluid_conservation_mismatches_caught(self):
        san = Sanitizer()
        good = dict(
            num_requests=10,
            dispatched=10,
            prompt_tokens=5120,
            served_prompt_tokens=5120.0,
            decode_tokens=150,
            expected_decode_tokens=150,
            total_tokens=5280,
            expected_total_tokens=5280,
            now=100.0,
        )
        san.check_fluid_conservation(**good)
        for field, bad in (
            ("dispatched", 9),
            ("decode_tokens", 151),
            ("total_tokens", 5279),
            ("served_prompt_tokens", 5000.0),
        ):
            with pytest.raises(SanitizerError) as exc:
                san.check_fluid_conservation(**{**good, field: bad})
            assert exc.value.rule == "S3"
        # The prefill-stream check is a float accumulation: tiny drift
        # inside the tolerance must not trip it.
        san.check_fluid_conservation(
            **{**good, "served_prompt_tokens": 5120.0 + 1e-7 * 5120}
        )
