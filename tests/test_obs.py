"""The telemetry subsystem (``repro.obs``).

Contracts pinned by this PR:

1. **Zero overhead when off** — no hub in ``RunHooks`` (the default) leaves
   every engine on its exact pre-telemetry path: results match the seed
   goldens bit-for-bit (pinned elsewhere) and, stronger, attaching a hub
   must not perturb the simulation at all — telemetry-on and
   telemetry-off runs produce identical results on every engine and on
   the coupled/autoscaled/fluid paths.
2. **One schema for every tier** — coupled, decoupled and fluid runs
   emit the same ``cluster.* `` / windowed series names.
3. **Grid sampling** — probes and ``boundaries()`` emit on the fixed
   interval grid starting at 0, no duplicates, irregular call times.
4. **Artifact roundtrip** — ``write_jsonl`` then ``load_jsonl``
   reconstructs series, events, meta and counters.
5. **Reasons** — every autoscaler scale action carries a human-readable
   ``reason``, surfaced in ``fleet_table`` and the dashboard.
"""

import json
import math

import pytest

from repro.analysis.report import fleet_table, telemetry_table
from repro.engines.base import EngineOptions, RunHooks
from repro.engines.decode_prioritized import DecodePrioritizedEngine
from repro.engines.vllm_like import VllmLikeEngine
from repro.errors import ConfigurationError
from repro.obs import (
    DEFAULT_MAX_EVENTS,
    Counter,
    Histogram,
    Telemetry,
    Tracer,
    load_jsonl,
    percentiles,
    render_dashboard,
    sparkline,
    worst_windows,
    write_csv,
    write_jsonl,
)
from repro.parallel.config import parse_config
from repro.workloads.arrivals import diurnal_arrivals, poisson_arrivals
from repro.workloads.synthetic import constant_workload


def assert_results_identical(a, b):
    assert a.total_time == b.total_time
    assert a.phase_time == b.phase_time
    assert a.iterations == b.iterations
    assert a.transitions == b.transitions
    if a.latency is not None:
        assert b.latency is not None
        for ra, rb in zip(a.latency.records, b.latency.records):
            assert ra == rb


# --------------------------------------------------------------------- #
# Instruments
# --------------------------------------------------------------------- #


class TestInstruments:
    def test_counter_and_gauge(self):
        tel = Telemetry()
        tel.counter("reqs").inc()
        tel.counter("reqs").inc(2)
        tel.gauge("depth").set(7)
        assert tel.counter("reqs").value == 3
        assert tel.gauge("depth").value == 7.0

    def test_counter_rejects_negative(self):
        with pytest.raises(ConfigurationError):
            Counter("x").inc(-1)

    def test_histogram_percentiles_match_linear_interpolation(self):
        import numpy as np

        h = Histogram("ttft")
        values = [0.3, 1.1, 0.2, 5.0, 0.9, 2.4, 0.05]
        for i, v in enumerate(values):
            h.observe(float(i), v)
        got = h.percentiles((50, 90, 99))
        want = tuple(float(np.percentile(values, q)) for q in (50, 90, 99))
        assert got == pytest.approx(want)

    def test_histogram_windows_bucket_by_time(self):
        h = Histogram("ttft")
        h.observe(0.5, 1.0)
        h.observe(0.9, 3.0)
        h.observe(2.5, 10.0)
        wins = h.windows(1.0)
        assert [w for w, _ in wins] == [1.0, 3.0]
        assert wins[0][1][0] == 2.0  # p50 of [1, 3]
        assert wins[1][1] == (10.0, 10.0, 10.0)

    def test_percentiles_empty_is_nan(self):
        assert all(math.isnan(v) for v in percentiles([]))

    def test_event_log_caps_and_counts_drops(self):
        tel = Telemetry(max_events=3)
        for i in range(5):
            tel.event(float(i), "dispatch", request_id=i)
        assert len(tel.events) == 3
        assert tel.dropped_events == 2
        assert Telemetry().max_events == DEFAULT_MAX_EVENTS


class TestBoundaries:
    def test_grid_starts_at_zero_without_duplicates(self):
        tel = Telemetry(interval_s=1.0)
        assert tel.boundaries("c", 2.5) == [0.0, 1.0, 2.0]
        assert tel.boundaries("c", 2.9) == []
        assert tel.boundaries("c", 4.0) == [3.0, 4.0]

    def test_custom_interval(self):
        tel = Telemetry(interval_s=1.0)
        assert tel.boundaries("f", 1.0, interval=0.5) == [0.0, 0.5, 1.0]

    def test_keys_are_independent(self):
        tel = Telemetry()
        tel.boundaries("a", 5.0)
        assert tel.boundaries("b", 0.0) == [0.0]

    def test_rejects_bad_interval(self):
        with pytest.raises(ConfigurationError):
            Telemetry(interval_s=0.0)


# --------------------------------------------------------------------- #
# Zero-overhead contract: telemetry must not perturb the simulation
# --------------------------------------------------------------------- #


class TestZeroOverheadContract:
    def run_pair(self, make_engine, workload):
        off = make_engine().run(workload)
        tel = Telemetry()
        on = make_engine().run(workload, RunHooks(telemetry=tel))
        return off, on, tel

    def test_decoupled_identical(self, tiny_model, cluster_a10_4):
        wl = poisson_arrivals(constant_workload(16, 256, 16), 4.0, seed=1)
        off, on, tel = self.run_pair(
            lambda: VllmLikeEngine(
                tiny_model,
                cluster_a10_4,
                parse_config("D2T2"),
                EngineOptions(),
            ),
            wl,
        )
        assert_results_identical(off, on)
        assert tel.series["replica0.running"]
        assert tel.series["replica1.kv_util"]

    def test_coupled_identical(self, tiny_model, cluster_a10_4):
        wl = poisson_arrivals(constant_workload(24, 256, 16), 6.0, seed=2)
        off, on, tel = self.run_pair(
            lambda: VllmLikeEngine(
                tiny_model,
                cluster_a10_4,
                parse_config("D2T2"),
                EngineOptions(coupled=True, router="jsq"),
            ),
            wl,
        )
        assert_results_identical(off, on)
        assert tel.series["cluster.active_dp"]
        assert tel.events_of("dispatch")

    def test_decode_prio_identical(self, tiny_model, cluster_a10_4):
        wl = constant_workload(12, 256, 16)
        off, on, _ = self.run_pair(
            lambda: DecodePrioritizedEngine(
                tiny_model,
                cluster_a10_4,
                parse_config("T4"),
                EngineOptions(),
            ),
            wl,
        )
        assert_results_identical(off, on)

    def test_autoscaled_identical(self, tiny_model, cluster_a10_4):
        wl = diurnal_arrivals(constant_workload(128, 2048, 16), 16.0, 20.0, seed=3)
        off, on, tel = self.run_pair(
            lambda: VllmLikeEngine(
                tiny_model,
                cluster_a10_4,
                parse_config("T2"),
                EngineOptions(
                    coupled=True,
                    router="jsq",
                    autoscaler="threshold",
                    min_dp=1,
                    max_dp=2,
                ),
            ),
            wl,
        )
        assert_results_identical(off, on)
        assert tel.series["cluster.provisioning"]

    def test_fluid_identical_and_same_schema(self, tiny_model, cluster_a10_4):
        wl = poisson_arrivals(constant_workload(32, 256, 16), 8.0, seed=4)
        off, on, tel = self.run_pair(
            lambda: VllmLikeEngine(
                tiny_model,
                cluster_a10_4,
                parse_config("D2T2"),
                EngineOptions(
                    coupled=True, router="jsq", fidelity="fluid"
                ),
            ),
            wl,
        )
        assert off.total_time == on.total_time
        for name in (
            "cluster.active_dp",
            "cluster.queued_prefill_tokens",
            "cluster.arrival_rate",
            "slo.burn_rate",
        ):
            assert tel.series[name], name

    def test_rejects_non_hub(self):
        with pytest.raises(ConfigurationError):
            RunHooks(telemetry=object())


# --------------------------------------------------------------------- #
# Probes and grid alignment
# --------------------------------------------------------------------- #


class TestSampledSeries:
    def test_samples_land_on_the_interval_grid(self, tiny_model, cluster_a10_4):
        tel = Telemetry(interval_s=0.5)
        wl = poisson_arrivals(constant_workload(20, 512, 16), 5.0, seed=5)
        VllmLikeEngine(
            tiny_model,
            cluster_a10_4,
            parse_config("D2T2"),
            EngineOptions(coupled=True, router="jsq"),
        ).run(wl, RunHooks(telemetry=tel))
        for name in ("replica0.queued_prefill_tokens", "cluster.active_dp"):
            times = [t for t, _ in tel.series[name]]
            assert times == sorted(times)
            for t in times:
                assert abs(t / 0.5 - round(t / 0.5)) < 1e-6, (name, t)

    def test_fold_emits_windowed_slo_series(self, tiny_model, cluster_a10_4):
        tel = Telemetry()
        wl = poisson_arrivals(constant_workload(16, 512, 16), 8.0, seed=6)
        VllmLikeEngine(
            tiny_model,
            cluster_a10_4,
            parse_config("T2"),
            EngineOptions(
                coupled=True,
                router="jsq",
                ttft_slo=1e-6,  # unattainable: every window burns
            ),
        ).run(wl, RunHooks(telemetry=tel))
        burn = [v for _, v in tel.series["slo.burn_rate"]]
        att = [v for _, v in tel.series["slo.attainment"]]
        assert any(v > 0 for v in burn)
        assert all(0.0 <= a <= 1.0 for a in att)
        # burn = (1 - attainment) / budget, window by window
        for a, b in zip(att, burn):
            assert b == pytest.approx((1.0 - a) / tel.slo_budget)

    def test_fold_is_idempotent(self, tiny_model, cluster_a10_4):
        tel = Telemetry()
        wl = diurnal_arrivals(constant_workload(128, 2048, 16), 16.0, 20.0, seed=3)
        result = VllmLikeEngine(
            tiny_model,
            cluster_a10_4,
            parse_config("T2"),
            EngineOptions(
                coupled=True,
                router="jsq",
                autoscaler="threshold",
                max_dp=2,
            ),
        ).run(wl, RunHooks(telemetry=tel))
        before_series = {k: list(v) for k, v in tel.series.items()}
        before_scale = len(tel.events_of("scale"))
        tel.fold_result(result)
        assert tel.series == before_series
        assert len(tel.events_of("scale")) == before_scale

    @pytest.mark.parametrize("slos", [(None, None), (0.4, None), (None, 0.3), (0.4, 0.3)])
    def test_fold_matches_per_record_oracle(self, slos):
        """The fold reads the latency columns; the per-record walk it
        replaced is the oracle, on rows out of request-id order, with
        single-token requests (no TPOT) and an empty window."""
        from types import SimpleNamespace

        from repro.obs.telemetry import percentiles
        from repro.runtime.latency import LatencyStats

        n = 240
        arrival = [0.05 * i for i in range(n)]
        first = [a + 0.1 * (i % 9) for i, a in enumerate(arrival)]
        finish = [f + 0.4 * (i % 4) + (30.0 if i % 50 == 0 else 0.0)
                  for i, f in enumerate(first)]
        lat = LatencyStats.from_columns(
            request_id=list(range(n, 0, -1)),
            arrival=arrival,
            first_schedule=arrival,
            first_token=first,
            finish=finish,
            output_len=[1 + (i % 3) for i in range(n)],
        )
        total = max(finish)
        tel = Telemetry()
        ttft_slo, tpot_slo = slos
        tel.fold_result(
            SimpleNamespace(engine="e", label="l", num_requests=n, total_time=total,
                            latency=lat, router=None),
            ttft_slo=ttft_slo, tpot_slo=tpot_slo,
        )
        window = tel.window_s(total)
        n_windows = max(1, math.ceil(total / window - 1e-9))
        arrivals = [0] * n_windows
        finished = [[] for _ in range(n_windows)]
        for r in lat.records:
            arrivals[min(int(r.arrival_time / window), n_windows - 1)] += 1
            finished[min(int(r.finish_time / window), n_windows - 1)].append(r)
        want = {"cluster.arrival_rate": [], "slo.attainment": []}
        for q in (50, 90, 99):
            want[f"ttft.p{q}"] = []
            want[f"tpot.p{q}"] = []
        for i, sub in enumerate(finished):
            t_end = (i + 1) * window
            want["cluster.arrival_rate"].append((t_end, arrivals[i] / window))
            att = 1.0
            if sub:
                for q, v in zip((50, 90, 99), percentiles([r.ttft for r in sub])):
                    want[f"ttft.p{q}"].append((t_end, v))
                tpots = [r.tpot for r in sub if r.tpot is not None]
                if tpots:
                    for q, v in zip((50, 90, 99), percentiles(tpots)):
                        want[f"tpot.p{q}"].append((t_end, v))
                att = LatencyStats.from_records(sub).slo_attainment(
                    ttft_slo=ttft_slo, tpot_slo=tpot_slo
                )
            want["slo.attainment"].append((t_end, att))
        assert any(not sub for sub in finished)
        for name, points in want.items():
            assert tel.series[name] == points, name


# --------------------------------------------------------------------- #
# Artifact export / import
# --------------------------------------------------------------------- #


class TestArtifacts:
    def _hub(self):
        tel = Telemetry(interval_s=2.0)
        tel.point("cluster.active_dp", 0.0, 1)
        tel.point("cluster.active_dp", 2.0, 2)
        tel.event(1.5, "scale", action="scale-up", replica=1, reason="why not")
        tel.counter("reqs").inc(5)
        tel.gauge("depth").set(3)
        tel.meta["engine"] = "vllm"
        return tel

    def test_jsonl_roundtrip(self, tmp_path):
        tel = self._hub()
        path = tmp_path / "tel.jsonl"
        write_jsonl(tel, path)
        back = load_jsonl(path)
        assert back.series == tel.series
        assert back.events == tel.events
        assert back.interval_s == tel.interval_s
        assert back.meta["engine"] == "vllm"
        assert back.counter("reqs").value == 5
        assert back.gauge("depth").value == 3.0

    def test_jsonl_header_schema(self, tmp_path):
        path = tmp_path / "tel.jsonl"
        write_jsonl(self._hub(), path)
        lines = path.read_text().strip().splitlines()
        header = json.loads(lines[0])
        assert header["schema"] == "repro-obs-v1"
        rows = [json.loads(line) for line in lines[1:]]
        assert any("series" in r for r in rows)
        assert any(r.get("event") == "scale" for r in rows)

    def test_load_rejects_other_schema(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"schema": "not-obs"}\n')
        with pytest.raises(ConfigurationError):
            load_jsonl(path)

    def test_csv_rows(self, tmp_path):
        path = tmp_path / "tel.csv"
        write_csv(self._hub(), path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "t,series,value"
        assert "0.0,cluster.active_dp,1.0" in lines[1]


# --------------------------------------------------------------------- #
# Dashboard
# --------------------------------------------------------------------- #


class TestDashboard:
    def test_sparkline_resamples_and_holds(self):
        pts = [(float(i), float(i)) for i in range(10)]
        line = sparkline(pts, 20)
        assert len(line) == 20
        assert line[0] == " " and line[-1] == "@"

    def test_sparkline_constant_and_empty(self):
        assert sparkline([], 5) == "     "
        assert sparkline([(0.0, 2.0), (1.0, 2.0)], 4) == "@@@@"
        assert sparkline([(0.0, 0.0)], 4) == "    "

    def test_render_includes_series_events_and_reasons(self, tiny_model, cluster_a10_4):
        tel = Telemetry()
        wl = diurnal_arrivals(constant_workload(128, 2048, 16), 16.0, 20.0, seed=3)
        VllmLikeEngine(
            tiny_model,
            cluster_a10_4,
            parse_config("T2"),
            EngineOptions(
                coupled=True,
                router="jsq",
                autoscaler="threshold",
                max_dp=2,
                ttft_slo=0.5,
            ),
        ).run(wl, RunHooks(telemetry=tel))
        text = render_dashboard(tel)
        assert "cluster.active_dp" in text
        assert "replica0.queued_prefill_tokens" in text
        assert "scale events" in text
        assert "mean queued prefill" in text  # the recorded reason
        metric, worst = worst_windows(tel)
        assert worst and metric in ("slo.burn_rate", "ttft.p99")

    def test_worst_windows_label_matches_values(self):
        tel = Telemetry()
        tel.set_series("slo.burn_rate", [(1.0, 0.0), (2.0, 0.0)])
        tel.set_series("ttft.p99", [(1.0, 3.0), (2.0, 1.0)])
        metric, worst = worst_windows(tel, top=1)
        assert metric == "ttft.p99"
        assert worst == [(1.0, 3.0)]


# --------------------------------------------------------------------- #
# Fleet-event reasons
# --------------------------------------------------------------------- #


class TestReasonsAndAliases:
    def _autoscaled_result(self, tiny_model, cluster_a10_4, telemetry=None):
        wl = diurnal_arrivals(constant_workload(128, 2048, 16), 16.0, 20.0, seed=3)
        return VllmLikeEngine(
            tiny_model,
            cluster_a10_4,
            parse_config("T2"),
            EngineOptions(
                coupled=True,
                router="jsq",
                autoscaler="threshold",
                max_dp=2,
            ),
        ).run(wl, RunHooks(telemetry=telemetry))

    def test_scale_actions_carry_reasons(self, tiny_model, cluster_a10_4):
        result = self._autoscaled_result(tiny_model, cluster_a10_4)
        fleet = result.router.fleet
        scaled = [e for e in fleet.events if e.kind in ("scale-up", "scale-down")]
        assert scaled
        assert all(e.reason for e in scaled)

    def test_fleet_table_prints_reasons(self, tiny_model, cluster_a10_4):
        result = self._autoscaled_result(tiny_model, cluster_a10_4)
        text = fleet_table({"cell": result})
        assert "scale actions" in text
        assert "mean queued prefill" in text

    def test_telemetry_table_summarizes(self, tiny_model, cluster_a10_4):
        tel = Telemetry()
        self._autoscaled_result(tiny_model, cluster_a10_4, telemetry=tel)
        text = telemetry_table(tel)
        assert "cluster.active_dp" in text
        assert "events:" in text


# --------------------------------------------------------------------- #
# Trace completeness (satellite: coupled-path trace gaps)
# --------------------------------------------------------------------- #


class TestTraceCompleteness:
    def test_decode_prio_traces_prefill_spans(self, tiny_model, cluster_a10_4):
        wl = poisson_arrivals(constant_workload(12, 512, 16), 4.0, seed=2)
        engine = DecodePrioritizedEngine(
            tiny_model, cluster_a10_4, parse_config("T4")
        )
        tracer = Tracer("p99_exemplars")
        result = engine.run(wl, RunHooks(tracing=tracer))
        spans = tracer.phases(0)
        kinds = {e.kind for e in spans}
        assert "prefill" in kinds and "decode" in kinds
        # Spans tile the run: no hole longer than numeric noise between
        # consecutive spans on the replica's phase track.
        events = sorted(spans, key=lambda e: e.start)
        cursor = 0.0
        for e in events:
            assert e.start <= cursor + 1e-6, f"hole before {e}"
            cursor = max(cursor, e.end)
        assert cursor == pytest.approx(result.total_time, rel=1e-6)


# --------------------------------------------------------------------- #
# CLI
# --------------------------------------------------------------------- #


class TestObsCli:
    RUN_FLAGS = [
        "--model",
        "34b",
        "--dataset",
        "const:512x16",
        "--num-requests",
        "16",
        "--config",
        "T4",
        "--num-gpus",
        "8",
        "--request-rate",
        "4.0",
        "--coupled",
        "--router",
        "jsq",
    ]

    def test_run_telemetry_writes_artifact(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "tel.jsonl"
        rc = main(["run", *self.RUN_FLAGS, "--telemetry-out", str(out)])
        assert rc == 0
        assert "telemetry written" in capsys.readouterr().out
        tel = load_jsonl(out)
        assert tel.series["cluster.active_dp"]

    def test_obs_renders_artifact(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "tel.jsonl"
        assert main(["run", *self.RUN_FLAGS, "--telemetry-out", str(out)]) == 0
        capsys.readouterr()
        rc = main(["obs", str(out)])
        assert rc == 0
        text = capsys.readouterr().out
        assert "timelines" in text
        assert "cluster.active_dp" in text

    def test_obs_live(self, capsys):
        from repro.cli import main

        rc = main(["obs", "--live", *self.RUN_FLAGS])
        assert rc == 0
        assert "timelines" in capsys.readouterr().out

    def test_obs_without_input_errors(self, capsys):
        from repro.cli import main

        assert main(["obs"]) == 1
        assert "needs a JSONL artifact" in capsys.readouterr().err
