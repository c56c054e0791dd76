"""Command-line interface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import build_parser, main


def test_import_keeps_the_executor_off_the_cli_path():
    """``repro.exec`` and the process pool it pulls in load only when a
    command runs cells; importing them eagerly would add their import
    time to every CLI start-up."""
    src = str(Path(repro.__file__).resolve().parent.parent)
    code = (
        "import sys\n"
        "import repro.cli, repro.autotuner, repro.experiments\n"
        "print([m for m in ('repro.exec', 'concurrent.futures.process')"
        " if m in sys.modules])\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    )
    assert proc.stdout.strip() == "[]"


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.model == "34b"
        assert args.config == "T4P2"

    def test_every_command_help_renders(self, capsys):
        """A bare ``%`` in a help string crashes argparse's formatter."""
        parser = build_parser()
        commands = parser._subparsers._group_actions[0].choices
        for name in commands:
            with pytest.raises(SystemExit) as exc:
                parser.parse_args([name, "--help"])
            assert exc.value.code == 0, name
        assert "worst 1% by" in capsys.readouterr().out


class TestCommands:
    def test_run_static(self, capsys):
        rc = main(
            [
                "run",
                "--model",
                "34b",
                "--dataset",
                "const:256x16",
                "--num-requests",
                "8",
                "--config",
                "T4P2",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "req/s" in out and "T4P2" in out

    def test_run_seesaw_with_timeline(self, capsys):
        rc = main(
            [
                "run",
                "--model",
                "34b",
                "--dataset",
                "const:512x32",
                "--num-requests",
                "8",
                "--config",
                "P8->T4P2",
                "--timeline",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "timeline" in out
        assert "reshard" in out

    COUPLED_JSQ = [
        "run", "--model", "15b", "--num-gpus", "8", "--config", "D4T2",
        "--dataset", "const:1024x32", "--num-requests", "40",
        "--request-rate", "1.0", "--router", "jsq", "--coupled", "--timeline",
    ]

    def test_run_event_tier_timeline(self, capsys):
        """An event-tier coupled run draws replica 0's phase track; the
        tracer behind it reports nothing unless --tracing asks."""
        assert main(self.COUPLED_JSQ) == 0
        out = capsys.readouterr().out
        assert "timeline over" in out
        assert "prefill |" in out and "decode  |" in out
        assert "tracing:" not in out
        assert main([*self.COUPLED_JSQ, "--tracing", "p99_exemplars"]) == 0
        traced = capsys.readouterr().out
        assert "tracing:" in traced
        assert traced.split("timeline over")[1] == out.split("timeline over")[1]

    def test_run_fluid_tier_timeline_says_why_it_is_empty(self, capsys):
        """The fluid tier runs no iterations: --timeline says so instead
        of printing nothing."""
        assert main([*self.COUPLED_JSQ, "--fidelity", "fluid"]) == 0
        out = capsys.readouterr().out
        assert "timeline over" not in out
        notes = [line for line in out.splitlines() if line.startswith("timeline:")]
        assert len(notes) == 1
        assert "no replica recorded phase spans" in notes[0]
        assert "fluid tier" in notes[0]

    def test_run_chunked(self, capsys):
        rc = main(
            [
                "run",
                "--dataset",
                "const:512x16",
                "--num-requests",
                "6",
                "--config",
                "T2P2D2",
                "--chunked",
            ]
        )
        assert rc == 0
        assert "+chunked" in capsys.readouterr().out

    def test_predict(self, capsys):
        rc = main(["predict", "--model", "70b", "--config", "P8->T4P2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "prefill rate" in out and "req rate" in out

    def test_predict_static_config(self, capsys):
        rc = main(["predict", "--model", "34b", "--config", "T4P2"])
        assert rc == 0
        assert "T4P2 -> T4P2" in capsys.readouterr().out

    def test_reproduce_table1(self, capsys):
        rc = main(["reproduce", "table1"])
        assert rc == 0
        assert "GPU Model" in capsys.readouterr().out

    def test_reproduce_fig15(self, capsys):
        rc = main(["reproduce", "fig15"])
        assert rc == 0
        assert "Figure 15" in capsys.readouterr().out

    def test_reproduce_unknown(self, capsys):
        rc = main(["reproduce", "fig99"])
        assert rc == 2

    def test_error_maps_to_exit_code(self, capsys):
        # 70B cannot fit a 4-GPU A10 cluster: ReproError -> exit 1.
        rc = main(
            [
                "run",
                "--model",
                "70b",
                "--num-gpus",
                "4",
                "--dataset",
                "const:64x4",
                "--num-requests",
                "2",
                "--config",
                "T4",
            ]
        )
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_compare_small(self, capsys):
        rc = main(
            [
                "compare",
                "--model",
                "15b",
                "--num-gpus",
                "4",
                "--dataset",
                "const:512x64",
                "--num-requests",
                "12",
            ]
        )
        assert rc == 0
        assert "speedup:" in capsys.readouterr().out


class TestOnlineFlags:
    def test_nan_slo_is_an_error_not_full_attainment(self, capsys):
        rc = main(
            [
                "run", "--model", "13b", "--num-gpus", "4", "--config", "T4",
                "--num-requests", "20", "--request-rate", "2",
                "--ttft-slo", "nan",
            ]
        )
        assert rc == 1
        captured = capsys.readouterr()
        assert "ttft_slo must be positive and finite" in captured.err
        assert "slo 100%" not in captured.out

    def test_run_with_request_rate_prints_latency(self, capsys):
        rc = main(
            [
                "run",
                "--dataset",
                "const:256x16",
                "--num-requests",
                "8",
                "--config",
                "T4P2",
                "--request-rate",
                "2.0",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "latency:" in out and "ttft" in out
        assert "ttft-p50(s)" in out  # latency columns in the table

    def test_run_bursty_arrival(self, capsys):
        rc = main(
            [
                "run",
                "--dataset",
                "const:256x16",
                "--num-requests",
                "8",
                "--config",
                "T4P2",
                "--request-rate",
                "2.0",
                "--arrival",
                "bursty",
                "--burstiness",
                "6.0",
            ]
        )
        assert rc == 0
        assert "latency:" in capsys.readouterr().out

    def test_offline_run_still_reports_latency(self, capsys):
        rc = main(
            [
                "run",
                "--dataset",
                "const:256x16",
                "--num-requests",
                "8",
                "--config",
                "T4P2",
            ]
        )
        assert rc == 0
        assert "ttft" in capsys.readouterr().out

    def test_malformed_const_spec_is_repro_error(self, capsys):
        rc = main(["run", "--dataset", "const:axb", "--num-requests", "2"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "const:<prompt>x<output>" in err

    def test_arrival_choices_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--arrival", "uniform"])

    def test_router_choices_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--router", "fastest"])

    def test_run_with_jsq_router_prints_routing_stats(self, capsys):
        rc = main(
            [
                "run",
                "--model",
                "15b",
                "--num-gpus",
                "4",
                "--dataset",
                "const:512x64",
                "--num-requests",
                "8",
                "--config",
                "D2T2",
                "--request-rate",
                "2.0",
                "--router",
                "jsq",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "routing: jsq:" in out
        assert "tok-imbal" in out

    def test_run_with_trace_arrivals(self, capsys):
        from pathlib import Path

        trace = Path(__file__).parent.parent / "examples" / "arrival_trace.json"
        rc = main(
            [
                "run",
                "--dataset",
                "const:256x16",
                "--num-requests",
                "8",
                "--config",
                "T4P2",
                "--arrival",
                f"trace:{trace}",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "latency:" in out

    def test_single_timestamp_trace_runs_as_offline(self, capsys, tmp_path):
        """Regression: a zero-span trace (one timestamp) has no measurable
        offered rate; it must run as offline, not error out."""
        import json

        trace = tmp_path / "one.json"
        trace.write_text(json.dumps([5.0]))
        rc = main(
            [
                "run",
                "--dataset",
                "const:256x16",
                "--num-requests",
                "1",
                "--config",
                "T4P2",
                "--arrival",
                f"trace:{trace}",
            ]
        )
        assert rc == 0
        assert "req/s" in capsys.readouterr().out

    def test_negative_request_rate_rejected(self, capsys):
        rc = main(
            ["run", "--dataset", "const:256x16", "--num-requests", "2", "--request-rate", "-1"]
        )
        assert rc == 1
        assert "--request-rate" in capsys.readouterr().err

    def test_run_with_slo_flags_renders_slo_column(self, capsys):
        """Regression: latency_table's SLO-attainment column was dead code
        — no CLI flag ever reached it."""
        rc = main(
            [
                "run",
                "--dataset",
                "const:256x16",
                "--num-requests",
                "8",
                "--config",
                "T4P2",
                "--request-rate",
                "2.0",
                "--ttft-slo",
                "5.0",
                "--tpot-slo",
                "0.5",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "| slo" in out  # the attainment column header renders
        assert "%" in out

    def test_run_offline_with_slo_flags_renders_slo_column(self, capsys):
        rc = main(
            [
                "run",
                "--dataset",
                "const:256x16",
                "--num-requests",
                "8",
                "--config",
                "T4P2",
                "--ttft-slo",
                "60.0",
            ]
        )
        assert rc == 0
        assert "| slo" in capsys.readouterr().out

    def test_compare_with_slo_objective_renders_slo_column(self, capsys):
        rc = main(
            [
                "compare",
                "--model",
                "15b",
                "--num-gpus",
                "4",
                "--dataset",
                "const:512x64",
                "--num-requests",
                "12",
                "--request-rate",
                "1.0",
                "--objective",
                "slo",
                "--ttft-slo",
                "30.0",
                "--tpot-slo",
                "0.5",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "speedup:" in out
        assert "| slo" in out
        assert "objective: slo" in out

    def test_coupled_slo_compare_leaves_seesaw_without_the_hint(self, capsys):
        """A coupled replica has no planned arrivals for the deferral to
        wait on; the SLO objective's rate stays off its options."""
        rc = main(
            [
                "compare", "--model", "15b", "--num-gpus", "4",
                "--dataset", "const:512x64", "--num-requests", "8",
                "--request-rate", "1.0", "--objective", "slo",
                "--ttft-slo", "30.0", "--coupled",
            ]
        )
        assert rc == 0
        assert "speedup:" in capsys.readouterr().out

    def test_decoupled_run_is_sanitized(self, capsys):
        rc = main(
            [
                "run", "--model", "15b", "--num-gpus", "4", "--config", "D2T2",
                "--dataset", "const:512x64", "--num-requests", "8", "--sanitize",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "S3 token-conservation: 2," in out  # one sweep per replica
        assert "S5 request-identity: 8," in out

    def test_disaggregated_run_is_sanitized(self, capsys):
        """A ``<prefill>|<decode>`` config runs the disaggregated engine:
        both pools are sanitized and the timeline draws the prefill pool."""
        rc = main(
            [
                "run", "--model", "15b", "--num-gpus", "4", "--config", "T2|T2",
                "--dataset", "const:512x64", "--num-requests", "8",
                "--request-rate", "2.0", "--sanitize", "--timeline",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "disagg[T2|T2]" in out
        assert "S3 token-conservation: 2," in out  # one sweep per pool
        assert "S5 request-identity: 16," in out  # each pool dispatches all
        assert any(line.startswith("prefill |") for line in out.splitlines())

    def test_run_with_slo_router(self, capsys):
        rc = main(
            [
                "run",
                "--model",
                "15b",
                "--num-gpus",
                "4",
                "--dataset",
                "const:512x64",
                "--num-requests",
                "8",
                "--config",
                "D2T2",
                "--request-rate",
                "2.0",
                "--router",
                "slo",
                "--ttft-slo",
                "10.0",
            ]
        )
        assert rc == 0
        assert "routing: slo:" in capsys.readouterr().out

    def test_objective_choices_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--objective", "goodput"])

    def test_nonpositive_slo_rejected(self, capsys):
        rc = main(
            [
                "run",
                "--dataset",
                "const:256x16",
                "--num-requests",
                "2",
                "--ttft-slo",
                "-1",
            ]
        )
        assert rc == 1
        assert "ttft_slo" in capsys.readouterr().err

    def test_predict_with_slo_prints_attainment(self, capsys):
        rc = main(
            [
                "predict",
                "--model",
                "34b",
                "--config",
                "T4P2",
                "--request-rate",
                "0.3",
                "--ttft-slo",
                "10.0",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "slo attainment" in out and "goodput" in out

    def test_compare_online_prints_latency_table(self, capsys):
        rc = main(
            [
                "compare",
                "--model",
                "15b",
                "--num-gpus",
                "4",
                "--dataset",
                "const:512x64",
                "--num-requests",
                "12",
                "--request-rate",
                "1.0",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "speedup:" in out and "ttft-p90" in out


class TestFleetCli:
    """Elastic-fleet flags: wiring and clean validation errors."""

    def test_autoscaled_run_prints_fleet_table(self, capsys):
        rc = main(
            [
                "run",
                "--model",
                "15b",
                "--num-gpus",
                "8",
                "--config",
                "T2",
                "--dataset",
                "const:1024x32",
                "--num-requests",
                "24",
                "--request-rate",
                "3.0",
                "--arrival",
                "diurnal:15",
                "--router",
                "jsq",
                "--coupled",
                "--autoscaler",
                "threshold",
                "--min-dp",
                "1",
                "--max-dp",
                "4",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "fleet:" in out
        assert "peak-dp" in out and "replica-s" in out

    def assert_clean_error(self, capsys, argv, fragment):
        """The CLI must exit 1 with a one-line error (no traceback)."""
        rc = main(argv)
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert fragment in err
        assert "Traceback" not in err

    def test_negative_request_rate_is_clean_error(self, capsys):
        self.assert_clean_error(
            capsys,
            ["run", "--request-rate", "-1"],
            "--request-rate must be >= 0",
        )

    def test_autoscaler_without_rate_is_clean_error(self, capsys):
        self.assert_clean_error(
            capsys,
            ["run", "--coupled", "--autoscaler", "threshold"],
            "needs an online workload",
        )

    def test_diurnal_without_rate_is_clean_error(self, capsys):
        self.assert_clean_error(
            capsys,
            ["run", "--arrival", "diurnal:60"],
            "needs --request-rate > 0",
        )

    def test_unknown_autoscaler_is_clean_error(self, capsys):
        self.assert_clean_error(
            capsys,
            ["run", "--coupled", "--request-rate", "1", "--autoscaler", "bogus"],
            "unknown autoscaler policy 'bogus'",
        )

    def test_min_dp_above_max_dp_is_clean_error(self, capsys):
        self.assert_clean_error(
            capsys,
            [
                "run",
                "--coupled",
                "--request-rate",
                "1",
                "--autoscaler",
                "threshold",
                "--min-dp",
                "4",
                "--max-dp",
                "2",
            ],
            "min_dp (4) must be <= max_dp (2)",
        )

    def test_autoscaler_without_coupled_is_clean_error(self, capsys):
        self.assert_clean_error(
            capsys,
            ["run", "--request-rate", "1", "--autoscaler", "threshold"],
            "needs the event-coupled path",
        )

    def test_reproduce_lists_autoscale(self, capsys):
        rc = main(["reproduce", "definitely-not-an-artifact"])
        assert rc == 2
        assert "autoscale" in capsys.readouterr().err

    def test_dp_bounds_without_autoscaler_is_clean_error(self, capsys):
        self.assert_clean_error(
            capsys,
            ["run", "--coupled", "--request-rate", "1", "--min-dp", "2"],
            "only apply with an autoscaler",
        )


class TestSingleCell:
    """``repro run``, ``obs --live`` and ``trace --live`` all run one
    :class:`~repro.exec.CellSpec` built from the shared run flags."""

    CELL = [
        "--model", "15b", "--num-gpus", "4", "--config", "D2T2",
        "--dataset", "const:512x64", "--num-requests", "16",
        "--request-rate", "2.0", "--arrival", "bursty", "--router", "jsq",
        "--coupled",
    ]

    @pytest.mark.parametrize("command", ["run", "obs", "trace"])
    def test_sanitizer_summary_is_printed_by_every_single_cell_command(
        self, command, capsys
    ):
        live = [] if command == "run" else ["--live"]
        assert main([command, *live, *self.CELL, "--sanitize"]) == 0
        lines = capsys.readouterr().out.splitlines()
        summaries = [line for line in lines if line.startswith("sanitizer: ")]
        assert len(summaries) == 1
        assert "checks passed" in summaries[0]

    def test_trace_live_defaults_to_tracing_all(self, capsys):
        assert main(["trace", "--live", *self.CELL, "--top", "1"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "16 of 16 requests traced (mode all)"
        assert "sanitizer:" not in out

    def test_trace_reads_back_what_run_wrote(self, tmp_path, capsys):
        path = tmp_path / "trace.jsonl"
        assert main(["run", *self.CELL, "--trace-out", str(path)]) == 0
        run_out = capsys.readouterr().out
        assert "tracing: 16 of 16 requests traced (mode all)" in run_out
        assert main(["trace", str(path), "--top", "1"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "16 of 16 requests traced (mode all)"

    def test_trace_live_writes_trace_chrome(self, tmp_path, capsys):
        path = tmp_path / "chrome.json"
        argv = ["trace", "--live", *self.CELL, "--top", "1", "--trace-chrome", str(path)]
        assert main(argv) == 0
        out = capsys.readouterr().out
        doc = json.loads(path.read_text())
        events = doc["traceEvents"]
        assert events and all("ph" in e and "ts" in e for e in events)
        assert f"chrome trace ({len(events)} events) written to {path}" in out


def _hand_spec(engine, config, options, workload=None):
    from repro.exec import CellSpec
    from repro.hardware.cluster import make_cluster
    from repro.models.registry import get_model
    from repro.workloads.synthetic import constant_workload

    return CellSpec(
        engine=engine, model=get_model("34b"), cluster=make_cluster("A10", 8),
        config=config, options=options,
        workload=workload or constant_workload(8, 512, 64), seed=0,
    )


def _flag_cases():
    from repro.core.options import SeesawOptions
    from repro.engines.base import EngineOptions
    from repro.workloads.arrivals import poisson_arrivals
    from repro.workloads.synthetic import constant_workload

    # The CLI always seeds the router with --seed and passes --chunk-size.
    cli = {"router_seed": 0, "chunk_size": 2048}
    online = poisson_arrivals(constant_workload(8, 512, 64), 0.5, seed=0)
    slo = ["--objective", "slo", "--request-rate", "0.5"]
    coupled = {**cli, "coupled": True}
    return [
        pytest.param([], _hand_spec("vllm", "T4P2", EngineOptions(**cli)), id="static"),
        pytest.param(
            ["--chunked", "--chunk-size", "512"],
            _hand_spec(
                "vllm", "T4P2",
                EngineOptions(router_seed=0, chunked_prefill=True, chunk_size=512),
            ),
            id="chunked",
        ),
        pytest.param(
            ["--config", "P8->T4P2"],
            _hand_spec("seesaw", "P8->T4P2", SeesawOptions(**cli)),
            id="seesaw",
        ),
        pytest.param(
            ["--config", "P8->T4P2", *slo],
            _hand_spec(
                "seesaw", "P8->T4P2", SeesawOptions(**cli, arrival_rate=0.5), online
            ),
            id="seesaw-slo-rate-hint",
        ),
        pytest.param(
            ["--config", "P8->T4P2", *slo, "--coupled"],
            _hand_spec("seesaw", "P8->T4P2", SeesawOptions(**coupled), online),
            id="seesaw-slo-coupled-no-hint",
        ),
        pytest.param(
            ["--config", "T4|T4"],
            _hand_spec("disagg", "T4|T4", EngineOptions(**cli)),
            id="disagg",
        ),
    ]


@pytest.mark.parametrize("flags, expected", _flag_cases())
def test_run_flags_map_to_one_cell_spec(flags, expected, monkeypatch):
    """The run helper turns the shared flags into the CellSpec a caller
    would write by hand: ``->`` is seesaw (with the objective's rate hint
    unless coupled), ``|`` is disagg, anything else vllm."""
    from repro.cli import _run_cell
    from repro.exec import CellSpec

    built = []
    monkeypatch.setattr(
        CellSpec, "execute", lambda self, hooks=None: built.append(self)
    )
    args = build_parser().parse_args(
        ["run", "--dataset", "const:512x64", "--num-requests", "8", *flags]
    )
    _run_cell(args)
    (spec,) = built
    assert spec.options == expected.options
    assert spec.cell_key == expected.cell_key
