"""Command-line interface."""

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
