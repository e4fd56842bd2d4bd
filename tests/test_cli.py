"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main


class TestAnalyze:
    def test_six_version(self, capsys):
        assert main(["analyze", "--six"]) == 0
        output = capsys.readouterr().out
        assert "E[R_sys] = 0.9430" in output
        assert "voting threshold 4" in output

    def test_four_version(self, capsys):
        assert main(["analyze", "--four"]) == 0
        assert "E[R_sys] = 0.8223" in capsys.readouterr().out

    def test_custom_configuration(self, capsys):
        assert main(
            ["analyze", "--versions", "7", "--f", "2", "--top", "3"]
        ) == 0
        output = capsys.readouterr().out
        assert "7-version system (no rejuvenation), f=2" in output
        assert output.count("pi =") == 3

    def test_parameter_override(self, capsys):
        main(["analyze", "--six", "--p-prime", "0.8"])
        high = capsys.readouterr().out
        main(["analyze", "--six"])
        default = capsys.readouterr().out
        assert high != default

    def test_missing_configuration_exits(self):
        with pytest.raises(SystemExit):
            main(["analyze"])

    def test_invalid_configuration_reports_error(self, capsys):
        # 4 modules cannot support rejuvenation with f=1, r=1
        assert main(
            ["analyze", "--versions", "4", "--rejuvenation"]
        ) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags",
        [
            ["--four", "--versions", "8", "--f", "2"],
            ["--four", "--f", "2"],
            ["--six", "--r", "2"],
            ["--versions", "5", "--r", "2"],
            ["--versions", "5", "--interval", "300"],
        ],
    )
    def test_ignored_flags_are_errors(self, flags, capsys):
        assert main(["analyze", *flags]) == 2
        assert "error:" in capsys.readouterr().err


class TestSweep:
    def test_sweep_table(self, capsys):
        assert main(
            ["sweep", "--four", "--parameter", "p", "--values", "0.05,0.1"]
        ) == 0
        output = capsys.readouterr().out
        assert "0.05" in output
        assert "best:" in output

    def test_unknown_parameter(self, capsys):
        assert main(
            ["sweep", "--four", "--parameter", "bogus", "--values", "1"]
        ) == 2
        assert "cannot sweep" in capsys.readouterr().err


class TestExperiments:
    def test_list(self, capsys):
        assert main(["experiments", "--list"]) == 0
        output = capsys.readouterr().out
        assert "table2-defaults" in output
        assert "fig4d" in output

    def test_run_single(self, capsys):
        assert main(["experiments", "table2-defaults", "--no-plot"]) == 0
        assert "paper claims:" in capsys.readouterr().out

    def test_unknown_id(self, capsys):
        assert main(["experiments", "fig99"]) == 2
        assert "valid ids" in capsys.readouterr().err


class TestSimulate:
    def test_covers_analytic(self, capsys):
        assert main(
            [
                "simulate", "--four",
                "--horizon", "30000", "--warmup", "500",
                "--replications", "4", "--seed", "3",
            ]
        ) == 0
        output = capsys.readouterr().out
        assert "analytic E[R]" in output
        assert "simulated E[R]" in output

    @pytest.mark.parametrize(
        "flags,named",
        [
            (
                ["--monitor", "targeted", "--groups", "7", "--jobs", "3"],
                "--groups, --jobs, --monitor",
            ),
            (["--jobs", "0"], "--jobs"),
            (["--stationary-init", "--watch-block", "8"], "--stationary-init, --watch-block"),
            (["--alerts", "alerts.jsonl"], "--alerts"),
        ],
    )
    def test_batch_only_flags_need_batch(self, capsys, flags, named):
        assert main(["simulate", "--four", "--horizon", "100", *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: {named} would be ignored without --batch; "
            "add --batch or drop them\n"
        )

    def test_batch_rejects_replications(self, capsys):
        assert main(
            [
                "simulate", "--batch", "--four", "--groups", "8",
                "--horizon", "100", "--replications", "99",
            ]
        ) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: --replications applies to the DSPN")

    def test_monte_carlo_writes_the_events_file(self, capsys, tmp_path):
        events = tmp_path / "events.jsonl"
        assert main(
            [
                "simulate", "--four",
                "--horizon", "2000", "--warmup", "100",
                "--replications", "2", "--seed", "3",
                "--events", str(events),
            ]
        ) == 0
        # the stream is opened even when nothing is emitted (the engine
        # cache may already hold the model, so no cache.miss comes)
        lines = events.read_text(encoding="utf-8").splitlines()
        assert all(json.loads(line)["event"] for line in lines)

    def test_batch_horizon_is_measured_after_warmup(self, capsys):
        assert main(
            [
                "simulate", "--batch", "--four", "--groups", "8",
                "--horizon", "100", "--warmup", "50",
                "--request-period", "0.5", "--seed", "3",
            ]
        ) == 0
        output = capsys.readouterr().out
        # 300 rounds: 100 warm-up rounds, then 200 measured per group
        assert "8 groups x 300 rounds (1,600 measured requests" in output

    @pytest.mark.parametrize(
        "horizon,warmup,message",
        [
            ("-5", "0", "horizon must be positive"),
            ("0", "0", "horizon must be positive"),
            ("100", "-1", "warmup must be non-negative"),
            ("100.25", "0", "horizon 100.25 s is not a whole number"),
            ("100", "0.75", "warmup 0.75 s is not a whole number"),
        ],
    )
    def test_batch_rejects_spans_off_the_grid(
        self, capsys, horizon, warmup, message
    ):
        assert main(
            [
                "simulate", "--batch", "--four", "--groups", "8",
                "--horizon", horizon, "--warmup", warmup,
                "--request-period", "0.5",
            ]
        ) == 2
        assert f"error: {message}" in capsys.readouterr().err


class TestMetrics:
    def test_four_version_metrics(self, capsys):
        assert main(["metrics", "--four", "--mission", "7200"]) == 0
        output = capsys.readouterr().out
        assert "mean time to first quorum loss" in output
        assert "expected misperceptions" in output
        assert "mttc" in output

    def test_rejuvenating_configuration_reports_error(self, capsys):
        assert main(["metrics", "--six"]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--mission", "-5", "--mission must be finite and >= 0, got -5"),
            ("--mission", "inf", "--mission must be finite and >= 0, got inf"),
            ("--request-rate", "0", "--request-rate must be finite and > 0, got 0"),
        ],
    )
    def test_bad_input_rejected_before_any_output(self, capsys, flag, value, message):
        assert main(["metrics", "--four", flag, value]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"


class TestMonitor:
    def test_policy_comparison_table(self, capsys):
        assert main(
            [
                "monitor", "--six",
                "--policy", "periodic,threshold",
                "--horizon", "3000", "--seed", "7",
            ]
        ) == 0
        output = capsys.readouterr().out
        assert "false-trigger rate" in output
        assert "-- steady / periodic (seed 7)" in output
        assert "-- steady / threshold (seed 7)" in output
        # the batch keeps no rolling window: only the cumulative rate
        assert "(cumulative over 3000 rounds)" in output
        assert "rolling reliability" not in output

    def test_attack_scenario(self, capsys):
        assert main(
            [
                "monitor", "--six",
                "--policy", "threshold",
                "--horizon", "3000", "--attack",
            ]
        ) == 0
        assert "-- attack / threshold" in capsys.readouterr().out

    def test_unknown_policy_exits(self):
        with pytest.raises(SystemExit, match="unknown policy"):
            main(["monitor", "--six", "--policy", "oracle"])

    def test_negative_seed_is_an_error(self, capsys):
        assert main(
            ["monitor", "--six", "--horizon", "100", "--seed", "-1"]
        ) == 2
        assert "error: seed must be non-negative" in capsys.readouterr().err

    def test_request_period_off_the_clock_grid_is_an_error(self, capsys):
        assert main(
            [
                "monitor", "--six", "--horizon", "700",
                "--request-period", "7",
            ]
        ) == 2
        err = capsys.readouterr().err
        assert "error: the rejuvenation interval must be an integer multiple" in err

    def test_horizon_off_the_request_grid_is_an_error(self, capsys):
        assert main(
            [
                "monitor", "--six", "--horizon", "1000.5",
                "--request-period", "1",
            ]
        ) == 2
        assert "is not a whole number" in capsys.readouterr().err


class TestProvision:
    def test_feasible_target(self, capsys):
        assert main(["provision", "--four", "--target", "0.93"]) == 0
        output = capsys.readouterr().out
        assert "cheapest: N=6, f=1, rejuvenation" in output

    def test_infeasible_target_returns_one(self, capsys):
        assert main(["provision", "--four", "--target", "0.999"]) == 1
        assert "no configuration" in capsys.readouterr().out

    def test_cost_model_changes_winner(self, capsys):
        # make rejuvenation machinery prohibitively expensive at a low target
        main(
            [
                "provision", "--four", "--target", "0.5",
                "--rejuvenation-cost", "100",
            ]
        )
        output = capsys.readouterr().out
        assert "cheapest: N=4, f=1, no rejuvenation" in output


class TestExports:
    def test_dot(self, capsys):
        assert main(["dot", "--six"]) == 0
        output = capsys.readouterr().out
        assert output.startswith("digraph")
        assert "Trc" in output

    def test_pnml_four(self, capsys):
        assert main(["pnml", "--four"]) == 0
        assert "<pnml" in capsys.readouterr().out

    def test_pnml_refuses_rejuvenation(self):
        with pytest.raises(SystemExit, match="clockless"):
            main(["pnml", "--six"])
