"""Tests for the command-line interface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_model_defaults(self):
        args = build_parser().parse_args(["model"])
        assert args.workload == "MB8"
        assert args.requests == 8

    def test_experiment_validates_id(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "tab99"])

    def test_simulate_options(self):
        args = build_parser().parse_args(
            ["simulate", "--workload", "LB8", "-n", "12",
             "--seed", "42", "--duration-s", "30"])
        assert args.workload == "LB8"
        assert args.requests == 12
        assert args.seed == 42


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "tab3" in out and "fig5" in out and "LB8" in out

    def test_model_command(self, capsys):
        assert main(["model", "--workload", "MB4", "-n", "4"]) == 0
        out = capsys.readouterr().out
        assert "TR-XPUT" in out and "node A" in out and "node B" in out

    def test_simulate_command_quick(self, capsys):
        assert main(["simulate", "--workload", "MB4", "-n", "4",
                     "--duration-s", "30", "--warmup-s", "5"]) == 0
        out = capsys.readouterr().out
        assert "Total-DIO" in out

    def test_simulate_trace_to_stdout(self, capsys):
        assert main(["simulate", "--workload", "MB4", "-n", "4",
                     "--duration-s", "20", "--warmup-s", "2",
                     "--trace", "--trace-limit", "5"]) == 0
        out = capsys.readouterr().out
        assert "events recorded" in out and "showing 5" in out
        assert "begin" in out or "commit" in out

    def test_simulate_trace_filters_and_file(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        assert main(["simulate", "--workload", "MB4", "-n", "4",
                     "--duration-s", "20", "--warmup-s", "2",
                     "--trace", "--trace-site", "B",
                     "--trace-txn", "DU",
                     "--trace-format", "jsonl",
                     "--trace-file", str(trace)]) == 0
        assert "wrote" in capsys.readouterr().out
        for line in trace.read_text().splitlines():
            record = json.loads(line)
            assert record["site"] == "B"
            assert "DU" in record["txn"]

    def test_experiment_model_only(self, capsys):
        assert main(["experiment", "tab5", "--model-only"]) == 0
        out = capsys.readouterr().out
        assert "LRO" in out and "mod-A" in out


class TestDiagnoseCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["diagnose", "MB8"])
        assert args.target == "MB8"
        assert args.requests == 8
        assert args.output == "-"
        assert not args.quick

    def test_workload_summary_to_stdout(self, capsys):
        assert main(["diagnose", "MB8", "-n", "4",
                     "--summary-only"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["target"] == "MB8"
        assert report["points"][0]["summary"]["converged"] is True
        assert "iterations" not in report["points"][0]

    def test_report_written_to_file(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["diagnose", "MB8", "-n", "4",
                     "--output", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["points"][0]["iterations"]

    def test_unknown_target_rejected(self):
        from repro.errors import ConfigurationError
        with pytest.raises(ConfigurationError, match="diagnose target"):
            main(["diagnose", "not-a-target"])


class TestPerfCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["perf"])
        assert args.baseline_dir == "benchmarks/baselines"
        assert args.time_tolerance == 0.25
        assert not args.check

    @pytest.mark.parametrize("option", ["--tolerance", "--suite",
                                        "--no-kernels", "--no-outer"])
    def test_removed_options_rejected(self, option):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["perf", option])

    def test_trace_flag_on_experiment(self):
        args = build_parser().parse_args(
            ["experiment", "fig5", "--quick", "--model-only",
             "--trace"])
        assert args.trace


class TestStartup:
    def test_import_does_not_load_scipy(self):
        """The package depends on neither scipy nor networkx, so no
        CLI call may pull them in, not even from an environment that
        happens to have them installed."""
        src = Path(__file__).resolve().parents[2] / "src"
        code = ("import sys, repro.cli; print(sorted(m for m in sys.modules"
                " if m.split('.')[0] in ('scipy', 'networkx')))")
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=str(src)), check=True)
        assert result.stdout.strip() == "[]"
