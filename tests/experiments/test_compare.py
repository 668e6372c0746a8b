"""Tests for the model-vs-simulation residual report."""

import json

import pytest

from repro.errors import ConfigurationError
from repro.experiments.compare import (compare_workload, flagged_rows,
                                       render_json, render_table)
from repro.model.types import BASE_TO_USER_CHAIN


@pytest.fixture(scope="module")
def report():
    return compare_workload("MB4", requests=4, seed=11, quick=True)


def rows_for(report, metric, base=None):
    return [r for r in report["rows"]
            if r["metric"] == metric and r["base"] == base]


class TestReportStructure:
    def test_header_fields(self, report):
        assert report["workload"] == "MB4"
        assert report["requests"] == 4
        assert report["model"]["converged"] is True
        assert report["telemetry"]["spans_recorded"] > 0

    def test_site_rows_present(self, report):
        for metric in ("cpu_utilization", "disk_utilization",
                       "tr_xput_per_s", "lock_wait_rate_per_s",
                       "abort_rate_per_s"):
            rows = rows_for(report, metric)
            assert {r["site"] for r in rows} == {"A", "B"}

    def test_delay_center_rows_present(self, report):
        """The report covers the LW, RW and CW delay centers for
        every (site, type) that committed."""
        for metric in ("response_ms", "cpu_ms", "disk_ms", "lw_ms",
                       "rw_ms", "cw_ms"):
            bases = {r["base"] for r in report["rows"]
                     if r["metric"] == metric}
            assert bases >= {"LRO", "LU", "DRO", "DU"}

    def test_residual_definition(self, report):
        for row in report["rows"]:
            if row["comparable"]:
                assert row["residual"] == pytest.approx(
                    row["predicted"] / row["measured"] - 1.0)
            else:
                assert row["residual"] is None

    def test_floors_suppress_noise_rows(self, report):
        """Sub-floor measured values are reported but not comparable
        (LRO never waits on the network)."""
        rw = rows_for(report, "rw_ms", base="LRO")
        assert rw and all(not r["comparable"] for r in rw)

    def test_utilizations_track_closely(self, report):
        """Even in a quick window, model and simulator utilizations
        agree to a few percent (the paper's headline validation)."""
        for metric in ("cpu_utilization", "disk_utilization"):
            for row in rows_for(report, metric):
                assert row["comparable"]
                assert abs(row["residual"]) < 0.15

    def test_unknown_workload_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown workload"):
            compare_workload("XYZ", quick=True)

    def test_chain_mapping_covers_every_base(self):
        assert len(BASE_TO_USER_CHAIN) == 4


class TestRendering:
    def test_table_lists_every_row(self, report):
        text = render_table(report)
        assert "model vs simulation" in text
        assert "cpu_utilization" in text
        assert "lw_ms" in text and "rw_ms" in text and "cw_ms" in text
        assert "n/a" in text    # floored rows render as n/a

    def test_table_flags_exceeding_rows(self, report):
        text = render_table(report, max_residual=1e-6)
        assert "*" in text
        assert "comparable rows exceed" in text

    def test_json_round_trips(self, report):
        parsed = json.loads(render_json(report))
        assert parsed["workload"] == "MB4"
        assert len(parsed["rows"]) == len(report["rows"])

    def test_flagged_rows_threshold(self, report):
        assert flagged_rows(report, 1e9) == []
        tight = flagged_rows(report, 1e-6)
        assert tight
        assert all(r["comparable"] for r in tight)


class TestCompareCli:
    def test_parser_defaults(self):
        from repro.cli import build_parser
        args = build_parser().parse_args(["compare"])
        assert args.workload == "MB8"
        assert args.max_residual is None
        assert not args.json

    def test_quick_run_prints_table(self, capsys):
        from repro.cli import main
        assert main(["compare", "--workload", "MB4", "-n", "4",
                     "--quick"]) == 0
        out = capsys.readouterr().out
        assert "model vs simulation" in out
        assert "lw_ms" in out and "rw_ms" in out and "cw_ms" in out

    def test_max_residual_gates_exit_code(self, capsys):
        from repro.cli import main
        assert main(["compare", "--workload", "MB4", "-n", "4",
                     "--quick", "--max-residual", "0.000001"]) == 1
        assert main(["compare", "--workload", "MB4", "-n", "4",
                     "--quick", "--max-residual", "1000"]) == 0

    def test_json_output_to_file(self, tmp_path, capsys):
        from repro.cli import main
        out = tmp_path / "compare.json"
        assert main(["compare", "--workload", "MB4", "-n", "4",
                     "--quick", "--json", "--output", str(out)]) == 0
        parsed = json.loads(out.read_text())
        assert parsed["rows"]
        assert capsys.readouterr().out.startswith("wrote ")
