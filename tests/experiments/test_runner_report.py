"""Tests for the experiment runner and report rendering."""

import pytest

from repro.experiments.catalog import experiment
from repro.experiments.report import (render_figure_series,
                                      render_per_type_table,
                                      render_summary_table)
from repro.experiments.parallel import run_experiments
from repro.experiments.runner import ExperimentSpec
from repro.model.types import BaseType
from repro.model.workload import mb4


@pytest.fixture(scope="module")
def small_result(sites):
    """A model-only tab5-style sweep over two sizes (fast)."""
    spec = ExperimentSpec(
        exp_id="tab5", title="Table 5 (test)", workload_factory=mb4,
        sweep=(4, 8), paper_model=experiment("tab5").paper_model,
        paper_measured=experiment("tab5").paper_measured)
    return run_experiments([spec], sites=sites, jobs=1,
                           run_simulation=False)[0]


@pytest.fixture(scope="module")
def simulated_result(sites):
    spec = ExperimentSpec(
        exp_id="mini", title="mini", workload_factory=mb4, sweep=(4,))
    return run_experiments([spec], sites=sites, jobs=1,
                           sim_warmup_ms=5_000.0,
                           sim_duration_ms=60_000.0)[0]


class TestRunner:
    def test_points_cover_sweep_times_sites(self, small_result):
        assert len(small_result.points) == 2 * 2

    def test_point_lookup(self, small_result):
        point = small_result.point(4, "A")
        assert point.n == 4 and point.site == "A"
        with pytest.raises(KeyError):
            small_result.point(99, "A")

    def test_model_columns_populated(self, small_result):
        for point in small_result.points:
            assert point.model_xput > 0.0
            assert point.model_cpu > 0.0
            assert point.model_by_type[BaseType.LRO] > 0.0

    def test_model_only_run_zeroes_sim(self, small_result):
        for point in small_result.points:
            assert point.sim_xput == 0.0

    def test_simulation_columns_populated(self, simulated_result):
        point = simulated_result.point(4, "A")
        assert point.sim_xput > 0.0
        assert point.sim_dio > 0.0
        assert point.sim_by_type[BaseType.LRO] > 0.0

    def test_series_extraction(self, small_result):
        series = small_result.series("A", "model_xput")
        assert [n for n, _ in series] == [4, 8]
        assert all(v > 0 for _, v in series)


class TestReportRendering:
    def test_summary_table_contains_all_rows(self, small_result):
        text = render_summary_table(small_result)
        assert "sim-XPUT" in text and "mod-XPUT" in text
        assert text.count("\n") >= 5

    def test_per_type_table_lists_types(self, small_result):
        text = render_per_type_table(small_result)
        for base in ("LRO", "LU", "DRO", "DU"):
            assert base in text
        # Paper columns present because reference data was attached.
        assert "pap-A" in text

    def test_figure_series_render(self, small_result):
        text = render_figure_series(small_result, "A", "xput",
                                    "TR-XPUT")
        assert "model" in text and "simulator" in text
        assert " 4 |" in text
