"""Tests for the ASCII chart renderer."""

import pytest

from repro.errors import ConfigurationError
from repro.experiments.plots import render_chart


class TestRenderChart:
    def test_basic_rendering(self):
        chart = render_chart(
            {"model": [(4, 1.0), (8, 0.5), (12, 0.25)],
             "sim": [(4, 0.9), (8, 0.45), (12, 0.2)]},
            title="demo", y_label="tps",
            markers={"model": "m", "sim": "s"})
        text = chart.text
        assert "demo" in text
        assert "(tps)" in text
        assert "m=model" in text and "s=sim" in text
        assert "m" in text and "s" in text
        assert chart.y_max == 1.0

    def test_overlapping_points_marked(self):
        chart = render_chart(
            {"aaa": [(1, 1.0), (2, 2.0)],
             "bbb": [(1, 1.0), (2, 0.5)]},
            markers={"aaa": "a", "bbb": "b"})
        assert "*" in chart.text        # identical first point

    def test_x_axis_labels_present(self):
        chart = render_chart({"x": [(4, 1.0), (20, 2.0)]})
        assert "4" in chart.text and "20" in chart.text

    def test_monotone_series_renders_monotone_columns(self):
        chart = render_chart({"d": [(1, 3.0), (2, 2.0), (3, 1.0)]},
                             height=6)
        rows = [line for line in chart.text.splitlines() if "|" in line]
        positions = {}
        for row_index, line in enumerate(rows):
            body = line.split("|", 1)[1]
            for col, char in enumerate(body):
                if char == "d":
                    positions[col] = row_index
        ordered = [positions[c] for c in sorted(positions)]
        assert ordered == sorted(ordered)   # falls left to right

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            render_chart({})
        with pytest.raises(ConfigurationError):
            render_chart({"a": []})
        with pytest.raises(ConfigurationError):
            render_chart({"a": [(1, 1.0)], "b": [(2, 1.0)]})
        with pytest.raises(ConfigurationError):
            render_chart({"a": [(1, 1.0)]}, height=1)


class TestFigureChart:
    def test_from_experiment_result(self, sites):
        from repro.experiments.plots import figure_chart
        from repro.experiments.parallel import run_experiments
        from repro.experiments.runner import ExperimentSpec
        from repro.model.workload import lb8
        spec = ExperimentSpec(exp_id="x", title="x",
                              workload_factory=lb8, sweep=(4, 8),
                              sites_of_interest=("B",))
        result = run_experiments([spec], sites=sites, jobs=1,
                                 run_simulation=False)[0]
        chart = figure_chart(result, "B", "xput", "throughput")
        assert "node B" in chart.text
        assert chart.y_max > 0
