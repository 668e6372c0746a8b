"""Tests for the CSV export."""

import csv
import io

import pytest

from repro.experiments.catalog import experiment
from repro.experiments.export import (experiment_to_csv,
                                      paper_reference_to_csv)
from repro.experiments.parallel import run_experiments
from repro.experiments.runner import ExperimentResult, ExperimentSpec
from repro.model.workload import mb4


@pytest.fixture(scope="module")
def result(sites):
    spec = ExperimentSpec(
        exp_id="tab5", title="t", workload_factory=mb4, sweep=(4, 8),
        paper_model=experiment("tab5").paper_model,
        paper_measured=experiment("tab5").paper_measured)
    return run_experiments([spec], sites=sites, jobs=1,
                           run_simulation=False)[0]


class TestExperimentCsv:
    def test_summary_shape(self, result):
        text = experiment_to_csv(result)
        rows = list(csv.DictReader(io.StringIO(text)))
        assert len(rows) == 4                       # 2 n x 2 sites
        assert rows[0]["exp_id"] == "tab5"
        assert float(rows[0]["model_xput"]) > 0.0

    def test_per_type_columns(self, result):
        text = experiment_to_csv(result, per_type=True)
        rows = list(csv.DictReader(io.StringIO(text)))
        assert "model_LRO_xput" in rows[0]
        assert float(rows[0]["model_LRO_xput"]) > 0.0
        assert float(rows[0]["sim_LRO_xput"]) == 0.0   # model-only run

    def test_round_trips_through_csv_reader(self, result):
        text = experiment_to_csv(result)
        rows = list(csv.DictReader(io.StringIO(text)))
        points = {(int(r["n"]), r["site"]): r for r in rows}
        point = result.point(4, "A")
        assert float(points[(4, "A")]["model_cpu"]) == pytest.approx(
            point.model_cpu, rel=1e-5)


class TestPaperReferenceCsv:
    def test_per_type_reference(self, result):
        text = paper_reference_to_csv(result)
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0] == ["n", "type", "column", "xput_A", "xput_B"]
        # 20 model rows + 20 measured rows + header.
        assert len(rows) == 41

    def test_summary_reference(self, sites):
        spec = experiment("tab3")
        result = ExperimentResult(spec=spec, points=())
        text = paper_reference_to_csv(result)
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0] == ["n", "site", "column", "xput", "cpu", "dio"]
        assert len(rows) == 21

    def test_image_only_figures_export_nothing(self):
        spec = experiment("fig5")
        result = ExperimentResult(spec=spec, points=())
        assert paper_reference_to_csv(result) == ""
