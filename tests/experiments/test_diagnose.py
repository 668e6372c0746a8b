"""Tests for convergence reports (:mod:`repro.experiments.diagnose`)
and the trace wiring through the runner, the parallel fan-out, and the
result cache."""

import json

import pytest

from repro.errors import ConfigurationError
from repro.experiments import cache as cache_mod
from repro.experiments.cache import (ResultCache, fetch_or_run_many,
                                     run_digest, CacheStats)
from repro.experiments.diagnose import diagnose_report, render_json
from repro.experiments.parallel import run_experiments
from repro.experiments.runner import ExperimentSpec
from repro.model.workload import mb4


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("CARAT_CACHE_DIR", str(tmp_path / "cache"))
    cache_mod.clear_memory()
    yield
    cache_mod.clear_memory()


def _spec(sweep=(2, 4)):
    return ExperimentSpec(exp_id="x", title="x", workload_factory=mb4,
                          sweep=sweep, sites_of_interest=("A",))


class TestDiagnoseReport:
    def test_workload_target(self):
        report = diagnose_report("MB8", requests=8)
        assert report["kind"] == "workload"
        assert len(report["points"]) == 1
        point = report["points"][0]
        assert point["n"] == 8
        summary = point["summary"]
        assert summary["converged"] is True
        assert summary["final_residual"] <= summary["tolerance"]
        assert point["iterations"]

    def test_experiment_target_quick(self):
        report = diagnose_report("fig5", quick=True)
        assert report["kind"] == "experiment"
        assert len(report["points"]) == 2
        assert all(p["summary"]["converged"] for p in report["points"])

    def test_unknown_target_rejected(self):
        with pytest.raises(ConfigurationError):
            diagnose_report("nope")

    def test_non_convergence_reported_not_raised(self):
        report = diagnose_report("MB8", requests=8,
                                 model_kwargs={"max_iterations": 2})
        summary = report["points"][0]["summary"]
        assert summary["converged"] is False
        assert "more iterations needed" in summary["diagnosis"]

    def test_render_json_strips_iterations(self):
        report = diagnose_report("MB8", requests=4)
        full = json.loads(render_json(report))
        slim = json.loads(render_json(report, include_iterations=False))
        assert "iterations" in full["points"][0]
        assert "iterations" not in slim["points"][0]
        assert slim["points"][0]["summary"] == \
            full["points"][0]["summary"]


class TestTraceWiring:
    def test_runner_attaches_traces(self, sites):
        result = run_experiments([_spec()], sites, jobs=1,
                                 run_simulation=False, trace=True)[0]
        assert all(p.model_trace is not None for p in result.points)
        summaries = {p.n: p.model_trace["summary"]
                     for p in result.points}
        assert all(s["converged"] for s in summaries.values())

    def test_runner_default_has_no_traces(self, sites):
        result = run_experiments([_spec()], sites, jobs=1,
                                 run_simulation=False)[0]
        assert all(p.model_trace is None for p in result.points)

    def test_digest_differs_with_trace_flag(self, sites):
        kwargs = dict(sim_seed=7, sim_warmup_ms=1_000.0,
                      sim_duration_ms=10_000.0, run_simulation=False,
                      model_kwargs=None, warm_start=False)
        plain = run_digest(_spec(), sites, **kwargs)
        traced = run_digest(_spec(), sites, trace=True, **kwargs)
        assert plain != traced

    def test_traces_survive_cache_round_trip(self, sites, tmp_path):
        cache = ResultCache(tmp_path / "rt")
        stats = CacheStats()
        first = fetch_or_run_many([_spec()], sites,
                                  run_simulation=False, trace=True,
                                  cache=cache, stats=stats)[0]
        cache_mod.clear_memory()
        second = fetch_or_run_many([_spec()], sites,
                                   run_simulation=False, trace=True,
                                   cache=cache, stats=stats)[0]
        assert stats.hits == 1 and stats.misses == 1
        assert [p.model_trace for p in second.points] == \
            [p.model_trace for p in first.points]
        assert second.points[0].model_trace["summary"]["converged"]

    def test_parallel_trace(self, sites):
        results = run_experiments([_spec()], sites=sites, jobs=2,
                                  run_simulation=False, trace=True)
        assert all(p.model_trace is not None
                   for p in results[0].points)
