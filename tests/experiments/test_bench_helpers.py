"""Tests for the benchmark helper module."""

import pytest

from repro.experiments import cache as cache_mod
from repro.experiments.bench import attach_series, cached_run
from repro.experiments.parallel import run_experiments
from repro.experiments.runner import ExperimentSpec
from repro.model.workload import lb8, mb4


class _FakeBenchmark:
    def __init__(self):
        self.extra_info = {}


@pytest.fixture
def spec():
    return ExperimentSpec(exp_id="mini", title="mini",
                          workload_factory=lb8, sweep=(4, 8),
                          sites_of_interest=("A", "B"))


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    """Point the on-disk cache at a throwaway directory per test."""
    monkeypatch.setenv("CARAT_CACHE_DIR", str(tmp_path / "cache"))
    cache_mod.clear_memory()
    yield
    cache_mod.clear_memory()


class TestRunRepro:
    def test_cached_run_reuses_sweep(self, sites):
        # Same workload, sweep, window and sites: one shared entry
        # even though the spec ids differ (fig5/6/7 render different
        # metrics of one LB8 sweep).
        spec_a = ExperimentSpec(exp_id="a", title="a",
                                workload_factory=mb4, sweep=(4,),
                                sites_of_interest=("A", "B"))
        spec_b = ExperimentSpec(exp_id="b", title="b",
                                workload_factory=mb4, sweep=(4,),
                                sites_of_interest=("A", "B"))
        window = (1_000.0, 20_000.0)
        first = cached_run(spec_a, sites, window)
        second = cached_run(spec_b, sites, window)
        # Same underlying sweep points: the cache hit.
        assert first.points is second.points

    def test_different_window_is_new_entry(self, sites):
        spec = ExperimentSpec(exp_id="a", title="a",
                              workload_factory=mb4, sweep=(4,),
                              sites_of_interest=("A",))
        first = cached_run(spec, sites, (1_000.0, 20_000.0))
        second = cached_run(spec, sites, (1_000.0, 30_000.0))
        assert first.points is not second.points

    def test_different_sites_are_new_entries(self, sites):
        """Regression: the old cache keyed on (workload, sweep,
        window) only, so the log-disk ablation's shared vs. split-disk
        site parameters silently shared one result."""
        spec = ExperimentSpec(exp_id="a", title="a",
                              workload_factory=mb4, sweep=(4,),
                              sites_of_interest=("A",))
        window = (1_000.0, 20_000.0)
        split = {name: site.with_overrides(log_on_separate_disk=True)
                 for name, site in sites.items()}
        shared_result = cached_run(spec, sites, window)
        split_result = cached_run(spec, split, window)
        assert shared_result.points is not split_result.points
        # The split-disk configuration genuinely solves differently.
        assert (split_result.points[0].model_xput
                != shared_result.points[0].model_xput)

    def test_different_model_kwargs_are_new_entries(self, sites):
        """Regression: model kwargs are part of the cache key."""
        spec = ExperimentSpec(exp_id="a", title="a",
                              workload_factory=mb4, sweep=(4,),
                              sites_of_interest=("A",))
        window = (1_000.0, 20_000.0)
        base = cached_run(spec, sites, window)
        with_tm = cached_run(spec, sites, window,
                             model_tm_serialization=True)
        assert base.points is not with_tm.points

    def test_disk_round_trip(self, spec, sites):
        window = (1_000.0, 10_000.0)
        first = cached_run(spec, sites, window)
        cache_mod.clear_memory()
        second = cached_run(spec, sites, window)
        # Loaded from disk: equal values, distinct objects.
        assert first.points is not second.points
        assert first.points == second.points


class TestHelpers:
    def test_attach_series(self, spec, sites):
        result = run_experiments([spec], sites, jobs=1,
                                 run_simulation=False)[0]
        benchmark = _FakeBenchmark()
        attach_series(benchmark, result, "xput")
        assert "model_A" in benchmark.extra_info
        assert len(benchmark.extra_info["model_A"]) == 2
