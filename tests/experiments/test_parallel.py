"""Tests for the multiprocessing sweep runner and warm-started solves."""

import pytest

from repro.experiments.parallel import (ParallelExecutionError, _SimTask,
                                        _fan_out, resolve_jobs,
                                        run_experiments)
from repro.experiments.runner import (PAPER_SWEEP, ExperimentSpec,
                                      solve_sweep_models)
from repro.model.workload import lb8, mb4, mb8

#: Short window: enough simulated time for every chain to commit.
WINDOW = {"sim_warmup_ms": 2_000.0, "sim_duration_ms": 20_000.0}


def _run(spec, sites, jobs=1, **kwargs):
    """One experiment through :func:`run_experiments`; ``jobs=1`` is
    the inline reference every fan-out must reproduce bit for bit."""
    return run_experiments([spec], sites, jobs=jobs, **kwargs)[0]


@pytest.fixture
def spec():
    return ExperimentSpec(exp_id="mini", title="mini",
                          workload_factory=lb8, sweep=(4, 8),
                          sites_of_interest=("A", "B"))


class TestParallelMatchesSerial:
    def test_bit_identical_points(self, spec, sites):
        serial = _run(spec, sites, **WINDOW)
        parallel = _run(spec, sites, jobs=3, **WINDOW)
        assert serial.points == parallel.points

    def test_bit_identical_with_warm_start(self, spec, sites):
        serial = _run(spec, sites, warm_start=True, **WINDOW)
        parallel = _run(spec, sites, jobs=3, warm_start=True, **WINDOW)
        assert serial.points == parallel.points

    def test_multiple_specs_ordered(self, sites):
        specs = [
            ExperimentSpec(exp_id="a", title="a", workload_factory=mb4,
                           sweep=(4,), sites_of_interest=("A",)),
            ExperimentSpec(exp_id="b", title="b", workload_factory=mb8,
                           sweep=(4, 8), sites_of_interest=("A", "B")),
        ]
        results = run_experiments(specs, sites, jobs=4, **WINDOW)
        assert [r.spec.exp_id for r in results] == ["a", "b"]
        for spec_, result in zip(specs, results):
            serial = _run(spec_, sites, **WINDOW)
            assert serial.points == result.points

    def test_model_only(self, spec, sites):
        result = _run(spec, sites, jobs=2, run_simulation=False, **WINDOW)
        assert all(p.model_xput > 0 and p.sim_xput == 0.0
                   for p in result.points)

    def test_more_jobs_than_tasks(self, spec, sites):
        result = _run(spec, sites, jobs=32, **WINDOW)
        assert result.points == _run(spec, sites, **WINDOW).points


class TestWarmStart:
    def test_same_throughputs_as_cold(self, sites):
        spec_ = ExperimentSpec(exp_id="w", title="w",
                               workload_factory=mb8, sweep=PAPER_SWEEP,
                               sites_of_interest=("A", "B"))
        cold = _run(spec_, sites, run_simulation=False)
        warm = _run(spec_, sites, run_simulation=False, warm_start=True)
        for p_cold, p_warm in zip(cold.points, warm.points):
            assert p_warm.model_xput == pytest.approx(
                p_cold.model_xput, rel=1e-3)
            assert p_warm.model_cpu == pytest.approx(
                p_cold.model_cpu, rel=1e-3)
            assert p_warm.model_dio == pytest.approx(
                p_cold.model_dio, rel=1e-3)

    def test_fewer_total_iterations(self, sites):
        workloads = [mb8(n) for n in PAPER_SWEEP]
        cold = solve_sweep_models(workloads, sites)
        warm = solve_sweep_models(workloads, sites, warm_start=True)
        assert all(s.converged for s in cold + warm)
        assert (sum(s.iterations for s in warm)
                < sum(s.iterations for s in cold))


class TestFanOutMachinery:
    def test_resolve_jobs(self):
        assert resolve_jobs(1) == 1
        assert resolve_jobs(0) == 1
        assert resolve_jobs(7) == 7
        assert resolve_jobs(None) >= 1

    def test_worker_failure_propagates(self, sites):
        bad = _SimTask(spec_index=0, point_index=0, workload=lb8(4),
                       sites=sites, seed=7, warmup_ms=0.0,
                       duration_ms=-1.0)
        with pytest.raises(ParallelExecutionError) as info:
            _fan_out([bad, bad], jobs=2)
        assert "ConfigurationError" in str(info.value)


def _affine(x, scale=1, offset=0):
    """Module-level so map_calls can pickle it into workers."""
    return scale * x + offset


def _explode(x):
    raise ValueError(f"boom on {x}")


class TestMapCalls:
    def test_preserves_order_serial(self):
        from repro.experiments.parallel import map_calls
        assert map_calls(_affine, [3, 1, 2], jobs=1) == [3, 1, 2]

    def test_preserves_order_parallel(self):
        from repro.experiments.parallel import map_calls
        result = map_calls(_affine, list(range(6)), jobs=2,
                           kwargs={"scale": 2, "offset": 1})
        assert result == [2 * x + 1 for x in range(6)]

    def test_empty_items(self):
        from repro.experiments.parallel import map_calls
        assert map_calls(_affine, [], jobs=2) == []

    def test_worker_error_is_wrapped(self):
        from repro.experiments.parallel import map_calls
        with pytest.raises(ParallelExecutionError):
            map_calls(_explode, [1, 2], jobs=2)

    def test_inline_error_passes_through(self):
        """A single task runs inline, so the original error surfaces
        undecorated (easier to debug than the wrapped form)."""
        from repro.experiments.parallel import map_calls
        with pytest.raises(ValueError, match="boom"):
            map_calls(_explode, [1], jobs=2)
