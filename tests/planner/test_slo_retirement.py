"""Row retirement in targeted open solves.

With ``response_target_ms``, :func:`repro.model.open_solver.
solve_open_batch` stops every still-running row above the lowest row
that has missed the target.  The rows up to that first miss must be
bit-identical to an untargeted solve of the same scales, so the
arrival-rate search (:func:`repro.planner.search.slo_max_arrival_per_s`)
brackets the same capacity.
"""

import numpy as np
import pytest

from repro.errors import ConfigurationError, ConvergenceError, RetiredRowError
from repro.model.open_solver import OpenWorkload, solve_open_batch
from repro.model.workload import STANDARD_WORKLOADS, mb4
from repro.obs import metrics as obs
from repro.planner.search import REFINE_POINTS
from tests.planner.test_slo_arrival import PLAN_SLO, _arrivals

#: The search's doubling ladder of per-user rates (default 24 doublings).
LADDER = 1e-3 * 2.0 ** np.arange(25)


def _unit(workload):
    return OpenWorkload(template=workload,
                        arrivals_per_s=_arrivals(workload, 1.0))


def _first_miss(batch, target):
    """Index of the first row that is not a converged solution within
    *target*, as the search reads it (``len`` when there is none)."""
    ok = batch.converged & (batch.mean_response_ms <= target)
    return int(np.argmin(ok)) if not ok.all() else len(ok)


def _first_round(batch, target):
    """The search's first refinement grid after the ladder *batch*."""
    top = _first_miss(batch, target)
    lo, hi = LADDER[top - 1], LADDER[top]
    return lo + (hi - lo) * np.arange(1, REFINE_POINTS + 1) \
        / (REFINE_POINTS + 1)


def _assert_retirement(workload, sites, scales, target):
    """Targeted and untargeted solves agree up to the first miss; every
    row after it is retired or finished on its own.  Returns the
    targeted batch and the number of retired rows."""
    full = solve_open_batch(_unit(workload), sites, scales)
    cut = solve_open_batch(_unit(workload), sites, scales,
                           response_target_ms=target)
    first = _first_miss(full, target)
    assert _first_miss(cut, target) == first
    rows = slice(0, first + 1)
    for name in ("response_ms", "blocking", "abort_probability",
                 "iterations", "mean_response_ms"):
        assert np.array_equal(getattr(cut, name)[rows],
                              getattr(full, name)[rows]), name
    assert [type(e) for e in cut.errors[rows]] \
        == [type(e) for e in full.errors[rows]]
    retired = 0
    for row, error in enumerate(cut.errors):
        if not isinstance(error, RetiredRowError):
            continue
        retired += 1
        assert row > first
        assert first <= error.missed_row < row
        assert error.iterations == cut.iterations[row]
        assert cut.iterations[row] <= full.iterations[row]
        assert not isinstance(error, ConvergenceError)
        with pytest.raises(RetiredRowError):
            cut.solution(row)
    return cut, retired


@pytest.mark.parametrize("mix,n,target", PLAN_SLO)
def test_rows_up_to_first_miss_match_untargeted(sites, mix, n, target):
    workload = STANDARD_WORKLOADS[mix](n)
    ladder, _ = _assert_retirement(workload, sites, LADDER, target)
    grid = _first_round(ladder, target)
    _cut, retired = _assert_retirement(workload, sites, grid, target)
    assert retired > 0


def test_rows_finishing_with_the_miss_keep_their_outcome(sites):
    """A saturated row is a miss; rows that finish in the same
    iteration are not retired but keep their own typed outcome."""
    scales = [0.01, 0.02, 100.0, 100.5]
    cut = solve_open_batch(_unit(mb4(4)), sites, scales,
                           response_target_ms=1e9)
    assert cut.converged[:2].all()
    assert [type(e) for e in cut.errors[2:]] == [ConfigurationError] * 2
    assert list(cut.iterations[2:]) == [1, 1]


def test_open_iterations_count_only_iterations_run(sites):
    workload = STANDARD_WORKLOADS["MB4"](8)
    scales = _first_round(solve_open_batch(_unit(workload), sites, LADDER),
                          13_900.0)
    full = solve_open_batch(_unit(workload), sites, scales)
    with obs.recording() as registry:
        cut = solve_open_batch(_unit(workload), sites, scales,
                               response_target_ms=13_900.0)
    assert registry.counters["model.open_calls"] == 1
    assert registry.counters["model.open_points"] == len(scales)
    assert registry.counters["model.open_iterations"] \
        == cut.iterations.sum() < full.iterations.sum()


@pytest.mark.parametrize("scales", [[2.0, 1.0], [0.5, 2.0, 1.0]])
def test_targeted_solve_needs_ascending_scales(sites, scales):
    with pytest.raises(ConfigurationError, match="ascending"):
        solve_open_batch(_unit(mb4(4)), sites, scales,
                         response_target_ms=1e4)
    # Untargeted solves take the scales in any order.
    solve_open_batch(_unit(mb4(4)), sites, scales)


def test_equal_scales_retire_like_their_twin(sites):
    """Equal scales give identical rows, so a targeted solve accepts
    them and the twin of the first miss finishes with it."""
    scales = [0.01, 0.02, 0.02, 0.03]
    workload = STANDARD_WORKLOADS["MB4"](4)
    full = solve_open_batch(_unit(workload), sites, scales)
    target = float(full.mean_response_ms[1]) * (1.0 - 1e-9)
    cut = solve_open_batch(_unit(workload), sites, scales,
                           response_target_ms=target)
    assert list(cut.meets_target(target)) == [True, False, False, False]
    assert np.array_equal(cut.response_ms[:3], full.response_ms[:3])
    assert cut.iterations[1] == cut.iterations[2]
    assert type(cut.errors[2]) is type(full.errors[2])
