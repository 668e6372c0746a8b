"""The masked row driver both fixed-point engines run on.

:func:`repro.model.outer.iterate_rows` owns the alive set, the
per-row tolerance and budget tests, the per-row ``iterations``,
``residual`` and ``converged`` arrays, and the early stop of failed
and retired rows.  These tests drive it with scripted steps, so each
row's outcome is known in advance.
"""

import numpy as np
import pytest

from repro.model.outer import iterate_rows


class ScriptedStep:
    """A step whose row *r* reports ``residuals[r][t - 1]`` at
    iteration *t*, fails the rows of ``fail_at`` (row -> iteration),
    and records every call to check which rows it was shown."""

    def __init__(self, residuals, fail_at=None):
        self.residuals = np.asarray(residuals, dtype=float)
        self.fail_at = fail_at or {}
        self.calls: list[tuple[int, list[int]]] = []

    def __call__(self, al, iteration):
        self.calls.append((iteration, [int(r) for r in al]))
        res = self.residuals[al, iteration - 1]
        failed = np.array([self.fail_at.get(int(r)) == iteration
                           for r in al])
        return res, failed

    def seen(self, row):
        """Iterations at which the step was shown *row*."""
        return [it for it, rows in self.calls if row in rows]


def _halving(start, width=50):
    """A residual that halves every iteration from *start*."""
    return start * 0.5 ** np.arange(width)


def test_per_row_tolerances_and_budgets():
    # Rows 0 and 1 share a residual path but not a tolerance; row 2
    # runs out of its budget; row 3 runs out of it one iteration
    # before it would converge.
    step = ScriptedStep([_halving(1.0), _halving(1.0), _halving(1.0),
                         _halving(1.0)])
    tolerance = np.array([0.1, 0.01, 1e-9, 0.1])
    budget = np.array([100, 100, 5, 4])
    iterations, residual, converged = iterate_rows(step, tolerance, budget)
    # 0.5**k < tol first at k = 4 (0.0625) and k = 7 (0.0078125).
    assert list(iterations) == [5, 8, 5, 4]
    assert list(converged) == [True, True, False, False]
    assert list(residual) == [0.0625, 0.0078125, 0.0625, 0.125]
    for row, last in enumerate(iterations):
        assert step.seen(row) == list(range(1, last + 1))


def test_failed_row_stops_without_converging():
    # Row 1 fails at iteration 3 although its residual is already
    # below tolerance there: a failure wins over convergence.
    step = ScriptedStep([_halving(1.0), _halving(0.2)], fail_at={1: 3})
    iterations, residual, converged = iterate_rows(
        step, np.array([0.01, 0.06]), np.array([50, 50]))
    assert list(iterations) == [8, 3]
    assert list(converged) == [True, False]
    assert residual[1] == 0.05
    assert step.seen(1) == [1, 2, 3]
    assert step.seen(0) == list(range(1, 9))


def test_stop_hook_retires_rows_above_a_miss():
    # Row 1 stalls at a residual of 1 and runs out of budget at
    # iteration 6; the hook then retires every running row above it.
    stalled = np.ones(50)
    step = ScriptedStep([_halving(1.0, 50), stalled, _halving(1e6),
                         _halving(1e6), _halving(1e-3)])
    seen_finished = []

    def stop(iteration, finished, converged, alive):
        seen_finished.append((iteration, list(finished),
                              list(converged[finished])))
        missed = finished[~converged[finished]]
        if missed.size == 0:
            return missed
        running = np.nonzero(alive)[0]
        return running[running > missed.min()]

    iterations, residual, converged = iterate_rows(
        step, np.full(5, 1e-2), np.array([50, 6, 50, 50, 50]), stop=stop)
    assert list(iterations) == [8, 6, 6, 6, 1]
    assert list(converged) == [True, False, False, False, True]
    assert list(residual[2:4]) == [1e6 * 0.5 ** 5] * 2
    assert seen_finished == [(1, [4], [True]), (6, [1], [False]),
                             (8, [0], [True])]
    # Retired rows are shown to the step up to the iteration that
    # retired them, and never after it.
    assert step.seen(2) == step.seen(3) == [1, 2, 3, 4, 5, 6]
    assert step.seen(4) == [1]


def test_step_never_sees_a_finished_row():
    rng = np.random.default_rng(5)
    residuals = rng.uniform(0.0, 1.0, size=(12, 40))
    fail_at = {3: 2, 7: 9}
    step = ScriptedStep(residuals, fail_at=fail_at)
    iterations, _residual, _converged = iterate_rows(
        step, rng.uniform(0.05, 0.3, size=12),
        rng.integers(1, 40, size=12))
    for row in range(12):
        assert step.seen(row) == list(range(1, iterations[row] + 1))
    for row, it in fail_at.items():
        assert iterations[row] <= it


@pytest.mark.parametrize("budget", [0, 1])
def test_every_row_runs_at_least_once(budget):
    step = ScriptedStep([_halving(1.0)])
    iterations, residual, converged = iterate_rows(
        step, np.array([1e-6]), np.array([budget]))
    assert list(iterations) == [1]
    assert residual[0] == 1.0
    assert not converged[0]
