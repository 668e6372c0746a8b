"""Tests for the Nelder–Mead simplex behind the protocol-cost fit."""

import numpy as np
import pytest

from repro.model.calibration import _nelder_mead


def _rosenbrock(x):
    return float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2
                        + (1.0 - x[:-1]) ** 2))


def test_reaches_quadratic_minimum():
    centre = np.array([3.0, -1.0, 0.5])

    def bowl(x):
        return float(np.sum((1.0 + np.arange(3)) * (x - centre) ** 2))

    best, _ = _nelder_mead(bowl, np.zeros(3), maxfev=2000, xatol=1e-8,
                           fatol=1e-12)
    assert best == pytest.approx(centre, abs=1e-6)


def test_spends_at_most_the_budget():
    calls = []

    def counted(x):
        calls.append(x.copy())
        return _rosenbrock(x)

    _, spent = _nelder_mead(counted, np.array([-1.2, 1.0]), maxfev=7,
                            xatol=1e-8, fatol=1e-8)
    assert len(calls) == spent == 7


@pytest.mark.parametrize("x0,maxfev,xatol,fatol", [
    ([-1.2, 1.0], 400, 1e-4, 1e-4),
    ([0.0, 2.0, -1.0], 60, 0.5, 1e-4),
    ([5.0, 0.0, 3.0, 1.0], 13, 1e-6, 1e-8),
])
def test_matches_scipy(x0, maxfev, xatol, fatol):
    """Same vertices, same evaluation count as scipy's fixed-coefficient
    Nelder–Mead under the same stop rule."""
    optimize = pytest.importorskip("scipy.optimize")
    ours, theirs = [], []

    def f(calls):
        return lambda x: calls.append(1) or _rosenbrock(x)

    best, spent = _nelder_mead(f(ours), np.array(x0), maxfev, xatol,
                               fatol)
    reference = optimize.minimize(
        f(theirs), np.array(x0), method="Nelder-Mead",
        options={"maxfev": maxfev, "xatol": xatol, "fatol": fatol})
    assert np.array_equal(best, reference.x)
    assert spent == len(ours) == len(theirs) == reference.nfev
