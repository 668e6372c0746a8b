"""Calibration of the protocol-derived phase costs (DESIGN.md §4.3).

Paper Table 2 pins the U/TM/DM/LR/DMIO costs; the INIT/TC/TCIO/TA/UL
costs were "calculated [JENQ86]" from protocol measurements we do not
have.  :func:`calibrate_protocol` fits the three residual CPU constants
(TBEGIN, DBOPEN-per-site, commit bookkeeping) so that the model
reproduces one published operating point, and reports the fit quality.

The shipped :class:`~repro.model.parameters.ProtocolCosts` defaults
came from exactly this procedure against the paper's MB8 n=4 model row
(Table 3) and were then frozen for every workload and sweep — this
module exists so the procedure itself is reproducible and testable.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, replace

import numpy as np

from repro.errors import ConvergenceError
from repro.model.parameters import ProtocolCosts, paper_sites
from repro.model.solver import solve_model
from repro.model.workload import WorkloadSpec, mb8

__all__ = ["CalibrationTarget", "CalibrationResult",
           "calibrate_protocol", "PAPER_MB8_N4_TARGET"]


@dataclass(frozen=True)
class CalibrationTarget:
    """One published operating point: per-site (XPUT, CPU, DIO)."""

    workload: WorkloadSpec
    per_site: dict[str, tuple[float, float, float]]


#: Paper Table 3, MB8 n=4, model columns.
PAPER_MB8_N4_TARGET = CalibrationTarget(
    workload=mb8(4),
    per_site={"A": (1.11, 0.55, 35.1), "B": (0.79, 0.42, 25.0)},
)


@dataclass(frozen=True)
class CalibrationResult:
    """Fitted costs plus the achieved objective."""

    protocol: ProtocolCosts
    objective: float
    iterations: int
    residuals: dict[str, tuple[float, float, float]]


def _objective_components(protocol: ProtocolCosts,
                          target: CalibrationTarget):
    sites = paper_sites(protocol=protocol)
    solution = solve_model(target.workload, sites, max_iterations=1000,
                           raise_on_nonconvergence=False)
    residuals = {}
    terms = []
    for name, (xput, cpu, dio) in target.per_site.items():
        site = solution.site(name)
        r = (site.transaction_throughput_per_s / xput - 1.0,
             site.cpu_utilization / cpu - 1.0,
             site.dio_rate_per_s / dio - 1.0)
        residuals[name] = r
        terms.extend(r)
    return float(np.sum(np.square(terms))), residuals


class _BudgetSpent(Exception):
    """The simplex asked for one objective evaluation too many."""


def _nelder_mead(func: Callable[[np.ndarray], float], x0: np.ndarray,
                 maxfev: int, xatol: float,
                 fatol: float) -> tuple[np.ndarray, int]:
    """Minimize *func* from *x0*; returns the best vertex and the
    number of evaluations spent.

    The classic fixed-coefficient simplex (reflection 1, expansion 2,
    contraction 1/2, shrink 1/2) with the usual start: each coordinate
    of *x0* in turn scaled by 1.05, or set to 0.00025 when zero.  It
    stops when every vertex lies within *xatol* and every value within
    *fatol* of the best one, or when *maxfev* evaluations are spent;
    an iteration cut off by the budget keeps what it had changed.
    """
    rho, chi, psi, sigma = 1.0, 2.0, 0.5, 0.5
    calls = 0

    def f(x: np.ndarray) -> float:
        nonlocal calls
        if calls >= maxfev:
            raise _BudgetSpent
        calls += 1
        return func(x)

    n = len(x0)
    sim = np.tile(np.asarray(x0, dtype=float), (n + 1, 1))
    for k in range(n):
        sim[k + 1, k] = 1.05 * sim[0, k] if sim[0, k] != 0 else 0.00025
    fsim = np.full(n + 1, np.inf)
    try:
        for k in range(n + 1):
            fsim[k] = f(sim[k])
    except _BudgetSpent:
        pass
    order = np.argsort(fsim)
    sim, fsim = sim[order], fsim[order]

    while calls < maxfev:
        try:
            if (np.max(np.abs(sim[1:] - sim[0])) <= xatol
                    and np.max(np.abs(fsim[0] - fsim[1:])) <= fatol):
                break
            xbar = np.add.reduce(sim[:-1], 0) / n
            xr = (1 + rho) * xbar - rho * sim[-1]
            fxr = f(xr)
            if fxr < fsim[0]:
                xe = (1 + rho * chi) * xbar - rho * chi * sim[-1]
                fxe = f(xe)
                if fxe < fxr:
                    sim[-1], fsim[-1] = xe, fxe
                else:
                    sim[-1], fsim[-1] = xr, fxr
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            else:
                if fxr < fsim[-1]:  # outside contraction
                    xc = (1 + psi * rho) * xbar - psi * rho * sim[-1]
                    fxc = f(xc)
                    shrink = fxc > fxr
                    if not shrink:
                        sim[-1], fsim[-1] = xc, fxc
                else:  # inside contraction
                    xcc = (1 - psi) * xbar + psi * sim[-1]
                    fxcc = f(xcc)
                    shrink = fxcc >= fsim[-1]
                    if not shrink:
                        sim[-1], fsim[-1] = xcc, fxcc
                if shrink:
                    for j in range(1, n + 1):
                        sim[j] = sim[0] + sigma * (sim[j] - sim[0])
                        fsim[j] = f(sim[j])
        except _BudgetSpent:
            pass
        order = np.argsort(fsim)
        sim, fsim = sim[order], fsim[order]
    return sim[0], calls


def calibrate_protocol(
    target: CalibrationTarget = PAPER_MB8_N4_TARGET,
    initial: ProtocolCosts | None = None,
    max_evaluations: int = 60,
) -> CalibrationResult:
    """Fit (tbegin, dbopen-per-site, commit) CPU costs to *target*.

    Uses derivative-free Nelder–Mead (the model solve is noisy-smooth
    but not differentiable) with non-negativity enforced by clamping.

    Raises
    ------
    ConvergenceError
        When the optimizer cannot improve on a clearly bad fit
        (objective above 1.0, i.e. >100% RMS relative error).
    """
    initial = initial or ProtocolCosts()
    x0 = np.array([initial.tbegin_cpu, initial.dbopen_cpu_per_site,
                   initial.commit_cpu])
    def with_params(x: np.ndarray) -> ProtocolCosts:
        x = np.clip(x, 0.0, 200.0)
        return replace(initial, tbegin_cpu=float(x[0]),
                       dbopen_cpu_per_site=float(x[1]),
                       commit_cpu=float(x[2]))

    def objective(x: np.ndarray) -> float:
        return _objective_components(with_params(x), target)[0]

    x, evaluations = _nelder_mead(objective, x0, max_evaluations,
                                  xatol=0.5, fatol=1e-4)
    best = with_params(x)
    value, residuals = _objective_components(best, target)
    if value > 1.0:
        raise ConvergenceError(
            f"calibration failed (objective {value:.3f})",
            iterations=evaluations, residual=value)
    return CalibrationResult(protocol=best, objective=value,
                             iterations=evaluations,
                             residuals=residuals)
