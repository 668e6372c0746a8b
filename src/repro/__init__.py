"""carat-qnm — reproduction of Jenq, Kohler & Towsley (ICDE 1987).

A queueing network model for a distributed database testbed system,
plus a discrete-event simulator of the CARAT testbed it was validated
against.

Public API highlights
---------------------
``repro.model``
    The analytical model: :func:`repro.model.solve_model` solves a
    workload against site parameters and returns a
    :class:`repro.model.ModelSolution`.
``repro.testbed``
    The CARAT simulator: :class:`repro.testbed.CaratSimulation` runs the
    same workloads mechanistically (2PL + deadlock detection, WAL,
    centralized 2PC) and reports the same measures.
``repro.queueing``
    Generic closed queueing-network machinery (MVA, operational bounds,
    Yao's formula, an Ethernet delay model).
``repro.experiments``
    Harness that regenerates every table and figure of the paper.
"""

from repro.errors import (CaratError, ConfigurationError, ConvergenceError,
                          RecoveryError, SimulationError)
from repro.model import (BaseType, ChainType, ModelConfig, ModelSolution,
                         Phase, ProtocolCosts, SiteParameters, WorkloadSpec,
                         lb8, mb4, mb8, paper_sites, solve_model, ub6)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "CaratError", "ConfigurationError", "ConvergenceError",
    "SimulationError", "RecoveryError",
    "BaseType", "ChainType", "Phase",
    "WorkloadSpec", "lb8", "mb4", "mb8", "ub6",
    "SiteParameters", "ProtocolCosts", "paper_sites",
    "ModelConfig", "ModelSolution", "solve_model",
]
