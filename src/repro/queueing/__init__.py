"""Product-form queueing network substrate.

This subpackage is the generic queueing machinery the paper's model is
built on: closed multi-chain networks (:mod:`repro.queueing.network`),
exact and approximate MVA solvers, operational bounds, Yao's
block-access formula and an Ethernet delay model.  The independent
oracles the exact solver is validated against (Buzen's convolution, a
brute-force CTMC, the lattice recursion) live in ``tests/oracles``.
"""

from repro.queueing.bounds import (ChainBounds, aggregate_mix_network,
                                   asymptotic_bounds,
                                   balanced_job_bounds,
                                   bjb_saturation_population, mix_bounds,
                                   saturation_population,
                                   saturation_window)
from repro.queueing.centers import CenterKind, ServiceCenter
from repro.queueing.ethernet import EthernetModel
from repro.queueing.kernels import (BatchSolution, NetworkArrays,
                                    solve_exact_batch,
                                    solve_schweitzer_batch)
from repro.queueing.mva_approx import (solve_mva_approx,
                                       solve_mva_approx_batch)
from repro.queueing.mva_exact import mva_cost, solve_mva_exact
from repro.queueing.network import ClosedNetwork, NetworkSolution
from repro.queueing.yao import expected_granules, yao_blocks

__all__ = [
    "CenterKind",
    "ServiceCenter",
    "ClosedNetwork",
    "NetworkSolution",
    "solve_mva_exact",
    "solve_mva_approx",
    "solve_mva_approx_batch",
    "NetworkArrays",
    "BatchSolution",
    "solve_exact_batch",
    "solve_schweitzer_batch",
    "mva_cost",
    "yao_blocks",
    "expected_granules",
    "EthernetModel",
    "ChainBounds",
    "asymptotic_bounds",
    "balanced_job_bounds",
    "saturation_population",
    "bjb_saturation_population",
    "saturation_window",
    "aggregate_mix_network",
    "mix_bounds",
]
