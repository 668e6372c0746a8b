"""Exact Mean Value Analysis for closed multi-chain networks.

Exact MVA (Reiser & Lavenberg) gives, for chains ``k = 1..K`` with
populations ``N_k``:

* residence time at a queueing center ``c``:
  ``R_ck(N) = D_ck * (1 + Q_c(N - e_k))``
* residence time at a delay center: ``R_ck(N) = D_ck``
* chain throughput: ``X_k(N) = N_k / sum_c R_ck(N)``
* queue length: ``Q_ck(N) = X_k(N) * R_ck(N)``

The classic recursion gets ``Q_c(N - e_k)`` by visiting every vector
of the population lattice ``prod_k (N_k + 1)``.  The kernel
(:func:`repro.queueing.kernels.solve_exact_batch`) reads it off the
product form's normalizing constant instead, a polynomial in the
queueing centers whose size grows with the total population only
(:func:`mva_cost`).  This module is the dict-based adapter around it;
the original pure-Python loop survives as
:func:`repro.queueing.mva_reference.reference_mva_exact` for the
equivalence tests.
"""

from __future__ import annotations

from repro.queueing.kernels import (NetworkArrays, assemble_solution,
                                    exact_cost, solve_exact_batch)
from repro.queueing.network import ClosedNetwork, NetworkSolution

__all__ = ["solve_mva_exact", "mva_cost"]


def mva_cost(network: ClosedNetwork) -> int:
    """Coefficient reads of the exact solve
    (:func:`repro.queueing.kernels.exact_cost`)."""
    return exact_cost([network.populations[k] for k in network.active_chains],
                      len(network.queueing_centers()))


def solve_mva_exact(network: ClosedNetwork) -> NetworkSolution:
    """Solve a closed network exactly with multi-chain MVA.

    Parameters
    ----------
    network:
        The closed network to solve.  Chains with zero population are
        ignored (their throughput is reported as 0).

    Returns
    -------
    NetworkSolution
        Steady-state measures at the full population.

    Raises
    ------
    ConfigurationError
        If :func:`mva_cost` exceeds
        :data:`~repro.queueing.kernels.MAX_EXACT_COST`.
    """
    arrays = NetworkArrays.from_network(network)
    throughput, residence = solve_exact_batch(
        arrays.demands, arrays.delay, arrays.populations)
    return assemble_solution(
        arrays, throughput, residence,
        all_chains=network.chains, all_populations=network.populations)
