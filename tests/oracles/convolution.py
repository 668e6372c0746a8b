"""Buzen's convolution algorithm for single-chain closed networks.

An independent oracle against the exact MVA solver, used by the test
suite only.  For a single closed chain of population ``N`` over centers with
demands ``D_c``, the normalization constants satisfy

``G_c(n) = G_{c-1}(n) + D_c * G_c(n - 1)``        (queueing center)
``G_c(n) = sum_{j=0..n} D_c^j / j! * G_{c-1}(n-j)``  (delay center)

and throughput is ``X(N) = G(N - 1) / G(N)``.

The implementation normalizes intermediate columns to avoid the
floating-point overflow that raw normalization constants are prone to.
"""

from __future__ import annotations

import math

from repro.errors import ConfigurationError
from repro.queueing.network import ClosedNetwork, NetworkSolution

__all__ = ["solve_convolution"]


def solve_convolution(network: ClosedNetwork) -> NetworkSolution:
    """Solve a *single-chain* closed network by convolution.

    Parameters
    ----------
    network:
        A network whose ``populations`` contains exactly one chain with
        a positive population.

    Returns
    -------
    NetworkSolution
        Exact steady-state measures (product-form).

    Raises
    ------
    ConfigurationError
        If the network has more than one active chain.
    """
    active = network.active_chains
    if len(active) != 1:
        raise ConfigurationError(
            f"convolution solver handles exactly one chain, got {active}"
        )
    chain = active[0]
    population = network.populations[chain]

    g = _normalization_column(network, chain, population)

    x = g[population - 1] / g[population]
    throughput = {k: 0.0 for k in network.chains}
    throughput[chain] = x

    # Per-center measures.  For a queueing center, the mean queue length
    # is sum_{j=1..N} (D_c)^j * G(N - j) / G(N); utilization is
    # D_c * X(N).  For delay centers, Q = U = D_c * X(N).
    queue_length: dict[tuple[str, str], float] = {}
    residence: dict[tuple[str, str], float] = {}
    utilization: dict[tuple[str, str], float] = {}
    for center in network.centers:
        d = center.demand(chain)
        util = d * x
        if center.is_delay:
            q = util
        elif d == 0.0:
            q = 0.0
        else:
            # Buzen's queue-length result for a queueing center:
            # Q_c(N) = sum_{j=1..N} D_c^j * G(N - j) / G(N),
            # with G the normalization constants of the FULL network.
            q = 0.0
            d_pow = 1.0
            for j in range(1, population + 1):
                d_pow *= d
                q += d_pow * g[population - j]
            q /= g[population]
        queue_length[(center.name, chain)] = q
        utilization[(center.name, chain)] = util
        residence[(center.name, chain)] = q / x if x > 0 else 0.0

    response_time = {k: 0.0 for k in network.chains}
    response_time[chain] = population / x if x > 0 else 0.0
    return NetworkSolution(
        throughput=throughput,
        response_time=response_time,
        queue_length=queue_length,
        residence_time=residence,
        utilization=utilization,
    )


def _normalization_column(
    network: ClosedNetwork,
    chain: str,
    population: int,
) -> list[float]:
    """Normalization constants ``G(0..population)`` for the network."""
    g = [1.0] + [0.0] * population
    g[0] = 1.0
    first = True
    for center in network.centers:
        d = center.demand(chain)
        if first:
            if center.is_delay:
                g = [d ** n / math.factorial(n) for n in range(population + 1)]
            else:
                g = [d ** n for n in range(population + 1)]
            first = False
            continue
        if center.is_delay:
            new = [0.0] * (population + 1)
            for n in range(population + 1):
                total = 0.0
                d_pow = 1.0
                for j in range(n + 1):
                    total += d_pow / math.factorial(j) * g[n - j]
                    d_pow *= d
                new[n] = total
            g = new
        else:
            new = [0.0] * (population + 1)
            new[0] = g[0]
            for n in range(1, population + 1):
                new[n] = g[n] + d * new[n - 1]
            g = new
    return g
