"""Closed multi-chain queueing network specification and solution record.

A :class:`ClosedNetwork` bundles the service centers and the closed-chain
populations; solvers (:mod:`repro.queueing.mva_exact`,
:mod:`repro.queueing.mva_approx` and the test oracles) consume it and return a
:class:`NetworkSolution`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.queueing.centers import CenterKind, ServiceCenter

__all__ = ["ClosedNetwork", "NetworkSolution"]


@dataclass(frozen=True)
class ClosedNetwork:
    """A closed, multi-chain product-form queueing network.

    Parameters
    ----------
    centers:
        The service centers.  Center names must be unique.
    populations:
        Mapping from chain name to its (integer, >= 0) population.
        Chains with zero population are allowed and simply contribute
        nothing; this keeps workload definitions uniform.
    """

    centers: tuple[ServiceCenter, ...]
    populations: dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        names = [c.name for c in self.centers]
        if len(names) != len(set(names)):
            raise ConfigurationError(f"duplicate center names in {names}")
        if not self.centers:
            raise ConfigurationError("a network needs at least one center")
        for chain, pop in self.populations.items():
            if pop < 0 or pop != int(pop):
                raise ConfigurationError(
                    f"population of chain {chain!r} must be a non-negative "
                    f"integer, got {pop!r}"
                )
        known = set(self.populations)
        for center in self.centers:
            unknown = set(center.demands) - known
            if unknown:
                raise ConfigurationError(
                    f"center {center.name!r} has demands for undeclared "
                    f"chains {sorted(unknown)}"
                )

    @property
    def chains(self) -> tuple[str, ...]:
        """Chain names in deterministic (sorted) order."""
        return tuple(sorted(self.populations))

    @property
    def active_chains(self) -> tuple[str, ...]:
        """Chains with a strictly positive population."""
        return tuple(c for c in self.chains if self.populations[c] > 0)

    def center(self, name: str) -> ServiceCenter:
        """Look up a center by name."""
        for c in self.centers:
            if c.name == name:
                return c
        raise KeyError(name)

    def queueing_centers(self) -> tuple[ServiceCenter, ...]:
        """All single-server queueing centers."""
        return tuple(c for c in self.centers
                     if c.kind is CenterKind.QUEUEING)

    def delay_centers(self) -> tuple[ServiceCenter, ...]:
        """All infinite-server (delay) centers."""
        return tuple(c for c in self.centers if c.kind is CenterKind.DELAY)

    def total_demand(self, chain: str) -> float:
        """Sum of a chain's demands over all centers (its zero-load cycle
        time)."""
        return sum(c.demand(chain) for c in self.centers)


@dataclass(frozen=True)
class NetworkSolution:
    """Steady-state performance measures of a closed network.

    All mappings are keyed consistently with the input network: chain
    names for per-chain measures, ``(center, chain)`` tuples for
    per-center per-chain measures.

    Attributes
    ----------
    throughput:
        Chain throughput ``X(k)`` — network passes per time unit.
    response_time:
        Mean time for one full network pass of a chain customer,
        including delay-center residence (so Little's law reads
        ``N(k) = X(k) * response_time(k)``).
    queue_length:
        Mean number of chain-``k`` customers at each center.
    residence_time:
        Mean time a chain-``k`` customer spends at a center per network
        pass (queueing + service).
    utilization:
        Per-center, per-chain utilization ``X(k) * D(c,k)``; for delay
        centers this is the mean number of customers in service.
    """

    throughput: dict[str, float]
    response_time: dict[str, float]
    queue_length: dict[tuple[str, str], float]
    residence_time: dict[tuple[str, str], float]
    utilization: dict[tuple[str, str], float]

    def center_utilization(self, center: str) -> float:
        """Total utilization of a center, summed over chains."""
        return sum(u for (c, _k), u in self.utilization.items()
                   if c == center)

    def center_queue_length(self, center: str) -> float:
        """Total mean queue length of a center, summed over chains."""
        return sum(q for (c, _k), q in self.queue_length.items()
                   if c == center)

    def chain_residence(self, center: str, chain: str) -> float:
        """Residence time of one chain at one center (0 if never visits)."""
        return self.residence_time.get((center, chain), 0.0)
