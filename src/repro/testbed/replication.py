"""Replicated simulation runs with confidence intervals.

A single DES run is one sample path; production simulation methodology
reports means with confidence intervals over independent replications
(distinct seeds).  This module runs R replications of a configuration
and summarizes the headline measures with Student-t intervals
(scipy.stats), which the experiments can use to say *how much* of the
model-vs-simulator gap is sampling noise.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.errors import ConfigurationError
from repro.obs.spans import span
from repro.testbed.system import CaratSimulation, SimulationConfig

__all__ = ["Estimate", "ReplicatedMeasurement", "run_replications"]


@dataclass(frozen=True)
class Estimate:
    """Mean with a two-sided Student-t confidence interval."""

    mean: float
    half_width: float
    replications: int
    confidence: float

    @property
    def low(self) -> float:
        return self.mean - self.half_width

    @property
    def high(self) -> float:
        return self.mean + self.half_width

    def contains(self, value: float) -> bool:
        """True when *value* lies inside the interval."""
        return self.low <= value <= self.high

    @property
    def relative_half_width(self) -> float:
        """Half-width as a fraction of the mean (0 when mean is 0)."""
        if self.mean == 0.0:
            return 0.0
        return abs(self.half_width / self.mean)


def _estimate(samples: list[float], confidence: float) -> Estimate:
    n = len(samples)
    mean = float(np.mean(samples))
    if n < 2:
        return Estimate(mean=mean, half_width=float("inf"),
                        replications=n, confidence=confidence)
    from scipy import stats

    sem = float(np.std(samples, ddof=1)) / np.sqrt(n)
    t = float(stats.t.ppf(0.5 + confidence / 2.0, df=n - 1))
    return Estimate(mean=mean, half_width=t * sem, replications=n,
                    confidence=confidence)


@dataclass(frozen=True)
class ReplicatedMeasurement:
    """Per-site interval estimates over R replications."""

    replications: int
    confidence: float
    throughput: dict[str, Estimate]
    cpu_utilization: dict[str, Estimate]
    dio_rate: dict[str, Estimate]

    def site_throughput(self, site: str) -> Estimate:
        return self.throughput[site]


def run_replications(
    config: SimulationConfig,
    replications: int = 5,
    confidence: float = 0.95,
) -> ReplicatedMeasurement:
    """Run *replications* independent copies of *config*.

    Replication ``i`` uses seed ``config.seed + i``; everything else is
    shared.  Returns interval estimates for TR-XPUT, Total-CPU and
    Total-DIO at every site.
    """
    if replications < 1:
        raise ConfigurationError("need at least one replication")
    if not 0.0 < confidence < 1.0:
        raise ConfigurationError("confidence must be in (0, 1)")
    xput: dict[str, list[float]] = {}
    cpu: dict[str, list[float]] = {}
    dio: dict[str, list[float]] = {}
    for i in range(replications):
        run_config = replace(config, seed=config.seed + i)
        with span("testbed.replication_run", index=i,
                  seed=run_config.seed):
            measurement = CaratSimulation(run_config).run()
        for name, site in measurement.sites.items():
            xput.setdefault(name, []).append(
                site.transaction_throughput_per_s)
            cpu.setdefault(name, []).append(site.cpu_utilization)
            dio.setdefault(name, []).append(site.dio_rate_per_s)
    return ReplicatedMeasurement(
        replications=replications,
        confidence=confidence,
        throughput={s: _estimate(v, confidence)
                    for s, v in xput.items()},
        cpu_utilization={s: _estimate(v, confidence)
                         for s, v in cpu.items()},
        dio_rate={s: _estimate(v, confidence) for s, v in dio.items()},
    )
