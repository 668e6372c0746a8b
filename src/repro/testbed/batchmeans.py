"""Batch-means analysis for single-run confidence intervals.

Replications (:mod:`repro.testbed.replication`) pay the warm-up cost
once per sample; the batch-means method pays it once: a single long
run's observation stream is split into contiguous batches whose means
are treated as (approximately independent) samples.  The classic lag-1
autocorrelation check warns when batches are too short to decorrelate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError

__all__ = ["BatchMeansResult", "batch_means", "lag1_autocorrelation"]


def lag1_autocorrelation(values: list[float]) -> float:
    """Lag-1 autocorrelation of a series (0 for length < 3)."""
    if len(values) < 3:
        return 0.0
    x = np.asarray(values, dtype=float)
    x = x - x.mean()
    denominator = float(np.dot(x, x))
    if denominator == 0.0:
        return 0.0
    return float(np.dot(x[:-1], x[1:]) / denominator)


@dataclass(frozen=True)
class BatchMeansResult:
    """Mean, CI and diagnostics from a batch-means analysis."""

    mean: float
    half_width: float
    batches: int
    batch_size: int
    confidence: float
    batch_autocorrelation: float

    @property
    def low(self) -> float:
        return self.mean - self.half_width

    @property
    def high(self) -> float:
        return self.mean + self.half_width

    @property
    def reliable(self) -> bool:
        """Batch means should be uncorrelated; under independence the
        lag-1 estimate over k batches has standard error ~1/sqrt(k),
        so flag anything beyond two standard errors."""
        return abs(self.batch_autocorrelation) \
            < 2.0 / max(1.0, self.batches) ** 0.5


def batch_means(
    observations: list[float],
    batches: int = 10,
    confidence: float = 0.95,
) -> BatchMeansResult:
    """Batch-means interval estimate over an observation stream.

    Parameters
    ----------
    observations:
        Raw per-transaction observations (e.g. response times) in the
        order they completed, warm-up already discarded.
    batches:
        Number of contiguous batches (>= 2); trailing observations
        that do not fill a batch are dropped.
    """
    if batches < 2:
        raise ConfigurationError("need at least two batches")
    if not 0.0 < confidence < 1.0:
        raise ConfigurationError("confidence must be in (0, 1)")
    size = len(observations) // batches
    if size < 1:
        raise ConfigurationError(
            f"{len(observations)} observations cannot fill "
            f"{batches} batches")
    from scipy import stats

    means = [float(np.mean(observations[i * size:(i + 1) * size]))
             for i in range(batches)]
    grand = float(np.mean(means))
    sem = float(np.std(means, ddof=1)) / np.sqrt(batches)
    t = float(stats.t.ppf(0.5 + confidence / 2.0, df=batches - 1))
    return BatchMeansResult(
        mean=grand,
        half_width=t * sem,
        batches=batches,
        batch_size=size,
        confidence=confidence,
        batch_autocorrelation=lag1_autocorrelation(means),
    )
