"""Helpers used by the reproduction benchmarks in ``benchmarks/``.

Kept inside the package (rather than the benchmark tree) so benchmark
modules can import them regardless of how pytest sets up ``sys.path``.
Benchmark sweeps run through the same cached path as the CLI
(:func:`repro.experiments.cache.fetch_or_run_many`).
"""

from __future__ import annotations

import os

from repro.experiments.cache import CacheStats, fetch_or_run_many
from repro.experiments.runner import ExperimentResult, ExperimentSpec

__all__ = ["cached_run", "attach_series", "SESSION_CACHE_STATS"]

#: Hit/miss counters accumulated across every :func:`cached_run` of a
#: benchmark session.  The ``CARAT_BENCH_EMIT`` hook in
#: ``benchmarks/conftest.py`` stamps these into each ``BENCH_*.json``
#: record, so a perf trajectory can tell a cold timing from one served
#: by the result cache.
SESSION_CACHE_STATS = CacheStats()


def cached_run(spec: ExperimentSpec, sites, window,
               jobs: int | None = None,
               **model_kwargs) -> ExperimentResult:
    """Run one experiment sweep with a benchmark-selected window,
    served from the content-addressed result cache
    (:mod:`repro.experiments.cache`).

    Benchmarks that render different metrics of the same workload
    sweep (e.g. Figures 5–7 all come from one LB8 sweep) share one
    entry; the key hashes the workload, sweep, window, site parameters
    and model kwargs, so two callers passing the same workload with
    different ``sites`` (the log-disk ablation's shared vs. split-disk
    configurations) or different model kwargs never share a result.

    ``jobs`` defaults to ``$CARAT_BENCH_JOBS`` (serial when unset) and
    fans cache misses out across worker processes.
    """
    if jobs is None:
        jobs = int(os.environ.get("CARAT_BENCH_JOBS", "1"))
    warmup, duration = window
    return fetch_or_run_many([spec], sites, sim_warmup_ms=warmup,
                             sim_duration_ms=duration,
                             model_kwargs=model_kwargs or None,
                             jobs=jobs, stats=SESSION_CACHE_STATS)[0]


def attach_series(benchmark, result: ExperimentResult,
                  metric: str) -> None:
    """Record the model/sim series in the benchmark's extra info."""
    info = {}
    for site in result.spec.sites_of_interest:
        info[f"model_{site}"] = result.series(site, f"model_{metric}")
        info[f"sim_{site}"] = result.series(site, f"sim_{metric}")
    benchmark.extra_info.update(info)
