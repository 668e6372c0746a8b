"""Fixtures for the reproduction benchmarks.

Run with ``pytest benchmarks/ --benchmark-only``.  Set
``CARAT_BENCH_FULL=1`` for paper-length simulation windows (20 minutes
of simulated time per operating point instead of 4).

Sweep results are served from the content-addressed on-disk cache
(:mod:`repro.experiments.cache`; location ``$CARAT_CACHE_DIR``, else
``~/.cache/carat-qnm``), so re-running a benchmark session with
unchanged inputs skips the simulations entirely.  Set
``CARAT_BENCH_JOBS=N`` to fan the sweep points of cache misses out
across N worker processes (see docs/parallel.md).

Set ``CARAT_BENCH_EMIT=<dir>`` to write one ``BENCH_<test>.json`` per
benchmark after the session: the record ``repro perf`` writes
(:class:`repro.experiments.perf.BenchRecord`, layer ``pytest``), so
both load from one directory (docs/diagnostics.md).
"""

from __future__ import annotations

import os
import re

import pytest

from repro.model.parameters import paper_sites


def pytest_sessionfinish(session, exitstatus):
    """Emit BENCH_*.json records when ``CARAT_BENCH_EMIT`` is set."""
    out_dir = os.environ.get("CARAT_BENCH_EMIT")
    bench_session = getattr(session.config, "_benchmarksession", None)
    if not out_dir or bench_session is None:
        return
    from repro.experiments.bench import SESSION_CACHE_STATS
    from repro.experiments.perf import BenchRecord, write_records
    records = []
    for bench in bench_session.benchmarks:
        stats = getattr(bench, "stats", None)
        if stats is None:  # errored or skipped benchmark
            continue
        # Depending on the pytest-benchmark version the entry exposes
        # the Stats object directly or wrapped in a Metadata.
        stats = getattr(stats, "stats", stats)
        records.append(BenchRecord(
            layer="pytest",
            name=re.sub(r"[^A-Za-z0-9_.-]+", "_", bench.name).strip("_"),
            wall_ms={"min": stats.min * 1e3, "mean": stats.mean * 1e3},
            detail={
                "group": bench.group,
                "stddev_ms": stats.stddev * 1e3,
                "rounds": stats.rounds,
                "extra_info": dict(bench.extra_info),
                "session_cache_hits": SESSION_CACHE_STATS.hits,
                "session_cache_misses": SESSION_CACHE_STATS.misses,
            },
        ))
    write_records(records, out_dir)


@pytest.fixture(scope="session")
def bench_sites():
    """The paper's two-node configuration."""
    return paper_sites()


@pytest.fixture(scope="session")
def sim_window():
    """(warmup_ms, duration_ms) for the simulator runs."""
    if os.environ.get("CARAT_BENCH_FULL", "") == "1":
        return 60_000.0, 1_200_000.0
    return 20_000.0, 240_000.0
