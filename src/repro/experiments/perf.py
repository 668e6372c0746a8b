"""Perf-baseline suite: one ``BENCH_*.json`` record per benchmark and
the CI regression gate.

Five runners time one layer each, and all return the same
:class:`BenchRecord`:

* ``sweep`` (:func:`run_suite`) — one model-only traced experiment
  sweep per paper figure/table family, through the content-addressed
  result cache cold then warm;
* ``kernel`` (:func:`run_kernel_bench`) — the MVA kernels: single
  solves and one stacked batch;
* ``outer`` (:func:`run_outer_bench`) — the outer fixed point: a sweep
  solved point by point through the scalar oracle vs. one batched call;
* ``des`` (:func:`run_des_bench`) — the simulator's event loop: one
  seeded ``--quick`` simulation of a Table 3 point;
* ``open`` (:func:`run_open_bench`) — the batched open model: one
  arrival-rate SLO search of the capacity planner.

:func:`write_records` emits one ``BENCH_<name>.json`` per record; the
first set is committed under ``benchmarks/baselines/`` and CI compares
a fresh run against it with :func:`compare_records`, one rule per
dict: ``counters`` are deterministic and ``speedup`` values are
ratios of two timings taken in the same run, so both carry the strict
:data:`TOLERANCE`; ``wall_ms`` uses a separate, looser time tolerance
because shared CI runners are noisy; ``detail`` is never gated.
Start-up and whole-command timings are measured by ``benchmarks/e2e``.
Semantics are documented in docs/diagnostics.md.
"""

from __future__ import annotations

import argparse
import json
import os
import tempfile
import time
from collections.abc import Iterable
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any

from repro.experiments.cache import (
    CacheStats,
    ResultCache,
    clear_memory,
    fetch_or_run_many,
)
from repro.experiments.catalog import experiment
from repro.experiments.runner import ExperimentResult

__all__ = [
    "BenchRecord",
    "run_suite",
    "run_kernel_bench",
    "run_outer_bench",
    "run_des_bench",
    "run_open_bench",
    "write_records",
    "load_records",
    "compare_records",
    "main",
]

#: Bump when the record layout changes incompatibly; records of any
#: other schema are skipped on load.
BENCH_SCHEMA = 2

#: Experiments benchmarked by the suite: one per figure/table family
#: (fig5 covers the LB8 sweep behind Figures 5-7, fig8 the MB4 sweep
#: behind Figures 8-10 and Table 5, tab3/tab4 the MB8/UB6 tables).
SUITE = ("fig5", "fig8", "tab3", "tab4")

#: Batch size of the kernel microbenchmark's stacked-grid solve.
KERNEL_BATCH = 64

#: Experiment whose cold sweep the outer benchmark times (tab3 is the
#: MB8 distributed-update sweep — the heaviest of the suite).
OUTER_SWEEP = "tab3"

#: The DES benchmark's simulation: tab3's MB8 workload at n=8 with the
#: sweeps' default simulator seed, in the ``--quick`` window
#: (warm-up, measured) in ms.
DES_SWEEP = "tab3"
DES_N = 8
DES_SEED = 7
DES_WINDOW_MS = (12_000.0, 120_000.0)

#: The open benchmark's query: the slowest capacity-planning SLO of the
#: ``plan-slo`` end-to-end workload (MB4 at n=8, 13.9 s mean response).
OPEN_MIX = "MB4"
OPEN_N = 8
OPEN_TARGET_MS = 13_900.0

#: Allowed relative regression of the counters and speedups, and the
#: default time tolerance.
TOLERANCE = 0.25

#: Absolute slack added to a layer's wall-time thresholds: differences
#: below it are scheduler jitter (a warm cache hit takes ~2 ms and a
#: single kernel solve well under 1 ms; a blip is not a regression).
NOISE_FLOOR_MS = {
    "sweep": 100.0,
    "outer": 100.0,
    "kernel": 0.1,
    "des": 100.0,
    "open": 100.0,
    "pytest": 100.0,
}


@dataclass(frozen=True)
class BenchRecord:
    """One benchmark's measurements, gated per dict by
    :func:`compare_records`.

    ``counters`` are deterministic work counts (lower is better);
    ``wall_ms`` are best-of-repeats wall times; ``speedup`` are
    like-for-like ratios (higher is better); ``detail`` is recorded
    context that is never gated.
    """

    layer: str
    name: str
    counters: dict[str, int] = field(default_factory=dict)
    wall_ms: dict[str, float] = field(default_factory=dict)
    speedup: dict[str, float] = field(default_factory=dict)
    detail: dict[str, Any] = field(default_factory=dict)
    schema: int = BENCH_SCHEMA

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> BenchRecord:
        known = set(cls.__dataclass_fields__)
        return cls(**{k: v for k, v in data.items() if k in known})


def _trace_totals(result: ExperimentResult) -> tuple[int, int, dict[str, int]]:
    """(outer iterations, MVA inner iterations, per-n outer) from the
    traces attached to a result's sweep points."""
    outer = 0
    inner = 0
    by_n: dict[str, int] = {}
    seen: set[int] = set()
    for point in result.points:
        if point.n in seen or not point.model_trace:
            continue
        seen.add(point.n)
        summary = point.model_trace["summary"]
        outer += int(summary["iterations"] or 0)
        inner += int(summary["mva_inner_iterations_total"] or 0)
        by_n[str(point.n)] = int(summary["iterations"] or 0)
    return outer, inner, by_n


def run_suite(
    names: tuple[str, ...] = SUITE,
    cache_dir: str | os.PathLike | None = None,
    repeats: int = 2,
) -> list[BenchRecord]:
    """Run the perf suite (model-only, traced, cached cold+warm).

    Each repetition uses a private cache so the cold pass always
    computes and the warm pass is always served; wall times take the
    best of *repeats* repetitions (scheduler noise only ever slows a
    run down).  The lookups per run are fixed, so the cache-miss count
    is a deterministic counter.  *cache_dir* overrides the scratch
    location (a temp directory by default).
    """
    records: list[BenchRecord] = []
    with tempfile.TemporaryDirectory(dir=cache_dir) as scratch:
        for name in names:
            spec = experiment(name)
            stats = CacheStats()
            best_cold = float("inf")
            best_warm = float("inf")
            result: ExperimentResult | None = None
            for rep in range(max(1, repeats)):
                cache = ResultCache(Path(scratch) / f"{name}-{rep}")
                clear_memory()
                t0 = time.perf_counter()
                result = fetch_or_run_many(
                    [spec], run_simulation=False, trace=True, cache=cache, stats=stats
                )[0]
                t1 = time.perf_counter()
                # Warm pass: drop the in-memory layer so the hit
                # exercises the on-disk path the CLI and benchmarks
                # actually use.
                clear_memory()
                fetch_or_run_many(
                    [spec], run_simulation=False, trace=True, cache=cache, stats=stats
                )
                t2 = time.perf_counter()
                best_cold = min(best_cold, (t1 - t0) * 1e3)
                best_warm = min(best_warm, (t2 - t1) * 1e3)

            assert result is not None
            outer, inner, by_n = _trace_totals(result)
            records.append(
                BenchRecord(
                    layer="sweep",
                    name=name,
                    counters={
                        "model_iterations": outer,
                        "mva_inner_iterations": inner,
                        "cache_misses": stats.misses,
                    },
                    wall_ms={"cold": best_cold, "warm": best_warm},
                    detail={
                        "points": len(result.points),
                        "iterations_by_n": by_n,
                        "cache_hits": stats.hits,
                    },
                )
            )
    return records


def _kernel_networks(batch: int):
    """A deterministic site-shaped network grid for the microbenchmark:
    three queueing + four delay centers, six chains, populations
    cycling 1-4 across the batch (the paper's site networks are this
    shape and size)."""
    from repro.queueing.centers import CenterKind, ServiceCenter
    from repro.queueing.network import ClosedNetwork

    chains = tuple(f"w{k}" for k in range(6))
    centers = []
    for ci, cname in enumerate(("cpu", "disk", "log")):
        demands = {ch: 0.8 + 0.21 * ci + 0.09 * ki for ki, ch in enumerate(chains)}
        centers.append(ServiceCenter(cname, CenterKind.QUEUEING, demands))
    for di, cname in enumerate(("lw", "rw", "cw", "ut")):
        demands = {ch: 5.0 + 1.7 * di + 0.33 * ki for ki, ch in enumerate(chains)}
        centers.append(ServiceCenter(cname, CenterKind.DELAY, demands))
    return [
        ClosedNetwork(
            centers=tuple(centers),
            populations={ch: 1 + (b + ki) % 4 for ki, ch in enumerate(chains)},
        )
        for b in range(batch)
    ]


def _large_exact_inputs():
    """Arguments of one :func:`~repro.queueing.kernels.solve_exact_batch`
    call at the largest site networks the capacity planner solves at
    ``mpl_max`` 24: two networks (``B = 2``) of six chains at population
    6 (36 customers) over a CPU and a disk queue and four delay rows."""
    import numpy as np

    chains = np.arange(6)
    queueing = [40.0 + 7.0 * ci + 3.1 * chains for ci in range(2)]
    delay = [900.0 + 150.0 * di + 41.0 * chains for di in range(4)]
    demands = np.array([queueing + delay, [1.3 * row for row in queueing + delay]])
    mask = np.array([False, False, True, True, True, True])
    return demands, mask, np.full(6, 6, dtype=np.int64)


def run_kernel_bench(batch: int = KERNEL_BATCH, repeats: int = 3) -> BenchRecord:
    """Time the MVA kernels: one exact solve, a Schweitzer loop over
    *batch* networks, the same batch as one stacked call, and one exact
    batch at the planner's largest site networks (``large_exact``, with
    the kernel's step schedule already cached, as in the fixed point's
    repeated solves).

    Timings take the best of *repeats* repetitions (noise only ever
    slows a run down); the loop and the batch solve the *same*
    networks, so ``speedup["batch"]`` — the per-solve gain of one
    stacked :func:`~repro.queueing.mva_approx.solve_mva_approx_batch`
    call over looping
    :func:`~repro.queueing.mva_approx.solve_mva_approx` — is a
    like-for-like comparison through the public dict-based adapters.
    """
    from repro.queueing.kernels import solve_exact_batch
    from repro.queueing.mva_approx import solve_mva_approx, solve_mva_approx_batch
    from repro.queueing.mva_exact import solve_mva_exact

    networks = _kernel_networks(batch)
    large = _large_exact_inputs()
    solve_exact_batch(*large)
    best_exact = best_loop = best_batch = best_large = float("inf")
    for _ in range(max(1, repeats)):
        t0 = time.perf_counter()
        solve_mva_exact(networks[0])
        t1 = time.perf_counter()
        best_exact = min(best_exact, (t1 - t0) * 1e6)

        t0 = time.perf_counter()
        for network in networks:
            solve_mva_approx(network)
        t1 = time.perf_counter()
        best_loop = min(best_loop, (t1 - t0) * 1e6 / batch)

        t0 = time.perf_counter()
        solve_mva_approx_batch(networks)
        t1 = time.perf_counter()
        best_batch = min(best_batch, (t1 - t0) * 1e6)

        t0 = time.perf_counter()
        solve_exact_batch(*large)
        t1 = time.perf_counter()
        best_large = min(best_large, (t1 - t0) * 1e6)

    per_solve = best_batch / batch
    return BenchRecord(
        layer="kernel",
        name="kernels",
        wall_ms={
            "single_exact": best_exact / 1e3,
            "single_approx": best_loop / 1e3,
            "batch_per_solve": per_solve / 1e3,
            "large_exact": best_large / 1e3,
        },
        speedup={"batch": best_loop / per_solve},
        detail={"batch_size": batch, "batch_us": best_batch},
    )


def run_outer_bench(sweep: str = OUTER_SWEEP, repeats: int = 3) -> BenchRecord:
    """Time one experiment's cold sweep both ways: sequential scalar
    solves through the reference oracle
    (:class:`~repro.model.solver_reference.ReferenceCaratModel`) vs.
    one batched :func:`~repro.model.outer.solve_outer_batch` call.

    Both paths solve the *same* models (same workloads, sites and
    solver options) from cold starts, so ``speedup["batch"]`` is a
    like-for-like measure of the tensorized outer loop.  Timings take
    the best of *repeats* repetitions.  The batched solve's iteration
    count is the suite's ``model_iterations`` for the same sweep, so
    it is not recorded again here.
    """
    from repro.model.outer import solve_outer_batch
    from repro.model.parameters import paper_sites
    from repro.model.solver import CaratModel, ModelConfig
    from repro.model.solver_reference import ReferenceCaratModel

    spec = experiment(sweep)
    sites = paper_sites()
    workloads = [spec.workload_factory(n) for n in spec.sweep]

    def configs():
        return [
            ModelConfig(workload=workload, sites=sites, max_iterations=1000)
            for workload in workloads
        ]

    best_scalar = best_batch = float("inf")
    for _ in range(max(1, repeats)):
        t0 = time.perf_counter()
        for config in configs():
            ReferenceCaratModel(config).solve()
        t1 = time.perf_counter()
        best_scalar = min(best_scalar, (t1 - t0) * 1e3)

        t0 = time.perf_counter()
        solve_outer_batch([CaratModel(config) for config in configs()])
        t1 = time.perf_counter()
        best_batch = min(best_batch, (t1 - t0) * 1e3)

    return BenchRecord(
        layer="outer",
        name="outer",
        wall_ms={"batch": best_batch},
        speedup={"batch": best_scalar / best_batch if best_batch > 0 else 0.0},
        detail={
            "sweep": sweep,
            "batch_points": len(workloads),
            "scalar_ms": best_scalar,
        },
    )


def run_des_bench(n: int = DES_N, repeats: int = 2) -> BenchRecord:
    """Time the simulator's event loop on one seeded simulation of
    ``DES_SWEEP``'s workload at population *n* in the ``--quick`` window.

    The run is deterministic, so the processed DES events and the
    commits are exact counters; ``wall_ms["run"]`` is the best of
    *repeats* runs and ``detail["events_per_s"]`` the event rate of
    that best run.
    """
    from repro.model.parameters import paper_sites
    from repro.testbed.system import CaratSimulation, SimulationConfig

    warmup_ms, duration_ms = DES_WINDOW_MS
    config = SimulationConfig(
        workload=experiment(DES_SWEEP).workload_factory(n),
        sites=paper_sites(),
        seed=DES_SEED,
        warmup_ms=warmup_ms,
        duration_ms=duration_ms,
    )
    best = float("inf")
    for _ in range(max(1, repeats)):
        simulation = CaratSimulation(config)
        t0 = time.perf_counter()
        measurement = simulation.run()
        best = min(best, (time.perf_counter() - t0) * 1e3)
    events = simulation.sim._steps
    return BenchRecord(
        layer="des",
        name="des",
        counters={"des_events": events, "commits": measurement.total_commits()},
        wall_ms={"run": best},
        detail={
            "events_per_s": events / (best / 1e3),
            "sweep": DES_SWEEP,
            "n": n,
            "seed": DES_SEED,
        },
    )


def run_open_bench(repeats: int = 2) -> BenchRecord:
    """Time one :func:`~repro.planner.search.slo_max_arrival_per_s`
    query (``OPEN_MIX`` at ``OPEN_N``, ``OPEN_TARGET_MS`` target).

    The search is deterministic, so its batched open-solver calls and
    summed per-rate iterations (the ``model.open_*`` obs counters) are
    exact counters; ``wall_ms["run"]`` is the best of *repeats* runs.
    """
    from repro.model.parameters import paper_sites
    from repro.model.workload import STANDARD_WORKLOADS
    from repro.obs import metrics as obs
    from repro.planner.search import slo_max_arrival_per_s

    workload = STANDARD_WORKLOADS[OPEN_MIX](OPEN_N)
    sites = paper_sites()
    best = float("inf")
    for _ in range(max(1, repeats)):
        with obs.recording() as registry:
            t0 = time.perf_counter()
            capacity = slo_max_arrival_per_s(workload, sites, OPEN_TARGET_MS)
            best = min(best, (time.perf_counter() - t0) * 1e3)
    counts = registry.counters
    return BenchRecord(
        layer="open",
        name="open",
        counters={
            "open_calls": int(counts["model.open_calls"]),
            "open_iterations": int(counts["model.open_iterations"]),
        },
        wall_ms={"run": best},
        detail={
            "mix": OPEN_MIX,
            "n": OPEN_N,
            "target_ms": OPEN_TARGET_MS,
            "open_points": int(counts["model.open_points"]),
            "max_arrival_per_s": capacity,
        },
    )


def write_records(
    records: Iterable[BenchRecord], directory: str | os.PathLike
) -> list[Path]:
    """Write one ``BENCH_<name>.json`` per record; return the paths."""
    out = Path(directory)
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    for record in records:
        path = out / f"BENCH_{record.name}.json"
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(asdict(record), handle, indent=2, sort_keys=True, default=str)
            handle.write("\n")
        paths.append(path)
    return paths


def load_records(directory: str | os.PathLike) -> dict[str, BenchRecord]:
    """Load every current-schema ``BENCH_*.json`` in *directory*, keyed
    by name."""
    records: dict[str, BenchRecord] = {}
    root = Path(directory)
    if not root.is_dir():
        return records
    for path in sorted(root.glob("BENCH_*.json")):
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
        if data.get("schema") != BENCH_SCHEMA:
            continue
        record = BenchRecord.from_dict(data)
        records[record.name] = record
    return records


def _regressed(
    kind: str, value: float, ref: float, time_tolerance: float, floor_ms: float
) -> bool:
    """The one rule per dict; a metric whose baseline is not positive
    is never gated."""
    if ref <= 0:
        return False
    if kind == "counters":
        return value > ref * (1.0 + TOLERANCE)
    if kind == "wall_ms":
        return value > ref * (1.0 + time_tolerance) + floor_ms
    # A speedup is a ratio within one run, so a slow runner does not
    # shift it: it keeps the strict tolerance (higher is better).
    return value < ref * (1.0 - TOLERANCE)


def compare_records(
    current: dict[str, BenchRecord],
    baseline: dict[str, BenchRecord],
    time_tolerance: float = TOLERANCE,
) -> list[str]:
    """Regression messages for *current* vs *baseline* (empty = pass).

    ``counters`` regress when they exceed the baseline by more than
    :data:`TOLERANCE`; ``wall_ms`` when they exceed it by more than
    *time_tolerance* plus the layer's :data:`NOISE_FLOOR_MS`;
    ``speedup`` when they fall more than :data:`TOLERANCE` below it;
    ``detail`` is never gated.  A benchmark or metric present in the
    baseline but missing from the run is a regression; new ones are
    ignored (they become gated once the baseline is updated).
    """
    problems: list[str] = []
    for name, base in sorted(baseline.items()):
        record = current.get(name)
        if record is None:
            problems.append(f"{name}: benchmark missing from this run")
            continue
        for kind in ("counters", "wall_ms", "speedup"):
            values = getattr(record, kind)
            for metric, ref in sorted(getattr(base, kind).items()):
                value = values.get(metric)
                if value is None:
                    problems.append(f"{name}: {kind}.{metric} missing from this run")
                elif _regressed(
                    kind, value, ref, time_tolerance, NOISE_FLOOR_MS[base.layer]
                ):
                    problems.append(
                        f"{name}: {kind}.{metric} regressed {value:g} vs "
                        f"baseline {ref:g} ({100.0 * (value / ref - 1.0):+.0f}%)"
                    )
    return problems


def _summary(record: BenchRecord) -> str:
    """One ``BENCH`` line with every gated metric of *record*."""
    fields = [f"{k} {v}" for k, v in sorted(record.counters.items())]
    fields += [f"{k} {v:.3g} ms" for k, v in sorted(record.wall_ms.items())]
    fields += [f"{k} {v:.1f}x" for k, v in sorted(record.speedup.items())]
    return f"BENCH {record.layer} {record.name}: " + ", ".join(fields)


def add_arguments(parser: argparse.ArgumentParser) -> argparse.ArgumentParser:
    """Define the perf options on *parser*: the one definition shared
    by ``python -m repro.experiments.perf`` and ``repro perf``."""
    parser.add_argument(
        "--output-dir", default=None, help="write fresh BENCH_*.json files here"
    )
    parser.add_argument(
        "--baseline-dir",
        default="benchmarks/baselines",
        help="committed baseline to compare against",
    )
    parser.add_argument(
        "--check", action="store_true", help="exit 1 on regression vs the baseline"
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="rewrite the baseline with this run",
    )
    parser.add_argument(
        "--time-tolerance",
        type=float,
        default=TOLERANCE,
        help="allowed relative wall-time regression (default "
        "0.25; CI passes 1.0 for runner noise)",
    )
    return parser


def run(args: argparse.Namespace) -> int:
    """Run every benchmark, then write and/or gate the records as
    *args* (from :func:`add_arguments`) ask."""
    records = [
        *run_suite(),
        run_kernel_bench(),
        run_outer_bench(),
        run_des_bench(),
        run_open_bench(),
    ]
    for record in records:
        print(_summary(record))
    if args.output_dir:
        for path in write_records(records, args.output_dir):
            print(f"wrote {path}")
    if args.update_baseline:
        for path in write_records(records, args.baseline_dir):
            print(f"wrote {path}")
        return 0
    if not args.check:
        return 0
    baseline = load_records(args.baseline_dir)
    if not baseline:
        print(
            f"no baseline under {args.baseline_dir}; "
            "run with --update-baseline first"
        )
        return 1
    problems = compare_records(
        {r.name: r for r in records}, baseline, time_tolerance=args.time_tolerance
    )
    for problem in problems:
        print(f"REGRESSION {problem}")
    if problems:
        return 1
    print(
        f"perf gate passed ({len(baseline)} baselines, counter and speedup "
        f"tolerance {TOLERANCE:.0%}, time tolerance {args.time_tolerance:.0%})"
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    """``python -m repro.experiments.perf`` entry."""
    parser = argparse.ArgumentParser(
        prog="repro-perf",
        description=(
            "Run the perf-baseline suite, emit BENCH_*.json, and "
            "optionally gate against a committed baseline."
        ),
    )
    return run(add_arguments(parser).parse_args(argv))


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
