"""Multiprocessing fan-out over experiment sweep points.

The paper's artifacts are sweeps over the transaction size ``n``, and
each ``(experiment, n)`` simulation is independent given its seed — the
classic fork/join shape (cf. queue_flex's ``parallel`` invoker).  This
module schedules the sweep points of one or more experiments across a
pool of worker processes:

* one **model task** per experiment solves the whole analytical sweep
  in a single worker, chained so each ``n`` can warm-start from the
  previous converged state (:func:`repro.experiments.runner.
  solve_sweep_models`) — the chain is sequential by nature, but it runs
  concurrently with every simulation;
* one **simulation task** per ``(experiment, n)`` runs the CARAT
  simulator for that point.

:func:`run_experiments` is the only way a sweep runs.  With ``jobs=1``
(or a single task) the tasks run inline in task order; otherwise they
fan out and are reassembled in that same order, so for the same seed
and flags every worker count returns bit-identical
:class:`~repro.experiments.runner.ExperimentResult` objects.
"""

from __future__ import annotations

import contextlib
import json
import multiprocessing
import os
import shutil
import tempfile
import traceback
from dataclasses import dataclass
from pathlib import Path

from repro.errors import CaratError
from repro.model.diagnostics import trace_clock
from repro.model.parameters import SiteParameters, paper_sites
from repro.model.workload import WorkloadSpec
from repro.obs import metrics as obs
from repro.obs.spans import span
from repro.experiments.runner import (ExperimentResult, ExperimentSpec,
                                      SweepPoint, assemble_points,
                                      solve_sweep_models)
from repro.testbed.system import simulate

__all__ = ["ParallelExecutionError", "resolve_jobs", "run_experiments",
           "map_calls"]


class ParallelExecutionError(CaratError):
    """A worker process failed while executing a sweep task."""


@dataclass(frozen=True)
class _ModelTask:
    """Solve one experiment's full analytical sweep (warm-chained)."""

    spec_index: int
    workloads: tuple[WorkloadSpec, ...]
    sites: dict[str, SiteParameters]
    model_kwargs: dict | None
    warm_start: bool
    trace: bool = False


@dataclass(frozen=True)
class _SimTask:
    """Run the simulator for one (experiment, n) sweep point."""

    spec_index: int
    point_index: int
    workload: WorkloadSpec
    sites: dict[str, SiteParameters]
    seed: int
    warmup_ms: float
    duration_ms: float


@dataclass(frozen=True)
class _CallTask:
    """Apply a picklable callable to one work item.

    The generic task shape behind :func:`map_calls`: ``fn`` must be a
    module-level function (so the spawn start method can pickle it) and
    the item/kwargs must be picklable too.
    """

    fn: object
    item: object
    kwargs: dict


def _task_kind(task) -> str:
    if isinstance(task, _ModelTask):
        return "model"
    if isinstance(task, _SimTask):
        return "sim"
    return "call"


def _dispatch(task):
    if isinstance(task, _ModelTask):
        return solve_sweep_models(list(task.workloads), task.sites,
                                  task.model_kwargs,
                                  warm_start=task.warm_start,
                                  trace=task.trace)
    if isinstance(task, _CallTask):
        return task.fn(task.item, **task.kwargs)
    return simulate(task.workload, task.sites, seed=task.seed,
                    warmup_ms=task.warmup_ms,
                    duration_ms=task.duration_ms)


def _execute(task):
    """Run one task (in a worker process or inline).

    With a metrics registry installed the task runs inside a
    ``parallel.task_run`` span and feeds the task-latency histogram;
    detached, it goes straight to the dispatcher.
    """
    if obs.active() is None:
        return _dispatch(task)
    clock = trace_clock()
    start = clock()
    with span("parallel.task_run", kind=_task_kind(task)):
        result = _dispatch(task)
    obs.observe("parallel.task_ms", (clock() - start) * 1e3)
    obs.add("parallel.tasks_completed")
    return result


def _worker(in_queue, out_queue, spool_path=None,
            worker_index: int = 0) -> None:
    """Worker loop: pull tasks until the ``None`` sentinel.

    *spool_path* is set when the parent had a metrics registry
    installed at fan-out: the worker then records into a **fresh**
    registry of its own (the forked copy of the parent's would be
    double-counted once the parent merges the spool) and dumps it as
    JSON at exit for the parent to fold in at join.
    """
    registry = None
    if spool_path is not None:
        registry = obs.MetricsRegistry(worker=f"worker-{worker_index}")
        obs.install(registry)
    with span("parallel.worker_loop", worker=worker_index):
        while True:
            item = in_queue.get()
            if item is None:
                break
            index, task = item
            try:
                out_queue.put((index, True, _execute(task)))
            except BaseException as exc:  # ship failure to the parent
                obs.add("parallel.tasks_failed")
                out_queue.put((index, False,
                               (f"{type(exc).__name__}: {exc}",
                                traceback.format_exc())))
    if registry is not None:
        with contextlib.suppress(OSError):
            with open(spool_path, "w", encoding="utf-8") as handle:
                json.dump(registry.to_dict(), handle)


def resolve_jobs(jobs: int | None) -> int:
    """Normalize a worker count (``None`` means one per CPU)."""
    if jobs is None:
        jobs = os.cpu_count() or 1
    return max(1, int(jobs))


def _fan_out(tasks: list, jobs: int) -> list:
    """Fork/join: run *tasks* on *jobs* workers, results in task order.

    With one worker (or at most one task) everything runs inline in
    this process, which keeps ``--jobs 1`` free of multiprocessing
    overhead and trivially deterministic.
    """
    if jobs <= 1 or len(tasks) <= 1:
        return [_execute(task) for task in tasks]
    registry = obs.active()
    spool_dir = (Path(tempfile.mkdtemp(prefix="carat-obs-"))
                 if registry is not None else None)
    ctx = multiprocessing.get_context(
        "fork" if "fork" in multiprocessing.get_all_start_methods()
        else "spawn")
    in_queue = ctx.Queue()
    out_queue = ctx.Queue()
    workers = min(jobs, len(tasks))
    # Single shared task queue: workers pull as they free up, so an
    # expensive point (small n simulates slowly) does not stall a
    # statically assigned partition.
    for item in enumerate(tasks):
        in_queue.put(item)
    for _ in range(workers):
        in_queue.put(None)
    processes = [
        ctx.Process(
            target=_worker,
            args=(in_queue, out_queue,
                  None if spool_dir is None
                  else str(spool_dir / f"worker-{w:04d}.json"),
                  w),
            daemon=True)
        for w in range(workers)
    ]
    for process in processes:
        process.start()
    results: list = [None] * len(tasks)
    failures: list[tuple[int, str, str]] = []
    try:
        for _ in range(len(tasks)):
            index, ok, payload = out_queue.get()
            if ok:
                results[index] = payload
            else:
                failures.append((index, *payload))
    finally:
        for process in processes:
            process.join()
        if registry is not None and spool_dir is not None:
            _merge_spools(registry, spool_dir)
    if failures:
        index, message, trace = failures[0]
        raise ParallelExecutionError(
            f"{len(failures)} of {len(tasks)} sweep tasks failed; "
            f"first failure (task {index}): {message}\n{trace}")
    return results


def _merge_spools(registry, spool_dir: Path) -> None:
    """Fold the workers' spooled registries into the parent's.

    Spools merge in worker order, so repeated runs aggregate
    deterministically; a missing or corrupt spool (a worker that died
    mid-run) loses only that worker's telemetry, never the run.
    """
    try:
        for path in sorted(spool_dir.glob("*.json")):
            with contextlib.suppress(OSError, ValueError, KeyError,
                                     TypeError):
                with open(path, encoding="utf-8") as handle:
                    registry.merge(json.load(handle))
    finally:
        shutil.rmtree(spool_dir, ignore_errors=True)


def map_calls(fn, items: list, jobs: int | None = None,
              kwargs: dict | None = None) -> list:
    """Apply a module-level callable to each item across worker
    processes, results in item order.

    The generic fork/join entry point behind the capacity planner's
    what-if fan-out: ``fn``, every item and every kwarg must be
    picklable, and ``fn`` must be importable from its module (no
    closures or lambdas) so a worker can reconstruct the call.
    Failures surface as :class:`ParallelExecutionError`, like every
    other sweep task.
    """
    tasks = [_CallTask(fn=fn, item=item, kwargs=dict(kwargs or {}))
             for item in items]
    return _fan_out(tasks, resolve_jobs(jobs))


def run_experiments(
    specs: list[ExperimentSpec],
    sites: dict[str, SiteParameters] | None = None,
    jobs: int | None = None,
    sim_seed: int = 7,
    sim_warmup_ms: float = 60_000.0,
    sim_duration_ms: float = 600_000.0,
    run_simulation: bool = True,
    model_kwargs: dict | None = None,
    warm_start: bool = False,
    trace: bool = False,
) -> list[ExperimentResult]:
    """Run one or more experiments with their sweep points fanned out
    across ``jobs`` worker processes (inline when ``jobs=1``).

    Returns one result per spec, in spec order, bit-identical for every
    ``jobs`` value given the same arguments and seed.
    ``run_simulation=False`` skips the simulator and reports zeros in
    the sim columns (model-only sweeps).  ``warm_start=True`` chains the
    model solves across each sweep and ``trace=True`` attaches a
    convergence trace to every sweep point as ``model_trace`` (see
    :func:`repro.experiments.runner.solve_sweep_models`).
    """
    sites = sites or paper_sites()
    jobs = resolve_jobs(jobs)
    sweeps = [tuple(spec.workload_factory(n) for n in spec.sweep)
              for spec in specs]
    tasks: list = [
        _ModelTask(spec_index=i, workloads=workloads, sites=sites,
                   model_kwargs=model_kwargs, warm_start=warm_start,
                   trace=trace)
        for i, workloads in enumerate(sweeps)
    ]
    if run_simulation:
        tasks += [
            _SimTask(spec_index=i, point_index=j, workload=workload,
                     sites=sites, seed=sim_seed,
                     warmup_ms=sim_warmup_ms,
                     duration_ms=sim_duration_ms)
            for i, workloads in enumerate(sweeps)
            for j, workload in enumerate(workloads)
        ]
    with span("runner.sweep_run", specs=len(specs), jobs=jobs,
              tasks=len(tasks)):
        outputs = _fan_out(tasks, jobs)

    solutions = {task.spec_index: output
                 for task, output in zip(tasks, outputs)
                 if isinstance(task, _ModelTask)}
    measurements = {(task.spec_index, task.point_index): output
                    for task, output in zip(tasks, outputs)
                    if isinstance(task, _SimTask)}
    results: list[ExperimentResult] = []
    for i, spec in enumerate(specs):
        points: list[SweepPoint] = []
        for j, n in enumerate(spec.sweep):
            points += assemble_points(
                spec, n, solutions[i][j], measurements.get((i, j)))
        results.append(ExperimentResult(spec=spec, points=tuple(points)))
    return results
