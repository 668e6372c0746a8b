"""Experiment harness: run model and simulator side by side.

Each experiment sweeps the transaction size ``n`` for one of the
paper's workloads and collects, per site, the measures the paper
reports: TR-XPUT (commits/s), normalized record throughput, Total-CPU
(utilization) and Total-DIO (disk I/Os per second).  "Model" columns
come from the analytical solver, "sim" columns from the CARAT
simulator — our stand-in for the paper's testbed measurements
(DESIGN.md §4.1).

This module holds the spec and result types, the model sweep solve and
the point assembly.  Every sweep runs through one path:
:func:`repro.experiments.parallel.run_experiments`, usually behind the
result cache in :func:`repro.experiments.cache.fetch_or_run_many`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Callable

from repro.model.diagnostics import ConvergenceTrace
from repro.model.parameters import SiteParameters
from repro.obs.spans import span
from repro.model.results import ModelSolution
from repro.model.solver import CaratModel, ModelConfig
from repro.model.types import BaseType
from repro.model.workload import WorkloadSpec
from repro.testbed.metrics import SimulationMeasurement

__all__ = ["ExperimentSpec", "SweepPoint", "ExperimentResult",
           "solve_sweep_models", "PAPER_SWEEP"]

#: Transaction sizes the paper sweeps (§6).
PAPER_SWEEP = (4, 8, 12, 16, 20)


@dataclass(frozen=True)
class ExperimentSpec:
    """Declarative description of one table/figure reproduction.

    Attributes
    ----------
    exp_id:
        Identifier used in DESIGN.md / EXPERIMENTS.md (e.g. ``"tab3"``).
    title:
        Human-readable title.
    workload_factory:
        Callable ``n -> WorkloadSpec``.
    sweep:
        Transaction sizes to run.
    sites_of_interest:
        Sites whose measures the artifact reports (Figures 5–7 report
        Node B only; the rest report both).
    paper_reference:
        Published numbers when the artifact is a numeric table:
        ``{(n, site): {"xput": .., "cpu": .., "dio": ..}}`` for the
        *model* and *measurement* columns.  Empty for image-only
        figures.
    """

    exp_id: str
    title: str
    workload_factory: Callable[[int], WorkloadSpec]
    sweep: tuple[int, ...] = PAPER_SWEEP
    sites_of_interest: tuple[str, ...] = ("A", "B")
    paper_model: dict = field(default_factory=dict)
    paper_measured: dict = field(default_factory=dict)


@dataclass(frozen=True)
class SweepPoint:
    """Model + simulator measures for one (n, site) pair."""

    n: int
    site: str
    model_xput: float
    model_record_xput: float
    model_cpu: float
    model_dio: float
    sim_xput: float
    sim_record_xput: float
    sim_cpu: float
    sim_dio: float
    sim_aborts_per_commit: float
    model_by_type: dict[BaseType, float] = field(default_factory=dict)
    sim_by_type: dict[BaseType, float] = field(default_factory=dict)
    #: JSON-ready convergence trace of this point's model solve
    #: (:meth:`repro.model.diagnostics.ConvergenceTrace.to_dict`),
    #: populated only when the sweep ran with tracing enabled.  Shared
    #: by every site of the same ``n``; rides through the result cache.
    model_trace: dict | None = None


@dataclass(frozen=True)
class ExperimentResult:
    """All sweep points of one experiment."""

    spec: ExperimentSpec
    points: tuple[SweepPoint, ...]

    def point(self, n: int, site: str) -> SweepPoint:
        for p in self.points:
            if p.n == n and p.site == site:
                return p
        raise KeyError((n, site))

    def series(self, site: str, attr: str) -> list[tuple[int, float]]:
        """One figure series: (n, value) pairs for a site/attribute."""
        return [(p.n, getattr(p, attr)) for p in self.points
                if p.site == site]


_CHAIN_OF = {BaseType.LRO: "LRO", BaseType.LU: "LU",
             BaseType.DRO: "DROC", BaseType.DU: "DUC"}


def _model_point(solution: ModelSolution, site: str,
                 n: int) -> dict:
    from repro.model.types import ChainType
    s = solution.site(site)
    by_type = {}
    for base, chain_name in _CHAIN_OF.items():
        chain = ChainType(chain_name)
        if chain in s.chains:
            by_type[base] = s.chains[chain].throughput_per_s
    return {
        "xput": s.transaction_throughput_per_s,
        "record_xput": s.record_throughput_per_s,
        "cpu": s.cpu_utilization,
        "dio": s.dio_rate_per_s,
        "by_type": by_type,
    }


def _sim_point(measurement: SimulationMeasurement, site: str) -> dict:
    s = measurement.site(site)
    commits = sum(s.commits_by_type.values())
    aborts = sum(s.aborts_by_type.values())
    return {
        "xput": s.transaction_throughput_per_s,
        "record_xput": s.record_throughput_per_s,
        "cpu": s.cpu_utilization,
        "dio": s.dio_rate_per_s,
        "aborts_per_commit": aborts / commits if commits else 0.0,
        "by_type": {base: s.throughput_per_s(base) for base in BaseType
                    if s.commits_by_type.get(base, 0) > 0},
    }


def solve_sweep_models(
    workloads: list[WorkloadSpec],
    sites: dict[str, SiteParameters],
    model_kwargs: dict | None = None,
    warm_start: bool = False,
    trace: bool = False,
) -> list[ModelSolution]:
    """Solve the analytical model for a sweep of workloads.

    With ``warm_start=True`` each solve seeds its fixed-point iterates
    (conflict probabilities, delay-center times, throughputs) from the
    converged state of the previous workload in the list, which cuts
    the iteration count on the paper's 5-point sweeps; the fixed point
    itself is unchanged up to the solver tolerance.

    With ``trace=True`` every solve runs with a fresh
    :class:`~repro.model.diagnostics.ConvergenceTrace` attached, left
    on each returned solution's ``trace`` field.

    Cold sweeps (``warm_start=False``) run every point as one batched
    tensor program (:func:`repro.model.outer.solve_outer_batch`): the
    grid points iterate in lockstep with per-element convergence
    masking, producing bit-identical solutions to solving them one by
    one.  Warm-started sweeps chain sequentially — each point's seed
    is the previous point's converged snapshot, a data dependency no
    batch can break.
    """
    from repro.model.outer import solve_outer_batch

    model_kwargs = dict(model_kwargs or {})
    model_kwargs.setdefault("max_iterations", 1000)
    with span("runner.sweep_solve", points=len(workloads),
              warm_start=warm_start):
        if not warm_start:
            models = [
                CaratModel(
                    ModelConfig(workload=workload, sites=sites,
                                **model_kwargs),
                    diagnostics=ConvergenceTrace() if trace else None)
                for workload in workloads
            ]
            return solve_outer_batch(models)
        solutions: list[ModelSolution] = []
        seed = None
        for workload in workloads:
            model = CaratModel(
                ModelConfig(workload=workload, sites=sites,
                            **model_kwargs),
                warm_start=seed,
                diagnostics=ConvergenceTrace() if trace else None)
            solutions.append(model.solve())
            seed = model.snapshot()
        return solutions


def assemble_points(
    spec: ExperimentSpec,
    n: int,
    solution: ModelSolution,
    measurement: SimulationMeasurement | None,
) -> list[SweepPoint]:
    """Build the sweep points of one ``n`` from its model solution and
    (``None`` for model-only sweeps) its simulator measurement."""
    points: list[SweepPoint] = []
    trace_dict = (solution.trace.to_dict()
                  if solution.trace is not None else None)
    for site in spec.sites_of_interest:
        model = _model_point(solution, site, n)
        if measurement is not None:
            sim = _sim_point(measurement, site)
        else:
            sim = {"xput": 0.0, "record_xput": 0.0, "cpu": 0.0,
                   "dio": 0.0, "aborts_per_commit": 0.0,
                   "by_type": {}}
        points.append(SweepPoint(
            n=n, site=site,
            model_xput=model["xput"],
            model_record_xput=model["record_xput"],
            model_cpu=model["cpu"],
            model_dio=model["dio"],
            sim_xput=sim["xput"],
            sim_record_xput=sim["record_xput"],
            sim_cpu=sim["cpu"],
            sim_dio=sim["dio"],
            sim_aborts_per_commit=sim["aborts_per_commit"],
            model_by_type=model["by_type"],
            sim_by_type=sim["by_type"],
            model_trace=trace_dict,
        ))
    return points
