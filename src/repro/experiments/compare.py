"""Model-vs-simulation residual report (``repro compare``).

Runs the analytical solver and the testbed simulator on the same
workload, with telemetry attached to the simulator, and lines up the
measures the paper compares (Tables 3-5): per-site utilizations,
throughput and abort rates, and — via the phase-span telemetry — the
per-(site, type) response time broken into the model's service
centers (CPU, disk, LW, RW, CW).

The comparison is *directional*: residual = predicted/measured - 1,
so +10% means the model over-predicts.  Rows whose measured value sits
below a metric-specific floor (sub-millisecond times, near-idle
utilizations, near-zero rates) are reported but not *comparable* —
tiny denominators make relative error meaningless — and are never
flagged against ``--max-residual``.
"""

from __future__ import annotations

import json
from typing import Any

from repro.errors import ConfigurationError
from repro.model.parameters import SiteParameters, paper_sites
from repro.model.results import ChainResult, ModelSolution
from repro.model.solver import solve_model
from repro.model.types import BASE_TO_USER_CHAIN, BaseType
from repro.model.workload import STANDARD_WORKLOADS, WorkloadSpec
from repro.testbed.metrics import SimulationMeasurement, SiteMeasurement
from repro.testbed.system import CaratSimulation, SimulationConfig
from repro.testbed.telemetry import Telemetry

__all__ = ["compare_workload", "compare_spec", "render_table",
           "flagged_rows"]

#: Measured-value floors below which a relative residual is noise.
_FLOORS = {"_ms": 1.0, "_utilization": 0.02, "_per_s": 0.01}


def _floor_for(metric: str) -> float:
    for suffix, floor in _FLOORS.items():
        if metric.endswith(suffix):
            return floor
    return 0.0


def _row(site: str, base: BaseType | None, metric: str,
         measured: float, predicted: float) -> dict[str, Any]:
    comparable = measured >= _floor_for(metric)
    return {
        "site": site,
        "base": base.value if base is not None else None,
        "metric": metric,
        "measured": measured,
        "predicted": predicted,
        "residual": (predicted / measured - 1.0) if comparable else None,
        "comparable": comparable,
    }


def _site_rows(site: str, measured: SiteMeasurement,
               solution: ModelSolution) -> list[dict[str, Any]]:
    model_site = solution.site(site)
    rows = [
        _row(site, None, "cpu_utilization",
             measured.cpu_utilization, model_site.cpu_utilization),
        _row(site, None, "disk_utilization",
             measured.disk_utilization, model_site.disk_utilization),
        _row(site, None, "tr_xput_per_s",
             measured.transaction_throughput_per_s,
             model_site.transaction_throughput_per_s),
    ]
    if model_site.log_disk_utilization > 0.0 \
            or measured.log_disk_utilization > 0.0:
        rows.insert(2, _row(site, None, "log_disk_utilization",
                            measured.log_disk_utilization,
                            model_site.log_disk_utilization))
    # Lock-wait rate: blocked lock requests per second at the site
    # (all chains, slave work included) vs. the lock submodel's
    # blocking probability applied to the predicted request stream.
    predicted_waits = sum(
        chain.throughput_per_s * chain.lock_state.locks
        * chain.n_submissions * chain.lock_state.blocking
        for chain in model_site.chains.values())
    rows.append(_row(site, None, "lock_wait_rate_per_s",
                     measured.lock_waits / measured.elapsed_s,
                     predicted_waits))
    # Abort rate of the site's own users: every abort is a deadlock
    # victim, so the model predicts N_s - 1 aborts per commit.
    predicted_aborts = sum(
        chain.throughput_per_s * (chain.n_submissions - 1.0)
        for kind, chain in model_site.chains.items()
        if kind in BASE_TO_USER_CHAIN.values())
    rows.append(_row(site, None, "abort_rate_per_s",
                     sum(measured.aborts_by_type.values())
                     / measured.elapsed_s,
                     predicted_aborts))
    return rows


def _chain_rows(site: str, base: BaseType, measured: SiteMeasurement,
                chain: ChainResult,
                telemetry: Telemetry) -> list[dict[str, Any]]:
    centers = telemetry.center_breakdown(site, base)
    residence = chain.residence_ms
    # Measured disk spans include the synchronous log forces; the
    # model splits them onto a logdisk center when one is configured.
    # The measured TM critical section rides on the CPU; fold the
    # model's optional TM-serialization center in likewise.
    predicted = {
        "cpu": residence.get("cpu", 0.0) + residence.get("tms", 0.0),
        "disk": residence.get("disk", 0.0) + residence.get("logdisk", 0.0),
        "lw": residence.get("lw", 0.0),
        "rw": residence.get("rw", 0.0),
        "cw": residence.get("cw", 0.0),
    }
    rows = [_row(site, base, "response_ms",
                 measured.mean_response_ms_by_type.get(base, 0.0),
                 chain.cycle_response_ms)]
    for center in ("cpu", "disk", "lw", "rw", "cw"):
        rows.append(_row(site, base, f"{center}_ms",
                         centers.get(center, 0.0), predicted[center]))
    return rows


def compare_workload(workload_name: str, requests: int = 8,
                     seed: int = 7,
                     duration_ms: float = 600_000.0,
                     warmup_ms: float = 60_000.0,
                     quick: bool = False,
                     sites: dict[str, SiteParameters] | None = None,
                     sample_interval_ms: float = 1_000.0) -> dict[str, Any]:
    """Solve + simulate one standard workload and return the residual
    report (name-based convenience over :func:`compare_spec`).

    ``quick`` shortens the simulation window (60 s measured after a
    10 s warm-up) for smoke tests; expect noisier residuals.
    """
    if workload_name not in STANDARD_WORKLOADS:
        raise ConfigurationError(f"unknown workload {workload_name!r}")
    return compare_spec(STANDARD_WORKLOADS[workload_name](requests),
                        seed=seed, duration_ms=duration_ms,
                        warmup_ms=warmup_ms, quick=quick, sites=sites,
                        sample_interval_ms=sample_interval_ms)


def compare_spec(workload: WorkloadSpec,
                 seed: int = 7,
                 duration_ms: float = 600_000.0,
                 warmup_ms: float = 60_000.0,
                 quick: bool = False,
                 sites: dict[str, SiteParameters] | None = None,
                 sample_interval_ms: float = 1_000.0) -> dict[str, Any]:
    """Solve + simulate an arbitrary workload spec and return the
    residual report.

    The workload-first entry point behind ``repro scenario compare``:
    any :class:`WorkloadSpec` — hand-built, catalog or compiled from a
    scenario — gets the same model-vs-measurement gate the paper
    workloads do.
    """
    if quick:
        duration_ms, warmup_ms = 60_000.0, 10_000.0
    site_params = sites if sites is not None else paper_sites()
    solution = solve_model(workload, site_params, max_iterations=1000)
    telemetry = Telemetry(sample_interval_ms=sample_interval_ms)
    simulation = CaratSimulation(SimulationConfig(
        workload=workload, sites=site_params, seed=seed,
        warmup_ms=warmup_ms, duration_ms=duration_ms,
        telemetry=telemetry))
    measurement = simulation.run()
    rows = _build_rows(workload, measurement, solution, telemetry)
    return {
        "workload": workload.name,
        "requests": workload.requests_per_txn,
        "seed": seed,
        "warmup_ms": warmup_ms,
        "duration_ms": duration_ms,
        "model": {
            "iterations": solution.iterations,
            "converged": solution.converged,
            "residual": solution.residual,
        },
        "telemetry": telemetry.summary(),
        "rows": rows,
    }


def _build_rows(workload, measurement: SimulationMeasurement,
                solution: ModelSolution,
                telemetry: Telemetry) -> list[dict[str, Any]]:
    rows: list[dict[str, Any]] = []
    for site in sorted(measurement.sites):
        measured = measurement.site(site)
        rows.extend(_site_rows(site, measured, solution))
        for base, chain_type in BASE_TO_USER_CHAIN.items():
            if workload.user_count(site, base) == 0:
                continue
            chain = solution.site(site).chains.get(chain_type)
            if chain is None or not measured.commits_by_type.get(base):
                continue
            rows.extend(_chain_rows(site, base, measured, chain,
                                    telemetry))
    return rows


def flagged_rows(report: dict[str, Any],
                 max_residual: float) -> list[dict[str, Any]]:
    """Comparable rows whose |residual| exceeds *max_residual*."""
    return [row for row in report["rows"]
            if row["comparable"]
            and abs(row["residual"]) > max_residual]


def render_table(report: dict[str, Any],
                 max_residual: float | None = None) -> str:
    """Human-readable residual table; rows beyond *max_residual* get
    a trailing ``*``."""
    lines = [
        f"model vs simulation: workload {report['workload']}, "
        f"n={report['requests']}, seed={report['seed']} "
        f"({report['duration_ms'] / 1e3:.0f}s measured)",
        f"model solve: {report['model']['iterations']} iterations, "
        f"converged={report['model']['converged']}",
        f"{'site':<5} {'type':<5} {'metric':<22} "
        f"{'measured':>10} {'predicted':>10} {'residual':>9}",
    ]
    for row in report["rows"]:
        base = row["base"] or "-"
        if row["comparable"]:
            residual = f"{100.0 * row['residual']:+8.1f}%"
            if max_residual is not None \
                    and abs(row["residual"]) > max_residual:
                residual += " *"
        else:
            residual = "      n/a"
        lines.append(
            f"{row['site']:<5} {base:<5} {row['metric']:<22} "
            f"{row['measured']:>10.3f} {row['predicted']:>10.3f} "
            f"{residual}")
    if max_residual is not None:
        flagged = flagged_rows(report, max_residual)
        lines.append(
            f"{len(flagged)} of "
            f"{sum(1 for r in report['rows'] if r['comparable'])} "
            f"comparable rows exceed |residual| > "
            f"{100.0 * max_residual:.0f}%")
    return "\n".join(lines)


def render_json(report: dict[str, Any]) -> str:
    """The report as indented JSON."""
    return json.dumps(report, indent=2, sort_keys=True)
