"""The benchmark's workloads: seeded request lists and output checks.

Each workload turns the benchmark seed into an ordered list of
requests.  A request is one call of the program's public API, made the
way a user of the reproduction makes it; its check returns an error
message, or ``None`` when the output is correct.  Requests look the
API up through module attributes at call time, so a traced run sees
the wrappers the recorder installs.

This module runs only inside a child interpreter, after ``repro.cli``
has been imported.
"""

from __future__ import annotations

import math
import random
from collections.abc import Callable
from dataclasses import dataclass
from functools import partial
from typing import Any

import repro.experiments.cache as experiment_cache
import repro.experiments.catalog as catalog
import repro.experiments.runner as runner
import repro.model.parameters as parameters
import repro.model.results as results
import repro.model.workload as model_workload
import repro.planner as planner
import repro.scenarios.generator as generator
import repro.scenarios.run as scenario_run

#: Little's law tolerance on every user chain of a model solution.
LITTLE_TOLERANCE = 1e-6


def _no_samples(output: Any) -> dict[str, list[float]]:
    return {}


@dataclass(frozen=True)
class Request:
    """One call of the program and the check of its output.

    ``samples`` reduces a correct output to the samples of the
    workload's accuracy metrics (each reported as a median).
    """

    label: str
    call: Callable[[], Any]
    check: Callable[[Any], str | None]
    samples: Callable[[Any], dict[str, list[float]]] = _no_samples


def _rng(workload: str, seed: int) -> random.Random:
    # A string seed hashes with SHA-512, independent of PYTHONHASHSEED.
    return random.Random(f"{workload}:{seed}")


# -- paper-sweep ---------------------------------------------------------------


def _sweep(spec, sim_seed: int, cfg: dict):
    return experiment_cache.fetch_or_run_many(
        [spec], sim_seed=sim_seed,
        sim_duration_ms=float(cfg["sim_duration_ms"]),
        sim_warmup_ms=float(cfg["sim_warmup_ms"]),
        jobs=1, use_cache=False)[0]


def _check_sweep(result) -> str | None:
    for site in result.spec.sites_of_interest:
        points = sorted((p for p in result.points if p.site == site),
                        key=lambda p: p.n)
        if len(points) != len(result.spec.sweep):
            return f"site {site}: {len(points)} sweep points"
        for p in points:
            if not p.model_xput > 0.0:
                return f"site {site} n={p.n}: model xput {p.model_xput}"
            if not p.sim_xput > 0.0:
                return f"site {site} n={p.n}: no simulated commits"
        for low, high in zip(points, points[1:]):
            if high.model_xput > low.model_xput:
                return (f"site {site}: model xput rises from n={low.n} "
                        f"to n={high.n}")
    return None


def _sweep_samples(result) -> dict[str, list[float]]:
    """Model-vs-simulator gap of every point, and the model's error
    against the paper's model column on the xput/cpu/dio cells of
    Tables 3-4."""
    errors = []
    for p in result.points:
        paper = result.spec.paper_model.get((p.n, p.site))
        if paper is not None:
            ours = (p.model_xput, p.model_cpu, p.model_dio)
            errors += [abs(mine / theirs - 1.0)
                       for mine, theirs in zip(ours, paper)]
    return {"model_sim_gap": [abs(p.model_xput / p.sim_xput - 1.0)
                              for p in result.points],
            "paper_err": errors}


def paper_sweep(cfg: dict, seed: int, count: int) -> list[Request]:
    """``repro experiment <id> --quick`` on four artifacts, each with
    sim seeds drawn from the benchmark seed."""
    ids = cfg["experiments"]
    rng = _rng("paper-sweep", seed)
    sim_seeds = [rng.randrange(1, 2**31)
                 for _ in range(-(-count // len(ids)))]
    requests = []
    for i in range(count):
        spec = catalog.experiment(ids[i % len(ids)])
        sim_seed = sim_seeds[i // len(ids)]
        requests.append(Request(f"{spec.exp_id}/sim{sim_seed}",
                                partial(_sweep, spec, sim_seed, cfg),
                                _check_sweep, _sweep_samples))
    return requests


# -- scenario-compare ----------------------------------------------------------


def _check_report(report: dict) -> str | None:
    if not report["model"]["converged"]:
        return "model did not converge"
    for row in report["rows"]:
        if row["metric"] == "tr_xput_per_s" and not row["measured"] > 0.0:
            return f"site {row['site']}: no simulated commits"
    if not any(row["comparable"] and math.isfinite(row["residual"])
               for row in report["rows"]):
        return "no comparable row with a finite residual"
    return None


def _report_samples(report: dict) -> dict[str, list[float]]:
    return {"model_sim_gap": [
        abs(row["residual"]) for row in report["rows"]
        if row["metric"] == "tr_xput_per_s" and row["comparable"]]}


def scenario_compare(cfg: dict, seed: int, count: int) -> list[Request]:
    """The CI residual gate: ``compare_scenario(..., quick=True)`` on
    scenarios sampled from one family with the benchmark seed."""
    scenarios = generator.sample_family(
        generator.family(cfg["family"]), seed, count)
    sizes = cfg["n"]
    rng = _rng("scenario-compare", seed)
    requests = []
    for i, scenario in enumerate(scenarios):
        n = sizes[i % len(sizes)]
        sim_seed = rng.randrange(1, 2**31)
        requests.append(Request(
            f"{scenario.name}/n{n}/sim{sim_seed}",
            partial(_compare, scenario, n, sim_seed), _check_report,
            _report_samples))
    return requests


def _compare(scenario, n: int, sim_seed: int) -> dict:
    return scenario_run.compare_scenario(scenario, n=n, sim_seed=sim_seed,
                                         quick=True, use_cache=False)


# -- plan-slo ------------------------------------------------------------------


def _plan(spec):
    return planner.plan(spec, jobs=1, use_cache=False)


def _check_plan(target_ms: float, result) -> str | None:
    point = result.optimum.point
    if not (point.converged and point.throughput_per_s > 0.0):
        return f"optimum at MPL {point.mpl} is not a converged solution"
    verdict = result.slo[0]
    if verdict.max_mpl is not None and not verdict.value_at_max <= target_ms:
        return (f"response {verdict.value_at_max} ms at max MPL "
                f"{verdict.max_mpl} exceeds the SLO {target_ms} ms")
    capacity = verdict.max_arrival_per_s
    if capacity is None or not (capacity > 0.0 and math.isfinite(capacity)):
        return f"open-model capacity {capacity}"
    return None


def plan_slo(cfg: dict, seed: int, count: int) -> list[Request]:
    """Model-only capacity planning with frozen response-time SLOs.
    The seed is unused: the plan inputs are fixed."""
    del seed
    combos = [(mix, int(n), float(target))
              for mix, targets in cfg["slo_response_ms"].items()
              for n, target in targets.items()]
    requests = []
    for i in range(count):
        mix, n, target = combos[i % len(combos)]
        spec = planner.PlanSpec(
            workload=model_workload.STANDARD_WORKLOADS[mix](n),
            mpl_max=int(cfg["mpl_max"]),
            slo=planner.SloSpec(response_ms=target),
            whatif=planner.standard_candidates())
        requests.append(Request(f"{mix}/n{n}/slo{target:g}",
                                partial(_plan, spec),
                                partial(_check_plan, target)))
    return requests


# -- model-grid ----------------------------------------------------------------


def _solve_grid(workloads: list, sites: dict) -> list:
    return runner.solve_sweep_models(workloads, sites)


def _check_grid(size: int, solutions: list) -> str | None:
    if len(solutions) != size:
        return f"{len(solutions)} solutions for {size} points"
    for solution in solutions:
        where = f"{solution.workload_name} n={solution.requests_per_txn}"
        if not solution.converged:
            return f"{where}: not converged"
        for site in solution.sites.values():
            for kind, chain in site.chains.items():
                if kind not in results.USER_CHAINS or chain.population == 0:
                    continue
                if not chain.throughput_per_s > 0.0:
                    return f"{where} {site.site}/{kind.value}: zero xput"
                little = chain.throughput_per_s * chain.cycle_response_ms / 1e3
                if abs(little - chain.population) > LITTLE_TOLERANCE:
                    return (f"{where} {site.site}/{kind.value}: Little's "
                            f"law N={chain.population} vs X*R={little}")
    return None


def model_grid(cfg: dict, seed: int, count: int) -> list[Request]:
    """Cold batched model sweeps over every mix and size, each on a
    site variant whose disks are slowed or sped up by a seeded factor."""
    workloads = [model_workload.STANDARD_WORKLOADS[mix](n)
                 for mix in cfg["mixes"]
                 for n in range(int(cfg["n_min"]), int(cfg["n_max"]) + 1)]
    low, high = cfg["block_io_factor"]
    rng = _rng("model-grid", seed)
    requests = []
    for _ in range(count):
        factor = rng.uniform(low, high)
        sites = {name: site.with_block_io(site.block_io_ms * factor)
                 for name, site in parameters.paper_sites().items()}
        requests.append(Request(f"grid/io{factor:.4f}",
                                partial(_solve_grid, workloads, sites),
                                partial(_check_grid, len(workloads))))
    return requests


BUILDERS = {
    "paper-sweep": paper_sweep,
    "scenario-compare": scenario_compare,
    "plan-slo": plan_slo,
    "model-grid": model_grid,
}
