"""Running and gating scenarios (``repro scenario run|compare``).

Scenario sweeps ride the existing experiment harness: each scenario
becomes an :class:`~repro.experiments.runner.ExperimentSpec` whose
factory compiles the scenario per sweep point, so ``--jobs`` fan-out,
warm starts and the content-addressed result cache all work unchanged
(the cache digests the compiled workloads).

:func:`compare_scenario` extends ``repro compare``'s
model-vs-simulator residual gate to any scenario: the spec compiles
once and both sides consume the identical workload.  Residual reports
can memoize in the payload cache under scenario-digest keys.
"""

from __future__ import annotations

from typing import Any

from repro.model.parameters import SiteParameters
from repro.obs import metrics as obs
from repro.scenarios.compile import compile_workload, experiment_spec
from repro.scenarios.spec import (SCENARIO_SCHEMA, ScenarioSpec,
                                  scenario_digest)

__all__ = ["run_scenarios", "compare_scenario", "compare_scenarios",
           "flagged_total"]


def run_scenarios(scenarios: list[ScenarioSpec],
                  sites: dict[str, SiteParameters] | None = None,
                  quick: bool = False,
                  model_only: bool = False,
                  jobs: int | None = 1,
                  use_cache: bool = False,
                  warm_start: bool = False,
                  sim_seed: int = 7) -> list[Any]:
    """Sweep every scenario (model + optionally simulator).

    Returns one :class:`~repro.experiments.runner.ExperimentResult`
    per scenario, in order.
    """
    from repro.experiments.cache import fetch_or_run_many

    duration = 120_000.0 if quick else 600_000.0
    specs = [experiment_spec(scenario) for scenario in scenarios]
    return fetch_or_run_many(
        specs, sites=sites, sim_seed=sim_seed,
        sim_duration_ms=duration, sim_warmup_ms=duration / 10,
        run_simulation=not model_only, jobs=jobs,
        warm_start=warm_start, use_cache=use_cache)


def compare_scenario(scenario: ScenarioSpec,
                     n: int | None = None,
                     sim_seed: int = 7,
                     duration_ms: float = 600_000.0,
                     warmup_ms: float = 60_000.0,
                     quick: bool = False,
                     sites: dict[str, SiteParameters] | None = None,
                     use_cache: bool = False) -> dict[str, Any]:
    """Model-vs-simulator residual report for one scenario.

    The report is :func:`repro.experiments.compare.compare_spec`'s,
    plus a ``scenario`` section carrying the name and content digest.
    With ``use_cache`` the report memoizes in the result cache keyed
    by the scenario digest and every run parameter.
    """
    from repro.experiments.cache import (ResultCache, payload_digest)
    from repro.experiments.compare import compare_spec

    digest = scenario_digest(scenario)
    cache = ResultCache() if use_cache else None
    key = None
    if cache is not None:
        key = payload_digest(
            "scenario-compare",
            {"digest": digest, "n": n, "sim_seed": sim_seed,
             "duration_ms": duration_ms, "warmup_ms": warmup_ms,
             "quick": quick, "default_sites": sites is None},
            schema=SCENARIO_SCHEMA)
        cached = cache.get(key)
        if cached is not None:
            return cached
    workload = compile_workload(scenario, n=n)
    report = compare_spec(workload, seed=sim_seed,
                          duration_ms=duration_ms,
                          warmup_ms=warmup_ms, quick=quick,
                          sites=sites)
    report["scenario"] = {
        "name": scenario.name,
        "digest": digest,
        "description": scenario.description,
        "zipf_s": scenario.zipf_s,
        "mix": scenario.normalized_mix(),
    }
    if cache is not None and key is not None:
        cache.put(key, report)
    return report


def compare_scenarios(scenarios: list[ScenarioSpec],
                      max_residual: float | None = None,
                      jobs: int | None = 1,
                      **kwargs: Any) -> tuple[list[dict[str, Any]], int]:
    """Residual reports for several scenarios plus the flagged count.

    The per-scenario solve+simulate pairs fan out over ``jobs`` worker
    processes (:func:`~repro.experiments.parallel.map_calls`, inline
    when ``jobs=1``); reports come back in scenario order either way.
    Emits ``scenario.compare_failures`` (scenarios with at least one
    comparable row beyond *max_residual*) to the active obs registry.
    """
    from repro.experiments.parallel import map_calls
    reports = map_calls(compare_scenario, list(scenarios), jobs=jobs,
                        kwargs=dict(kwargs))
    failures = 0
    if max_residual is not None:
        from repro.experiments.compare import flagged_rows
        failures = sum(1 for report in reports
                       if flagged_rows(report, max_residual))
    obs.add("scenario.compare_failures", float(failures))
    return reports, failures


def flagged_total(reports: list[dict[str, Any]],
                  max_residual: float) -> int:
    """Comparable rows beyond *max_residual*, summed over reports."""
    from repro.experiments.compare import flagged_rows
    return sum(len(flagged_rows(report, max_residual))
               for report in reports)
