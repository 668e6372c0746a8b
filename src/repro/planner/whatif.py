"""Hardware what-if engine: re-plan under modified site parameters.

Each :class:`~repro.planner.spec.WhatIfCandidate` transforms every
site's parameters (faster CPU or disk, more granules, a dedicated log
disk) and re-evaluates the mix at the baseline-optimal MPL.  The
candidates are independent, so they fan out across worker processes
through the generic :func:`repro.experiments.parallel.map_calls`
invoker, and each evaluation is memoized in the content-addressed
result cache exactly like the baseline's.
"""

from __future__ import annotations

from dataclasses import replace

from repro.model.parameters import SiteParameters
from repro.model.workload import WorkloadSpec
from repro.planner.bottleneck import top_bottleneck
from repro.planner.search import PlanEvaluator
from repro.planner.spec import MplPoint, WhatIfCandidate, WhatIfOutcome

__all__ = ["standard_candidates", "apply_candidate", "run_whatif"]

#: BasicPhaseCosts fields that are CPU time (scaled by a CPU speedup).
_PHASE_CPU_FIELDS = ("u_cpu", "tm_cpu", "dm_cpu", "lr_cpu", "dmio_cpu")

#: ProtocolCosts fields that are CPU time.
_PROTOCOL_CPU_FIELDS = ("tbegin_cpu", "dbopen_cpu_per_site",
                        "commit_cpu", "undo_cpu_per_granule",
                        "unlock_cpu_per_lock", "abort_message_cpu")


def standard_candidates() -> tuple[WhatIfCandidate, ...]:
    """The default upgrade menu: faster CPU/disk, doubled granules,
    and the split log disk the paper suggests for the testbed."""
    return (WhatIfCandidate(kind="cpu_speed", factor=2.0),
            WhatIfCandidate(kind="disk_speed", factor=2.0),
            WhatIfCandidate(kind="granules", factor=2.0),
            WhatIfCandidate(kind="log_split"))


def _speed_up_cpu(site: SiteParameters,
                  factor: float) -> SiteParameters:
    costs = {
        base: replace(cost, **{name: getattr(cost, name) / factor
                               for name in _PHASE_CPU_FIELDS})
        for base, cost in site.costs.items()
    }
    protocol = replace(
        site.protocol,
        **{name: getattr(site.protocol, name) / factor
           for name in _PROTOCOL_CPU_FIELDS})
    return site.with_overrides(costs=costs, protocol=protocol)


def apply_candidate(sites: dict[str, SiteParameters],
                    candidate: WhatIfCandidate
                    ) -> dict[str, SiteParameters]:
    """Site parameters with *candidate*'s change applied everywhere."""
    changed = {}
    for name, site in sites.items():
        if candidate.kind == "cpu_speed":
            changed[name] = _speed_up_cpu(site, candidate.factor)
        elif candidate.kind == "disk_speed":
            changed[name] = site.with_block_io(
                site.block_io_ms / candidate.factor)
        elif candidate.kind == "granules":
            changed[name] = site.with_overrides(
                granules=max(1, round(site.granules
                                      * candidate.factor)))
        else:  # log_split — validated by WhatIfCandidate
            changed[name] = site.with_overrides(
                log_on_separate_disk=True)
    return changed


def evaluate_candidate(candidate: WhatIfCandidate,
                       workload: WorkloadSpec,
                       sites: dict[str, SiteParameters],
                       mpl: int,
                       model_kwargs: dict,
                       use_cache: bool = False) -> dict:
    """Solve the mix at *mpl* under one candidate's parameters.

    Module-level (not a closure) so :func:`map_calls` can pickle it
    into worker processes.  Returns plain measures; the speedup ratio
    against the baseline is attached by :func:`run_whatif` in the
    parent.
    """
    evaluator = PlanEvaluator(workload, apply_candidate(sites, candidate),
                              model_kwargs=model_kwargs,
                              use_cache=use_cache)
    point = evaluator.point(mpl)
    return {"candidate": candidate,
            "throughput_per_s": point.throughput_per_s,
            "response_ms": point.response_ms,
            "bottleneck": top_bottleneck(evaluator.solution(mpl)),
            "counters": _evaluator_counters(evaluator)}


def _evaluator_counters(evaluator: PlanEvaluator) -> dict:
    """The evaluator's perf counters, shippable across processes.

    Every candidate evaluation returns these so the parent can fold
    worker-side solve/cache/iteration counts back into its own totals
    (:meth:`PlanEvaluator.absorb_counters`) instead of losing them at
    the fan-out join.
    """
    return {"solves": evaluator.solves,
            "cache_hits": evaluator.cache_hits,
            "cache_misses": evaluator.cache_misses,
            "total_iterations": evaluator.total_iterations}


def _evaluate_batched(candidates: tuple[WhatIfCandidate, ...],
                      workload: WorkloadSpec,
                      sites: dict[str, SiteParameters],
                      mpl: int,
                      model_kwargs: dict,
                      use_cache: bool) -> list[dict]:
    """Evaluate every candidate in one batched outer fixed point."""
    from repro.planner.search import prefetch_batch

    evaluators = [
        PlanEvaluator(workload, apply_candidate(sites, candidate),
                      model_kwargs=model_kwargs, use_cache=use_cache)
        for candidate in candidates
    ]
    prefetch_batch((evaluator, mpl) for evaluator in evaluators)
    results = []
    for candidate, evaluator in zip(candidates, evaluators):
        point = evaluator.point(mpl)
        results.append({
            "candidate": candidate,
            "throughput_per_s": point.throughput_per_s,
            "response_ms": point.response_ms,
            "bottleneck": top_bottleneck(evaluator.solution(mpl)),
            "counters": _evaluator_counters(evaluator),
        })
    return results


def run_whatif(candidates: tuple[WhatIfCandidate, ...],
               workload: WorkloadSpec,
               sites: dict[str, SiteParameters],
               baseline: MplPoint,
               model_kwargs: dict,
               jobs: int | None = 1,
               use_cache: bool = False,
               absorb_into: PlanEvaluator | None = None,
               ) -> tuple[WhatIfOutcome, ...]:
    """Evaluate *candidates* at the baseline-optimal MPL, in parallel.

    The returned outcomes keep the candidates' order; ``speedup`` is
    each candidate's throughput over the baseline optimum's.

    With ``jobs`` of ``None`` or ``1`` the candidates solve in-process
    as one batched tensor program
    (:func:`repro.planner.search.prefetch_batch`): they share the
    workload's chain structure, so the whole upgrade menu is a single
    outer fixed point with per-element convergence masking.  Larger
    ``jobs`` fans candidates out across worker processes instead.

    ``absorb_into`` receives the candidate evaluators' solve/cache
    counters (:meth:`PlanEvaluator.absorb_counters`), so search-cost
    accounting survives the worker fan-out instead of dying with the
    child processes.
    """
    from repro.experiments.parallel import map_calls

    if not candidates:
        return ()
    if jobs in (None, 1):
        raw = _evaluate_batched(candidates, workload, sites,
                                baseline.mpl, model_kwargs, use_cache)
    else:
        raw = map_calls(evaluate_candidate, list(candidates), jobs=jobs,
                        kwargs={"workload": workload, "sites": sites,
                                "mpl": baseline.mpl,
                                "model_kwargs": model_kwargs,
                                "use_cache": use_cache})
    if absorb_into is not None:
        for result in raw:
            absorb_into.absorb_counters(**result["counters"])
    base = baseline.throughput_per_s
    return tuple(
        WhatIfOutcome(
            candidate=result["candidate"],
            throughput_per_s=result["throughput_per_s"],
            response_ms=result["response_ms"],
            speedup=(result["throughput_per_s"] / base
                     if base > 0 else 0.0),
            bottleneck=result["bottleneck"])
        for result in raw)
