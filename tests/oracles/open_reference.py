"""Scalar reference for the open-arrival model.

The dict-based fixed point that :func:`repro.model.open_solver.
solve_open_batch` replaced: every chain at every site rebuilds its
phase matrix, visit counts and cost tables per iteration, and the lock
sub-model runs through the scalar :mod:`repro.model.locking` functions.
Tests compare the batch solver's rows against it (responses, abort
probabilities, submissions, utilizations, iteration counts and the
saturated / non-converged outcome).

The lock model divides by the skew-adjusted granule count, as the
closed engine does.  The damping starts at the given value and backs
off by the closed engine's rule, written here on one scalar: from the
third iteration on, an iteration whose residual did not shrink
multiplies it by ``_DAMPING_BACKOFF``, never below ``_DAMPING_FLOOR``.
A *seed* (``OpenBatch.seed`` of a batch solve) starts every chain from
that iterate instead of from no contention.
"""

from __future__ import annotations

from repro.errors import ConfigurationError, ConvergenceError
from repro.model import demands as demands_mod
from repro.model import locking
from repro.model.open_solver import (OpenChainResult, OpenSolution,
                                     OpenWorkload)
from repro.model.parameters import SiteParameters
from repro.model.phases import ConflictProbabilities, transition_matrix, \
    visit_counts
from repro.model.solver import _DAMPING_BACKOFF, _DAMPING_FLOOR
from repro.model.types import ChainType

__all__ = ["solve_open_reference"]


def solve_open_reference(
    workload: OpenWorkload,
    sites: dict[str, SiteParameters],
    tolerance: float = 1e-6,
    max_iterations: int = 300,
    damping: float = 0.8,
    seed: dict | None = None,
) -> OpenSolution:
    """Solve the open model by scalar fixed-point iteration.

    *seed* maps each iterate field of the batch solver to its ``(M,)``
    values in the batch's state order, which is this loop's.

    Raises
    ------
    ConfigurationError
        If the offered load saturates a CPU or disk (no steady state).
    ConvergenceError
        If the lock fixed point fails to settle.
    """
    template = workload.template
    granules = {name: locking.effective_granules(template, sites[name])
                for name in template.sites}
    # Static per-chain structure.
    state: dict[tuple[str, ChainType], dict] = {}
    for site_name in template.sites:
        site = sites[site_name]
        for chain, rate in workload.chain_rates(site_name).items():
            if rate <= 0.0:
                continue
            q = demands_mod.ios_per_request(site, template, chain)
            locks = demands_mod.lock_count(template, chain, q)
            state[(site_name, chain)] = {
                "rate_ms": rate / 1e3, "q": q, "locks": locks,
                "l": template.local_requests(chain),
                "r": template.remote_requests(chain),
                "pb": 0.0, "pd": 0.0, "pa": 0.0, "ns": 1.0,
                "sigma": 0.5, "eY": locking.locks_at_abort(locks, 0.0),
                "lh": 0.0, "blocked_frac": 0.0, "r_lw": 0.0,
                "response": 0.0, "active": 0.0,
            }
    if not state:
        raise ConfigurationError("open workload has no traffic")
    if seed is not None:
        for m, s in enumerate(state.values()):
            for name, values in seed.items():
                s["eY" if name == "ey" else name] = float(values[m])

    cpu_util: dict[str, float] = {}
    disk_util: dict[str, float] = {}
    iterations = 0
    residual = float("inf")
    last_residual = residual
    for iterations in range(1, max_iterations + 1):
        # Demands from the current conflict iterates.
        for (site_name, chain), s in state.items():
            site = sites[site_name]
            conflict = ConflictProbabilities(
                blocking=min(1.0, s["pb"]),
                deadlock_victim=min(1.0, s["pd"]))
            visits = visit_counts(transition_matrix(
                chain, s["l"], s["r"], s["q"], conflict))
            costs = demands_mod.build_phase_costs(
                site, template, chain, aborted_granules=s["eY"])
            demands = demands_mod.aggregate_demands(
                chain, visits, s["ns"], costs, 0.0)
            s["cpu_ms"] = demands.cpu_ms
            s["disk_ms"] = demands.db_disk_ms + demands.log_disk_ms
            s["lw_visits"] = demands.lw_visits

        # Open-network utilizations and responses per site.
        new_residual = 0.0
        for site_name in template.sites:
            chains_here = [(c, s) for (sn, c), s in state.items()
                           if sn == site_name]
            if not chains_here:
                continue
            rho_cpu = sum(s["rate_ms"] * s["cpu_ms"]
                          for _c, s in chains_here)
            rho_disk = sum(s["rate_ms"] * s["disk_ms"]
                           for _c, s in chains_here)
            if rho_cpu >= 1.0 or rho_disk >= 1.0:
                raise ConfigurationError(
                    f"site {site_name} saturated (cpu {rho_cpu:.2f}, "
                    f"disk {rho_disk:.2f}); reduce arrival rates")
            cpu_util[site_name] = rho_cpu
            disk_util[site_name] = rho_disk
            for chain, s in chains_here:
                active = (s["cpu_ms"] / (1.0 - rho_cpu)
                          + s["disk_ms"] / (1.0 - rho_disk))
                lw = s["lw_visits"] * s["r_lw"]
                response = active + lw
                if s["response"] > 0:
                    new_residual = max(
                        new_residual,
                        abs(response - s["response"]) / s["response"])
                else:
                    new_residual = max(new_residual, 1.0)
                s["response"] = response
                s["active"] = active
                s["blocked_frac"] = lw / response if response > 0 else 0.0

        # Lock model per site (Little's law concurrency).
        for site_name in template.sites:
            chains_here = [(c, s) for (sn, c), s in state.items()
                           if sn == site_name]
            if not chains_here:
                continue
            populations = {}
            locks_held = {}
            for chain, s in chains_here:
                concurrency = s["rate_ms"] * s["response"]
                lh_single = locking.average_locks_held(
                    s["locks"], s["pa"], s["sigma"], s["response"],
                    think_time=0.0)
                s["lh"] = ((1 - damping) * s["lh"]
                           + damping * lh_single)
                populations[chain] = concurrency
                locks_held[chain] = s["lh"]
            blocked = {chain: s["blocked_frac"]
                       for chain, s in chains_here}
            locks_of = {chain: s["locks"] for chain, s in chains_here}
            actives = {chain: s["active"] for chain, s in chains_here}
            for chain, s in chains_here:
                pb = locking.blocking_probability(
                    chain, populations, locks_held, granules[site_name])
                pd = locking.deadlock_victim_probability(
                    chain, populations, locks_held, blocked)
                r_lw = locking.lock_wait_time(
                    chain, populations, locks_held, locks_of, actives)
                s["pb"] = (1 - damping) * s["pb"] + damping * pb
                s["pd"] = (1 - damping) * s["pd"] + damping * pd
                s["r_lw"] = (1 - damping) * s["r_lw"] + damping * r_lw
                pa = demands_mod.abort_probability(
                    chain, s["locks"], s["pb"], s["pd"])
                s["pa"] = (1 - damping) * s["pa"] + damping * pa
                s["ns"] = demands_mod.mean_submissions(
                    min(s["pa"], 0.999))
                s["eY"] = locking.locks_at_abort(
                    s["locks"], s["pb"] * s["pd"])
                s["sigma"] = s["eY"] / s["locks"]

        residual = new_residual
        if iterations > 2 and residual >= last_residual:
            damping = max(_DAMPING_BACKOFF * damping,
                          min(damping, _DAMPING_FLOOR))
        last_residual = residual
        if residual < tolerance:
            break
    else:
        raise ConvergenceError("open model did not converge",
                               iterations=iterations, residual=residual)

    results: dict[str, dict[ChainType, OpenChainResult]] = {}
    for (site_name, chain), s in state.items():
        results.setdefault(site_name, {})[chain] = OpenChainResult(
            chain=chain,
            arrival_rate_per_s=s["rate_ms"] * 1e3,
            response_ms=s["response"],
            concurrency=s["rate_ms"] * s["response"],
            abort_probability=s["pa"],
            n_submissions=s["ns"],
        )
    return OpenSolution(sites=results, cpu_utilization=cpu_util,
                        disk_utilization=disk_util,
                        iterations=iterations)
