"""Open-arrival variant of the CARAT model.

The paper's model is *closed*: a fixed population of terminals, each
with at most one outstanding transaction.  Modern capacity planning
often starts from the other end — transactions arrive at a rate and
the question is whether the system keeps up.  This module solves the
same site model with open multi-class product-form equations:

* utilization: ``rho_c = sum_t lam_t * D_ct``
* residence at a queueing center: ``R_ct = D_ct / (1 - rho_c)``
* residence at a delay center: ``R_ct = D_ct``

and closes the same lock fixed point (§5.4), with the mean number of
concurrent transactions per chain given by Little's law
(``N_t = lam_t * R_t``) instead of a fixed population.  Remote and
commit waits (RW, CW) are not modelled here.

:func:`solve_open_batch` solves one workload at ``K`` arrival scales
as one ``(K, M)`` array program over the flattened ``(site, chain)``
states.  It shares the closed engine's pieces (:mod:`repro.model.outer`):
the per-state :class:`~repro.model.outer.StateTable`, the array steps
(visits, demand assembly, ``L_h`` of Eq. 14, the ``Pb``/``Pd``/``R_LW``
block of Eqs. 15-20, ``E[Y]`` of Eq. 11) and the masked row driver
:func:`~repro.model.outer.iterate_rows`, which stops each row when it
converges, runs out of budget or fails, and the closed engine's
damping rule (:func:`~repro.model.outer.back_off_damping`): each row
starts at the given damping and backs off while its residual does not
shrink.  A failed row keeps the typed error a single solve raises:
saturated (a utilization reached 1) or infeasible (``P_a`` or
``sigma`` left its range).  Given a response target, the driver's
stop hook also retires every row above the lowest one that has missed
it: those rows' answers cannot move the search.  A *seed*
(:meth:`OpenBatch.seed`, one row's final iterate) starts every row
from that iterate instead of from no contention.
:func:`solve_open_model` is the one-row call.

The closed solver remains the faithful reproduction; this one answers
"at what arrival rate does the paper's system saturate?"
(:func:`repro.planner.search.slo_max_arrival_per_s`,
``examples/open_model_capacity.py``).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError, ConvergenceError, RetiredRowError
from repro.model.parameters import SiteParameters
from repro.model.types import PHASE_ORDER, BaseType, ChainType, Phase
from repro.model.workload import WorkloadSpec
from repro.obs import metrics as obs

__all__ = ["OpenWorkload", "OpenChainResult", "OpenSolution", "OpenBatch",
           "solve_open_batch", "solve_open_model"]

_ILW = PHASE_ORDER.index(Phase.LW)

#: The open fixed point's iterate fields: what :meth:`OpenBatch.seed`
#: carries and a seeded :func:`solve_open_batch` starts from.
ITERATE_FIELDS = ("pb", "pd", "pa", "ns", "sigma", "ey", "lh", "r_lw",
                  "response")


@dataclass(frozen=True)
class OpenWorkload:
    """Arrival-driven workload: transactions/second per site and type.

    Transaction *structure* (requests per transaction, records per
    request, remote split) is borrowed from a closed
    :class:`WorkloadSpec` template whose populations are ignored.
    """

    template: WorkloadSpec
    arrivals_per_s: dict[str, dict[BaseType, float]]

    def __post_init__(self) -> None:
        for site, rates in self.arrivals_per_s.items():
            if site not in self.template.sites:
                raise ConfigurationError(f"unknown site {site!r}")
            for base, rate in rates.items():
                if rate < 0:
                    raise ConfigurationError(
                        f"negative arrival rate for {base} at {site}")

    def rate(self, site: str, base: BaseType) -> float:
        """Arrivals/second of *base* transactions at *site*."""
        return self.arrivals_per_s.get(site, {}).get(base, 0.0)

    def chain_rates(self, site: str) -> dict[ChainType, float]:
        """Per-chain arrival rates at *site* (slaves inherit the rate
        of their remote coordinators, split like the populations)."""
        rates = {chain: 0.0 for chain in ChainType}
        rates[ChainType.LRO] = self.rate(site, BaseType.LRO)
        rates[ChainType.LU] = self.rate(site, BaseType.LU)
        rates[ChainType.DROC] = self.rate(site, BaseType.DRO)
        rates[ChainType.DUC] = self.rate(site, BaseType.DU)
        for other in self.template.sites:
            if other == site:
                continue
            share = self.template.remote_request_fraction(other, site)
            rates[ChainType.DROS] += self.rate(other, BaseType.DRO) \
                * (1.0 if share > 0 else 0.0)
            rates[ChainType.DUS] += self.rate(other, BaseType.DU) \
                * (1.0 if share > 0 else 0.0)
        return rates


@dataclass(frozen=True)
class OpenChainResult:
    """Steady-state measures of one chain at one site."""

    chain: ChainType
    arrival_rate_per_s: float
    response_ms: float
    concurrency: float          #: mean transactions in system (Little)
    abort_probability: float
    n_submissions: float


@dataclass(frozen=True)
class OpenSolution:
    """Solution of the open model."""

    sites: dict[str, dict[ChainType, OpenChainResult]]
    cpu_utilization: dict[str, float]
    disk_utilization: dict[str, float]
    iterations: int

    def bottleneck_utilization(self) -> float:
        """Highest center utilization anywhere in the system."""
        values = list(self.cpu_utilization.values()) \
            + list(self.disk_utilization.values())
        return max(values) if values else 0.0


@dataclass(frozen=True, eq=False)
class OpenBatch:
    """Row-wise solutions of one open workload at ``K`` arrival scales.

    Arrays are indexed by row (the position in the solve's ``scales``)
    and, for the per-chain ones, by the ``(site, chain)`` states in
    ``keys``.  A row's entry in ``errors`` is the typed exception a
    single solve at that scale raises, or ``None`` when it converged,
    or a :class:`~repro.errors.RetiredRowError` when a targeted solve
    stopped it early; the arrays of a row with an error hold its last
    iterate and carry no meaning.
    """

    keys: tuple[tuple[str, ChainType], ...]
    sites: tuple[str, ...]              #: sites that carry traffic
    arrival_per_s: np.ndarray           #: (K, M)
    response_ms: np.ndarray             #: (K, M)
    concurrency: np.ndarray             #: (K, M), Little's law
    blocking: np.ndarray                #: (K, M), Pb per lock request
    abort_probability: np.ndarray       #: (K, M)
    n_submissions: np.ndarray           #: (K, M)
    cpu_utilization: np.ndarray         #: (K, S)
    disk_utilization: np.ndarray        #: (K, S)
    mean_response_ms: np.ndarray        #: (K,), arrival-weighted
    iterations: np.ndarray              #: (K,)
    errors: tuple[Exception | None, ...]
    #: (K, M) last iterate of each of :data:`ITERATE_FIELDS`
    iterate: dict[str, np.ndarray]

    @property
    def converged(self) -> np.ndarray:
        """``(K,)`` mask of rows with a steady-state solution."""
        return np.array([error is None for error in self.errors],
                        dtype=bool)

    def meets_target(self, response_target_ms: float) -> np.ndarray:
        """``(K,)`` mask of rows that converged with a mean response
        within *response_target_ms*; a targeted solve calls every other
        finished row a miss."""
        return _meets_target(self.converged, self.mean_response_ms,
                             response_target_ms)

    def seed(self, row: int) -> dict[str, np.ndarray]:
        """Row *row*'s last iterate, ``(M,)`` per field: the *seed* of
        another solve of the same workload (:func:`solve_open_batch`)."""
        return {name: values[row].copy()
                for name, values in self.iterate.items()}

    def solution(self, row: int) -> OpenSolution:
        """Row *row* as an :class:`OpenSolution`; raises the row's
        typed error when it has no steady state."""
        error = self.errors[row]
        if error is not None:
            raise error
        results: dict[str, dict[ChainType, OpenChainResult]] = {}
        for m, (site_name, chain) in enumerate(self.keys):
            rate = float(self.arrival_per_s[row, m])
            response = float(self.response_ms[row, m])
            results.setdefault(site_name, {})[chain] = OpenChainResult(
                chain=chain,
                arrival_rate_per_s=rate,
                response_ms=response,
                concurrency=float(self.concurrency[row, m]),
                abort_probability=float(self.abort_probability[row, m]),
                n_submissions=float(self.n_submissions[row, m]),
            )
        return OpenSolution(
            sites=results,
            cpu_utilization={
                name: float(self.cpu_utilization[row, s])
                for s, name in enumerate(self.sites)},
            disk_utilization={
                name: float(self.disk_utilization[row, s])
                for s, name in enumerate(self.sites)},
            iterations=int(self.iterations[row]),
        )


def solve_open_batch(
    workload: OpenWorkload,
    sites: dict[str, SiteParameters],
    scales: Sequence[float],
    tolerance: float = 1e-6,
    max_iterations: int = 300,
    damping: float = 0.8,
    response_target_ms: float | None = None,
    seed: dict[str, np.ndarray] | None = None,
) -> OpenBatch:
    """Solve *workload* with every arrival rate multiplied by each of
    *scales*, one row per scale.

    *damping* is each row's starting damping; from the third iteration
    on, a row whose residual did not shrink backs it off as the closed
    engine does (x0.9, never below 0.3).

    With *response_target_ms* the scales must be ascending (equal
    scales give identical rows) and the solve serves a search for the
    last row that meets the target.  A finished row *misses* it when
    it carries a typed error or its arrival-weighted mean response
    exceeds the target (:meth:`OpenBatch.meets_target`); once one has,
    every still-running row above the lowest such row stops at that
    iteration with a :class:`~repro.errors.RetiredRowError`.  Rows are
    independent, so every row up to the first miss is bit-identical to
    an untargeted solve.  ``None`` runs every row to its own outcome.

    *seed* is the ``(M,)`` iterate of every field in
    :data:`ITERATE_FIELDS` (:meth:`OpenBatch.seed` of an earlier solve
    of the same workload); every row starts from it, with the starting
    damping.  ``None`` starts every row from no contention.

    Raises
    ------
    ConfigurationError
        If the workload carries no traffic, a scale is not positive,
        the scales of a targeted solve descend anywhere, the seed does
        not hold an ``(M,)`` array per iterate field, or a state's
        request counts do not form a phase chain
        (:func:`~repro.model.phases.check_chain`).  Per-row outcomes
        (saturation, an invalid abort probability, non-convergence,
        retirement) do not raise; they land in
        :attr:`OpenBatch.errors`.
    """
    # Imported here, as every caller of the closed engine does, so that
    # importing the model package does not load the engine module.
    from repro.model.outer import (StateTable, _seq_sum_last, abort_state,
                                   back_off_damping, conflict_rates,
                                   iterate_rows, locks_held, phase_visits)

    scale = np.asarray(scales, dtype=float).reshape(-1)
    if scale.size == 0 or not np.all(np.isfinite(scale) & (scale > 0.0)):
        raise ConfigurationError(
            f"arrival scales must be positive and finite, got {scales}")
    if response_target_ms is not None and np.any(np.diff(scale) < 0.0):
        raise ConfigurationError(
            f"a targeted solve needs ascending scales, got {scales}")
    if max_iterations < 1:
        raise ConfigurationError(
            f"max_iterations must be >= 1, got {max_iterations}")
    template = workload.template
    keys: list[tuple[str, ChainType]] = []
    base_rate: list[float] = []
    for site_name in template.sites:
        for chain, rate in workload.chain_rates(site_name).items():
            if rate > 0.0:
                keys.append((site_name, chain))
                base_rate.append(rate)
    if not keys:
        raise ConfigurationError("open workload has no traffic")
    site_names = tuple(dict.fromkeys(name for name, _ in keys))
    K, M, S = scale.size, len(keys), len(site_names)
    if seed is not None and (
            set(seed) != set(ITERATE_FIELDS)
            or any(np.shape(seed[name]) != (M,) for name in seed)):
        raise ConfigurationError(
            f"a seed holds an ({M},) array for each of {ITERATE_FIELDS}")

    # Static per-state structure, shared by every row: (1, M) arrays.
    table = StateTable(keys, site_names, [(template, sites)])
    locks, site_of = table.locks, table.site_of
    at_site = site_of[None, :] == np.arange(S)[:, None]        # (S, M)
    rate_ms = np.array(base_rate)[None, :] * scale[:, None] / 1e3

    # Iterates, one row per scale, from the seed or from no contention.
    start = seed if seed is not None else {
        "pb": 0.0, "pd": 0.0, "pa": 0.0, "ns": 1.0, "sigma": 0.5,
        "ey": abort_state(locks, np.zeros((1, M)))[0], "lh": 0.0,
        "r_lw": 0.0, "response": 0.0}
    pb, pd, pa, ns, sigma, ey, lh, r_lw, response = (
        np.broadcast_to(np.asarray(start[name], dtype=float),
                        (K, M)).copy()
        for name in ITERATE_FIELDS)
    rho_cpu, rho_disk = np.zeros((K, S)), np.zeros((K, S))
    errors: list[Exception | None] = [None] * K
    damp = np.full((K, 1), float(damping))
    omd = 1.0 - damp
    last_res = np.full(K, np.inf)

    def step(al, iteration):
        """One damped iteration of rows *al*: their residuals, and the
        rows that saturated or left the lock model's range."""
        rate = rate_ms[al]
        d, o = damp[al], omd[al]
        v = phase_visits(table, slice(None), pb[al], pd[al])
        cpu_ms, db_ms, lg_ms, _dbio, _lgio, _ta = table.costs.demands(
            v, ns[al], ey[al], slice(None))
        disk_ms = db_ms + lg_ms
        lw_visits = ns[al] * v[:, :, _ILW]

        # Open-network utilizations and responses per site.
        u_cpu = _seq_sum_last(
            np.where(at_site[None], (rate * cpu_ms)[:, None], 0.0))
        u_disk = _seq_sum_last(
            np.where(at_site[None], (rate * disk_ms)[:, None], 0.0))
        rho_cpu[al] = u_cpu
        rho_disk[al] = u_disk
        over = (u_cpu >= 1.0) | (u_disk >= 1.0)
        saturated = over.any(axis=1)
        # Saturated rows finish this iteration; a zero utilization
        # keeps their throw-away iterates finite.
        act = (cpu_ms / (1.0 - np.where(over, 0.0, u_cpu)[:, site_of])
               + disk_ms / (1.0 - np.where(over, 0.0, u_disk)[:, site_of]))
        lw = lw_visits * r_lw[al]
        resp = act + lw
        prev = response[al]
        change = np.where(prev > 0.0,
                          np.abs(resp - prev) / np.where(prev > 0.0, prev, 1.0),
                          1.0)
        blocked = np.where(resp > 0.0, lw / np.where(resp > 0.0, resp, 1.0),
                           0.0)

        # Lock model (Little's-law concurrency).
        pa_old, sig_old = pa[al], sigma[al]
        invalid = (resp > 0.0) & ~((pa_old >= 0.0) & (pa_old < 1.0)
                                   & (sig_old >= 0.0) & (sig_old <= 1.0))
        lh_a = o * lh[al] + d * locks_held(
            locks, pa_old, sig_old, resp, 0.0)
        new_pb, new_pd, new_rlw = conflict_rates(
            rate * resp, lh_a, table.gran, blocked, act, locks, table.br,
            table.can_block)
        pb_a = o * pb[al] + d * new_pb
        pd_a = o * pd[al] + d * new_pd
        per_lock = pb_a * pd_a
        invalid |= (per_lock < 0.0) | (per_lock > 1.0)
        pa_a = o * pa_old + d * (1.0 - (1.0 - per_lock) ** locks)
        ey_a, sigma_a = abort_state(locks, per_lock)

        response[al], lh[al] = resp, lh_a
        pb[al], pd[al], pa[al] = pb_a, pd_a, pa_a
        r_lw[al] = o * r_lw[al] + d * new_rlw
        ns[al] = 1.0 / (1.0 - np.minimum(pa_a, 0.999))
        ey[al], sigma[al] = ey_a, sigma_a

        bad = saturated | invalid.any(axis=1)
        for i in np.nonzero(bad)[0]:
            errors[al[i]] = _row_error(keys, site_names, i, saturated,
                                       u_cpu, u_disk, invalid, pa_old,
                                       sig_old, per_lock)
        res = change.max(axis=1)
        back_off_damping(damp, omd, al, res, last_res, iteration)
        return res, bad

    def retire(iteration, finished, converged, alive):
        """Rows above the lowest row that has missed the target."""
        mean = _mean_response(rate_ms[finished] * 1e3, response[finished])
        missed = finished[~_meets_target(converged[finished], mean,
                                         response_target_ms)]
        if missed.size == 0:
            return missed
        # Every row still running lies below earlier misses, so the
        # lowest miss of this iteration is the lowest so far.
        first = int(missed.min())
        retired = np.nonzero(alive)[0]
        retired = retired[retired > first]
        for k in retired:
            errors[k] = RetiredRowError(
                f"row {k} retired: row {first} missed the "
                f"{response_target_ms} ms target",
                iterations=iteration, missed_row=first)
        return retired

    iterations, residual, converged = iterate_rows(
        step, np.full(K, tolerance), np.full(K, max_iterations),
        stop=None if response_target_ms is None else retire)
    for k in np.nonzero(~converged)[0]:
        if errors[k] is None:
            errors[k] = ConvergenceError("open model did not converge",
                                         iterations=int(iterations[k]),
                                         residual=float(residual[k]))

    arrival_per_s = rate_ms * 1e3
    mean_response = _mean_response(arrival_per_s, response)
    obs.add("model.open_calls")
    obs.add("model.open_points", float(K))
    obs.add("model.open_iterations", float(iterations.sum()))
    return OpenBatch(
        keys=tuple(keys), sites=site_names,
        arrival_per_s=arrival_per_s, response_ms=response,
        concurrency=rate_ms * response, blocking=pb,
        abort_probability=pa, n_submissions=ns,
        cpu_utilization=rho_cpu, disk_utilization=rho_disk,
        mean_response_ms=mean_response, iterations=iterations,
        errors=tuple(errors),
        iterate=dict(zip(ITERATE_FIELDS, (pb, pd, pa, ns, sigma, ey, lh,
                                          r_lw, response))))


def _mean_response(arrival_per_s: np.ndarray,
                   response: np.ndarray) -> np.ndarray:
    """Arrival-weighted mean response per row: the one formula behind
    both a targeted solve's misses and :attr:`OpenBatch.mean_response_ms`,
    so the two agree bit for bit."""
    from repro.model.outer import _seq_sum_last
    return (_seq_sum_last(arrival_per_s * response)
            / _seq_sum_last(arrival_per_s))


def _meets_target(converged: np.ndarray, mean_response_ms: np.ndarray,
                  response_target_ms: float) -> np.ndarray:
    """Converged rows whose arrival-weighted mean response is within the
    target: the one test behind a targeted solve's misses and
    :meth:`OpenBatch.meets_target`."""
    return converged & (mean_response_ms <= response_target_ms)


def _row_error(keys, site_names, i, saturated, u_cpu, u_disk, invalid,
               pa, sigma, per_lock) -> ConfigurationError:
    """The typed error a single solve raises for row *i*, which
    saturated or left the lock model's range, in the scalar loop's
    order of checks."""
    if saturated[i]:
        s = int(np.argmax((u_cpu[i] >= 1.0) | (u_disk[i] >= 1.0)))
        return ConfigurationError(
            f"site {site_names[s]} saturated (cpu {u_cpu[i, s]:.2f}, "
            f"disk {u_disk[i, s]:.2f}); reduce arrival rates")
    m = int(np.argmax(invalid[i]))
    site_name, chain = keys[m]
    if not 0.0 <= pa[i, m] < 1.0:
        detail = f"abort probability {pa[i, m]} invalid"
    elif not 0.0 <= sigma[i, m] <= 1.0:
        detail = f"sigma {sigma[i, m]} invalid"
    else:
        detail = f"Pb*Pd={per_lock[i, m]} is not a probability"
    return ConfigurationError(f"{detail} ({chain.value} at {site_name})")


def solve_open_model(
    workload: OpenWorkload,
    sites: dict[str, SiteParameters],
    tolerance: float = 1e-6,
    max_iterations: int = 300,
    damping: float = 0.8,
) -> OpenSolution:
    """Solve the open model at the workload's own arrival rates.

    Raises
    ------
    ConfigurationError
        If the offered load saturates a CPU or disk (no steady state),
        or the lock model leaves its valid range.
    ConvergenceError
        If the lock fixed point fails to settle.
    """
    batch = solve_open_batch(workload, sites, (1.0,), tolerance=tolerance,
                             max_iterations=max_iterations, damping=damping)
    return batch.solution(0)
