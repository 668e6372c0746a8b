"""Reference scalar outer fixed point — the tensor engine's oracle.

:class:`ReferenceCaratModel` is the paper's §6 damped successive
substitution written per chain in plain Python, as the solver ran
before the solve path moved onto the batched tensor engine
(:mod:`repro.model.outer`).  It mirrors the ``queueing.mva_reference``
pattern: an unvectorized, obviously-faithful implementation kept as the
oracle the equivalence suite pins the production path against
(identical iteration counts, measures within 1e-9) and as the scalar
baseline the ``BENCH_outer`` speedup gate times.

This module owns the scalar algorithm and its state: the per-(site,
chain) iterate (:class:`_ChainState`), the warm start, the scalar
demand rebuild (visit counts, phase costs, aggregate demands), the
site-network solve and the lock, abort, remote-wait and
TM-serialization updates live here only.  The site networks and the
:class:`~repro.model.results.ModelSolution` come from the builders the
engine uses too (:func:`~repro.model.solver.build_site_network`,
:func:`~repro.model.solver.build_solution`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError, ConvergenceError
from repro.model import demands as demands_mod
from repro.model import locking, remote
from repro.model.phases import (ConflictProbabilities, transition_matrix,
                                visit_counts)
from repro.model.results import ModelSolution
from repro.model.solver import (
    _DAMPING_BACKOFF,
    _DAMPING_FLOOR,
    _MVA_QUEUE_SITE,
    _WARM_FIELDS,
    ChainRow,
    ModelConfig,
    WarmStart,
    build_site_network,
    build_solution,
    site_centers,
)
from repro.model.types import ChainType, Phase
from repro.queueing.kernels import (
    NetworkArrays,
    assemble_solution,
    initial_queue,
    solve_exact_batch,
    solve_schweitzer_batch,
)
from repro.queueing.network import ClosedNetwork, NetworkSolution

__all__ = ["ReferenceCaratModel"]


@dataclass
class _ChainState:
    """Mutable per-(site, chain) iterate."""

    population: int
    local_requests: int
    remote_requests: int
    q: float
    locks: float
    # Conflict estimates.
    pb: float = 0.0
    pd: float = 0.0
    pra: float = 0.0
    abort_prob: float = 0.0
    n_submissions: float = 1.0
    locks_at_abort: float = 0.0
    sigma: float = 0.5
    locks_held: float = 0.0
    blocked_fraction: float = 0.0
    # Delay-center per-visit times (ms).
    r_lw: float = 0.0
    r_rw: float = 0.0
    r_cw: float = 0.0
    # TM serialization surrogate (optional, §5.5).
    r_tms: float = 0.0
    tm_messages: float = 0.0
    tm_held_ms: float = 0.0
    # Performance iterates (ms / per-ms).
    response_success_ms: float = 0.0
    active_success_ms: float = 0.0
    cycle_response_ms: float = 0.0
    throughput_per_ms: float = 0.0
    # Last-built demands.
    demands: demands_mod.ChainDemands | None = None
    visits: dict[Phase, float] = field(default_factory=dict)
    costs: demands_mod.PhaseCosts | None = None
    lw_demand_ms: float = 0.0
    rw_demand_ms: float = 0.0
    cw_demand_ms: float = 0.0
    ut_demand_ms: float = 0.0


def _built(demands: demands_mod.ChainDemands | None) \
        -> demands_mod.ChainDemands:
    """Narrow a state's ``demands`` after the rebuild phase has run.

    Every read site follows a ``_rebuild_demands`` call, so ``None``
    here is a solver-internal ordering bug, not a user error.
    """
    if demands is None:
        raise ConfigurationError("chain demands read before rebuild")
    return demands


class ReferenceCaratModel:
    """The CARAT model solved by the original scalar fixed-point loop.

    Takes a config and an optional warm-start snapshot (see
    :meth:`repro.model.solver.CaratModel.snapshot`); the oracle
    records no convergence trace.  It owns its scalar iterate state,
    one :class:`_ChainState` per ``(site, chain)`` with customers.
    """

    def __init__(self, config: ModelConfig, warm_start: WarmStart | None = None):
        self.config = config
        self.workload = config.workload
        self.sites = {name: config.sites[name] for name in self.workload.sites}
        self._state: dict[tuple[str, ChainType], _ChainState] = {}
        self._warm_start = warm_start
        # The damping of the next update: the config's starting
        # damping, backed off while the residual does not shrink.
        self._damping = config.damping
        # Last ``(Cq, K)`` Schweitzer queue iterate per site, carried
        # across outer iterations as the inner fixed point's warm start.
        self._mva_queues: dict[str, np.ndarray] = {}
        self._init_state()

    def solve(self) -> ModelSolution:
        """Run the fixed-point iteration to convergence."""
        residual = float("inf")
        iterations = 0
        solutions: dict[str, NetworkSolution] = {}
        last_residual = residual
        for iterations in range(1, self.config.max_iterations + 1):
            for key, state in self._state.items():
                self._rebuild_demands(key[0], key[1], state)

            solutions = self._solve_sites()

            residual = self._absorb_solutions(solutions)
            self._update_abort_probabilities()
            for name in self.workload.sites:
                self._update_lock_model(name)
            self._update_remote_waits(solutions)
            if self.config.model_tm_serialization:
                self._update_tm_serialization()

            if iterations > 2 and residual >= last_residual:
                self._damping = max(_DAMPING_BACKOFF * self._damping,
                                    min(self._damping, _DAMPING_FLOOR))
            last_residual = residual
            if residual < self.config.tolerance:
                break
        else:
            if self.config.raise_on_nonconvergence:
                raise ConvergenceError(
                    f"model did not converge for workload "
                    f"{self.workload.name} (n="
                    f"{self.workload.requests_per_txn})",
                    iterations=iterations,
                    residual=residual,
                )
        rows = self._rows()
        networks = {name: self._site_network(name, rows)
                    for name in self.workload.sites}
        return build_solution(self.config, rows, networks, solutions,
                              iterations, residual)

    # ------------------------------------------------------------------
    # setup
    # ------------------------------------------------------------------

    def _init_state(self) -> None:
        for site_name, site in self.sites.items():
            for chain, population in self.workload.chain_populations(
                    site_name).items():
                if population == 0:
                    continue
                q = demands_mod.ios_per_request(site, self.workload, chain)
                state = _ChainState(
                    population=population,
                    local_requests=self.workload.local_requests(chain),
                    remote_requests=self.workload.remote_requests(chain),
                    q=q, locks=demands_mod.lock_count(self.workload, chain, q),
                )
                self._refresh_abort_state(state)
                self._state[(site_name, chain)] = state
        if not self._warm_start:
            return
        for key, state in self._state.items():
            seed = self._warm_start.get((key[0], key[1].value))
            if not seed:
                continue
            for name in _WARM_FIELDS:
                if name in seed:
                    setattr(state, name, float(seed[name]))
            # E[Y] and sigma depend on the *new* lock count; derive
            # them from the seeded conflict estimates.
            self._refresh_abort_state(state)

    def _refresh_abort_state(self, state: _ChainState) -> None:
        """E[Y] and sigma from the current ``Pb * Pd``.

        A chain that acquires no locks is degenerate but valid: it can
        never be a deadlock victim, so both quantities are zero (the
        unguarded ratio ``E[Y] / N_lk`` would divide by zero).
        """
        if state.locks <= 0.0:
            state.locks_at_abort = 0.0
            state.sigma = 0.0
            return
        per_lock = min(1.0, state.pb * state.pd)
        state.locks_at_abort = locking.locks_at_abort(state.locks, per_lock)
        state.sigma = state.locks_at_abort / state.locks

    def _chain_items(self, site_name: str):
        for (s, chain), state in self._state.items():
            if s == site_name:
                yield chain, state

    # ------------------------------------------------------------------
    # step 1: demands and site networks
    # ------------------------------------------------------------------

    def _rebuild_demands(self, site_name: str, chain: ChainType,
                         state: _ChainState) -> None:
        """Steps 1–2 of the iteration: visits, costs, demands."""
        site = self.sites[site_name]
        conflict = ConflictProbabilities(
            blocking=min(1.0, state.pb),
            deadlock_victim=min(1.0, state.pd),
            remote_abort=min(1.0, state.pra),
        )
        matrix = transition_matrix(
            chain, state.local_requests, state.remote_requests, state.q,
            conflict,
        )
        state.visits = visit_counts(matrix)
        state.costs = demands_mod.build_phase_costs(
            site, self.workload, chain,
            aborted_granules=state.locks_at_abort,
        )
        records = (self.workload.requests_per_txn
                   * self.workload.records_per_request)
        if chain.is_slave:
            records = self.workload.records_per_txn(chain)
        state.demands = demands_mod.aggregate_demands(
            chain, state.visits, state.n_submissions, state.costs,
            records_per_execution=records,
        )
        d = state.demands
        state.lw_demand_ms = d.lw_visits * state.r_lw
        state.rw_demand_ms = d.rw_visits * state.r_rw
        state.cw_demand_ms = d.cw_visits * state.r_cw
        state.ut_demand_ms = (state.n_submissions
                              * self.workload.think_time_ms)
        if self.config.model_tm_serialization:
            ns = state.n_submissions
            v = state.visits
            costs = state.costs
            state.tm_messages = ns * (v[Phase.TM] + v[Phase.TC]
                                      + v[Phase.TA])
            held_cpu = (v[Phase.TM] * costs.cpu.get(Phase.TM, 0.0)
                        + v[Phase.TC] * costs.cpu.get(Phase.TC, 0.0)
                        + v[Phase.TA] * costs.cpu.get(Phase.TA, 0.0))
            held_force = v[Phase.TCIO] * (
                costs.db_disk.get(Phase.TCIO, 0.0)
                + costs.log_disk.get(Phase.TCIO, 0.0))
            state.tm_held_ms = ns * (held_cpu + held_force)

    def _rows(self) -> list[ChainRow]:
        """The iterate as per-chain rows, in state order."""
        rows = []
        for (site, chain), st in self._state.items():
            d = _built(st.demands)
            rows.append(ChainRow(
                site=site, chain=chain, population=st.population,
                demands={"cpu": d.cpu_ms, "disk": d.db_disk_ms,
                         "logdisk": d.log_disk_ms, "lw": st.lw_demand_ms,
                         "rw": st.rw_demand_ms, "cw": st.cw_demand_ms,
                         "ut": st.ut_demand_ms,
                         "tms": st.tm_messages * st.r_tms},
                ios_per_cycle=d.total_ios,
                records_per_txn=d.records_per_cycle,
                throughput_per_ms=st.throughput_per_ms,
                cycle_response_ms=st.cycle_response_ms,
                n_submissions=st.n_submissions,
                abort_probability=st.abort_prob,
                locks=st.locks, pb=st.pb, pd=st.pd,
                locks_held=st.locks_held,
                locks_at_abort=st.locks_at_abort,
                r_lw=st.r_lw, r_rw=st.r_rw, r_cw=st.r_cw,
            ))
        return rows

    def _site_network(self, site_name: str,
                      rows: list[ChainRow]) -> ClosedNetwork:
        """Assemble the site's closed network (paper Figure 2)."""
        return build_site_network(
            [row for row in rows if row.site == site_name],
            site_centers(self.sites[site_name].log_on_separate_disk,
                         self.config.model_tm_serialization))

    # ------------------------------------------------------------------
    # step 2: site MVA
    # ------------------------------------------------------------------

    def _solve_sites(self) -> dict[str, NetworkSolution]:
        """Step 2 of the iteration: solve every site network with MVA.

        Schweitzer solves warm-start from the previous outer
        iteration's queue iterate (or a warm-start snapshot's), which
        typically cuts the inner iteration count: the outer loop moves
        the demands only slightly between iterations, so the old inner
        fixed point is a near-solution of the new one.
        """
        rows = self._rows()
        solutions: dict[str, NetworkSolution] = {}
        for name in self.workload.sites:
            a = NetworkArrays.from_network(self._site_network(name, rows))
            if self.config.mva == "exact":
                X, R = solve_exact_batch(a.demands[None], a.delay, a.populations)
                solutions[name] = assemble_solution(a, X[0], R[0])
                continue
            result = solve_schweitzer_batch(
                a.demands[None], a.delay, a.populations[None],
                q0=self._queue_warm_start(name, a),
            )
            if not result.converged[0]:
                raise ConvergenceError(
                    f"Schweitzer MVA did not converge for site {name!r}",
                    iterations=int(result.iterations[0]),
                    residual=float(result.residual[0]),
                )
            solutions[name] = assemble_solution(
                a, result.throughput[0], result.residence[0])
            self._mva_queues[name] = result.queue[0]
        return solutions

    def _queue_warm_start(self, name: str,
                          a: NetworkArrays) -> np.ndarray | None:
        """The ``(1, Cq, K)`` Schweitzer ``q0`` of one site, or None.

        Prefers this solve's previous outer-iteration queue iterate;
        falls back to a warm-start snapshot's entries; without either
        the kernel's default initialization applies.  Entries are
        masked to visited (demand > 0) center/chain pairs, so a stale
        seed can never park customers at a center the chain no longer
        uses.
        """
        prev = self._mva_queues.get(name)
        seed = (self._warm_start or {}).get((_MVA_QUEUE_SITE, name))
        if prev is None and not seed:
            return None
        q0 = initial_queue(a.demands, a.delay, a.populations)
        if prev is not None:
            q0[0] = prev
        elif seed:
            qnames = [c for c, is_delay in zip(a.centers, a.delay) if not is_delay]
            for ci, center in enumerate(qnames):
                for ki, chain in enumerate(a.chains):
                    value = seed.get(f"{center}|{chain}")
                    if value is not None:
                        q0[0, ci, ki] = value
        q0[0][a.demands[~a.delay] <= 0.0] = 0.0
        return q0

    # ------------------------------------------------------------------
    # step 3: contention updates
    # ------------------------------------------------------------------

    def _update_lock_model(self, site_name: str) -> None:
        """Step 3a: refresh L_h, Pb, Pd and R_LW at one site."""
        site = self.sites[site_name]
        damping = self._damping
        think = self.workload.think_time_ms

        populations = {
            chain: state.population for chain, state in self._chain_items(site_name)
        }
        # First pass: L_h for every chain from the latest responses.
        locks_held: dict[ChainType, float] = {}
        for chain, state in self._chain_items(site_name):
            new_lh = locking.average_locks_held(
                state.locks,
                state.abort_prob,
                state.sigma,
                state.response_success_ms,
                think,
            )
            state.locks_held = (1 - damping) * state.locks_held + damping * new_lh
            locks_held[chain] = state.locks_held

        blocked_fraction = {
            chain: state.blocked_fraction
            for chain, state in self._chain_items(site_name)
        }
        locks_per_chain = {
            chain: state.locks for chain, state in self._chain_items(site_name)
        }
        # Eq. 18 uses the blocker's remaining *active* execution time
        # (its own lock waits excluded).  Including them makes the
        # R_LW <-> R_s loop gain exceed one in the thrashing regime
        # (n >= 16) and the fixed point ceases to exist; cutting
        # waits-behind-waiters is the same first-order closure as the
        # paper's two-cycle-only deadlock assumption (DESIGN.md §4).
        responses = {
            chain: state.active_success_ms
            for chain, state in self._chain_items(site_name)
        }

        # Skewed access behaves, to first order, like uniform access to
        # a database shrunk by the collision multiplier (b-c rule).
        effective_granules = max(
            1,
            int(
                round(site.granules / self.workload.collision_multiplier(site.granules))
            ),
        )
        for chain, state in self._chain_items(site_name):
            new_pb = locking.blocking_probability(
                chain, populations, locks_held, effective_granules
            )
            new_pd = locking.deadlock_victim_probability(
                chain, populations, locks_held, blocked_fraction
            )
            new_rlw = self._lock_wait_time(
                chain, populations, locks_held, locks_per_chain, responses
            )
            state.pb = (1 - damping) * state.pb + damping * new_pb
            state.pd = (1 - damping) * state.pd + damping * new_pd
            state.r_lw = (1 - damping) * state.r_lw + damping * new_rlw
            self._refresh_abort_state(state)

    def _lock_wait_time(
        self, chain, populations, locks_held, locks_per_chain, responses
    ) -> float:
        override = self.config.blocking_ratio_override
        if override is None:
            return locking.lock_wait_time(
                chain, populations, locks_held, locks_per_chain, responses
            )
        dist = locking.blocker_distribution(chain, populations, locks_held)
        return sum(
            p * override * responses.get(holder, 0.0)
            for holder, p in dist.items()
            if p > 0.0
        )

    def _update_abort_probabilities(self) -> None:
        """Step 3b: refresh Pra and P_a, coupling sites."""
        damping = self._damping
        # Remote-abort hazards seen by coordinators: one per remote
        # request, caused by the slave chain at the target site.
        for (site_name, chain), state in self._state.items():
            if not chain.is_coordinator:
                continue
            slave_type = chain.counterpart
            hazards = []
            for other in self.workload.sites:
                if other == site_name:
                    continue
                slave = self._state.get((other, slave_type))
                if slave is None:
                    continue
                hazards.append(
                    remote.remote_abort_per_request(slave.pb, slave.pd, slave.q)
                )
            new_pra = sum(hazards) / len(hazards) if hazards else 0.0
            state.pra = (1 - damping) * state.pra + damping * new_pra

        # Abort probabilities.
        for (site_name, chain), state in self._state.items():
            if chain.is_slave:
                continue
            new_pa = demands_mod.abort_probability(
                chain,
                state.locks,
                state.pb,
                state.pd,
                remote_abort=state.pra,
                remote_requests=state.remote_requests,
            )
            state.abort_prob = (1 - damping) * state.abort_prob + damping * new_pa
            state.n_submissions = demands_mod.mean_submissions(
                min(state.abort_prob, 0.999)
            )

        # Slaves share the whole transaction's fate: their P_a and N_s
        # equal the (averaged) coordinator's, and their per-wait hazard
        # spreads the "aborted elsewhere" probability over their waits.
        for (site_name, chain), state in self._state.items():
            if not chain.is_slave:
                continue
            coord_type = chain.counterpart
            coord_pa: list[float] = []
            elsewhere: list[float] = []
            for other in self.workload.sites:
                if other == site_name:
                    continue
                coord = self._state.get((other, coord_type))
                if coord is None:
                    continue
                coord_pa.append(coord.abort_prob)
                own_survive = (1.0 - state.pb * state.pd) ** state.locks
                p_else = 1.0 - (1.0 - coord.abort_prob) / max(own_survive, 1e-12)
                elsewhere.append(min(max(p_else, 0.0), 1.0))
            if not coord_pa:
                continue
            pa = sum(coord_pa) / len(coord_pa)
            state.abort_prob = (1 - damping) * state.abort_prob + damping * pa
            state.n_submissions = demands_mod.mean_submissions(
                min(state.abort_prob, 0.999)
            )
            p_else = sum(elsewhere) / len(elsewhere)
            new_pra = remote.remote_abort_per_wait(p_else, state.local_requests)
            state.pra = (1 - damping) * state.pra + damping * new_pra

    def _update_tm_serialization(self) -> None:
        """Surrogate-delay estimate of the TM token's queueing (§5.5).

        The TM is a single server fed by every chain's messages; with
        utilization ``rho`` and mean message service ``S`` the M/G/1
        (exponential) waiting time is ``rho S / (1 - rho)``, charged
        once per TM message as a delay-center demand.
        """
        damping = self._damping
        for site_name in self.workload.sites:
            chains_here = list(self._chain_items(site_name))
            if not chains_here:
                continue
            lam = sum(
                state.throughput_per_ms * state.tm_messages for _c, state in chains_here
            )
            busy = sum(
                state.throughput_per_ms * state.tm_held_ms for _c, state in chains_here
            )
            # Clamp the busy time once and derive both the utilization
            # and the mean service from the clamped value: mixing the
            # clamped rho with a service time computed from the raw
            # busy time overstates the wait near saturation.
            rho = min(busy, 0.95)
            if lam <= 0.0 or rho <= 0.0:
                wait = 0.0
            else:
                service = rho / lam
                wait = rho * service / (1.0 - rho)
            for _chain, state in chains_here:
                state.r_tms = (1 - damping) * state.r_tms + damping * wait

    def _commit_processing_ms(self, site_name: str, chain: ChainType) -> float:
        """Commit-path service time (TC + TCIO) for the CW model."""
        state = self._state.get((site_name, chain))
        if state is None or state.costs is None:
            return 0.0
        return (
            state.costs.cpu.get(Phase.TC, 0.0)
            + state.costs.db_disk.get(Phase.TCIO, 0.0)
            + state.costs.log_disk.get(Phase.TCIO, 0.0)
        )

    def _update_remote_waits(self, solutions: dict[str, NetworkSolution]) -> None:
        """Step 3c: refresh R_RW and R_CW from the site solutions."""
        damping = self._damping
        alpha = self.config.alpha_ms

        for (site_name, chain), state in self._state.items():
            if chain.is_coordinator:
                slave_type = chain.counterpart
                actives = []
                slave_commits = []
                for other in self.workload.sites:
                    if other == site_name:
                        continue
                    slave = self._state.get((other, slave_type))
                    if slave is None:
                        continue
                    sol = solutions[other]
                    active = (
                        slave.cycle_response_ms
                        - sol.chain_residence("rw", slave_type.value)
                        - sol.chain_residence("cw", slave_type.value)
                        - sol.chain_residence("ut", slave_type.value)
                    )
                    actives.append(max(0.0, active))
                    slave_commits.append(self._commit_processing_ms(other, slave_type))
                if not actives:
                    continue
                new_rw = remote.coordinator_remote_wait(
                    actives, state.n_submissions, state.remote_requests, alpha
                )
                new_cw = remote.coordinator_commit_wait(
                    self._commit_processing_ms(site_name, chain), slave_commits, alpha
                )
                state.r_rw = (1 - damping) * state.r_rw + damping * new_rw
                state.r_cw = (1 - damping) * state.r_cw + damping * new_cw
            elif chain.is_slave:
                coord_type = chain.counterpart
                waits = []
                commit_waits = []
                for other in self.workload.sites:
                    if other == site_name:
                        continue
                    coord = self._state.get((other, coord_type))
                    if coord is None:
                        continue
                    sol = solutions[other]
                    fraction = self.workload.remote_request_fraction(other, site_name)
                    waits.append(
                        remote.slave_remote_wait(
                            coord.cycle_response_ms,
                            sol.chain_residence("rw", coord_type.value),
                            sol.chain_residence("ut", coord_type.value),
                            fraction,
                            state.n_submissions,
                            state.local_requests,
                        )
                    )
                    commit_waits.append(
                        remote.slave_commit_wait(
                            self._commit_processing_ms(other, coord_type), alpha
                        )
                    )
                if not waits:
                    continue
                new_rw = sum(waits) / len(waits)
                new_cw = sum(commit_waits) / len(commit_waits)
                state.r_rw = (1 - damping) * state.r_rw + damping * new_rw
                state.r_cw = (1 - damping) * state.r_cw + damping * new_cw

    def _absorb_solutions(self, solutions: dict[str, NetworkSolution]) -> float:
        """Record per-chain measures; return max relative X change."""
        residual = 0.0
        for (site_name, chain), state in self._state.items():
            sol = solutions[site_name]
            x = sol.throughput[chain.value]
            if state.throughput_per_ms > 0:
                change = abs(x - state.throughput_per_ms) / state.throughput_per_ms
            elif x > 0:
                change = 1.0
            else:
                change = 0.0
            if change > residual:
                residual = change
            state.throughput_per_ms = x
            state.cycle_response_ms = sol.response_time[chain.value]
            in_execution = state.cycle_response_ms - sol.chain_residence(
                "ut", chain.value
            )
            lw_res = sol.chain_residence("lw", chain.value)
            executions = 1.0 + (state.n_submissions - 1.0) * state.sigma
            state.response_success_ms = max(1e-9, in_execution / executions)
            state.active_success_ms = max(1e-9, (in_execution - lw_res) / executions)
            state.blocked_fraction = lw_res / in_execution if in_execution > 0 else 0.0
        return residual
