"""Reference scalar outer fixed point — the tensor engine's oracle.

:class:`ReferenceCaratModel` is the paper's §6 damped successive
substitution written per chain in plain Python, as the solver ran
before the solve path moved onto the batched tensor engine
(:mod:`repro.model.outer`).  It mirrors the ``queueing.mva_reference``
pattern: an unvectorized, obviously-faithful implementation kept as the
oracle the equivalence suite pins the production path against
(identical iteration counts, measures within 1e-9) and as the scalar
baseline the ``BENCH_outer`` speedup gate times.

This module owns the scalar algorithm: the site-network solve and the
lock, abort, remote-wait and TM-serialization updates live here only.
From :class:`~repro.model.solver.CaratModel` the oracle inherits what
the tensor engine also starts from — configuration, iterate state,
warm start, the demand rebuild and solution building.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConvergenceError
from repro.model import demands as demands_mod
from repro.model import locking, remote
from repro.model.results import ModelSolution
from repro.model.solver import (
    _EXACT_LATTICE_BUDGET,
    CaratModel,
    ModelConfig,
    WarmStart,
    _built,
)
from repro.model.types import ChainType, Phase
from repro.queueing.kernels import (
    NetworkArrays,
    assemble_solution,
    initial_queue,
    solve_exact_batch,
    solve_schweitzer_batch,
)
from repro.queueing.network import NetworkSolution

__all__ = ["ReferenceCaratModel"]


class ReferenceCaratModel(CaratModel):
    """``CaratModel`` solved by the original scalar fixed-point loop.

    Takes a config and an optional warm-start snapshot; the oracle
    records no convergence trace.
    """

    def __init__(self, config: ModelConfig, warm_start: WarmStart | None = None):
        super().__init__(config, warm_start=warm_start)

    def solve(self) -> ModelSolution:
        """Run the fixed-point iteration to convergence."""
        residual = float("inf")
        iterations = 0
        solutions: dict[str, NetworkSolution] = {}
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
        return self._build_solution(solutions, iterations, residual)

    # ------------------------------------------------------------------
    # step 2: site MVA
    # ------------------------------------------------------------------

    def _site_arrays(self, site_name: str) -> NetworkArrays:
        """Dense array form of :meth:`_site_network`.

        Same center order and same (sorted) active chains, built
        straight from the iterate state without the intermediate
        :class:`ClosedNetwork` dict structure.
        """
        site = self.sites[site_name]
        items = sorted(
            (
                (chain.value, state)
                for (s, chain), state in self._state.items()
                if s == site_name
            ),
            key=lambda item: item[0],
        )
        chains = tuple(name for name, _ in items)
        populations = np.array([state.population for _, state in items], dtype=np.int64)
        rows: list[tuple[str, bool, list[float]]] = [
            ("cpu", False, [_built(st.demands).cpu_ms for _, st in items]),
            ("disk", False, [_built(st.demands).db_disk_ms for _, st in items]),
            ("lw", True, [st.lw_demand_ms for _, st in items]),
            ("rw", True, [st.rw_demand_ms for _, st in items]),
            ("cw", True, [st.cw_demand_ms for _, st in items]),
            ("ut", True, [st.ut_demand_ms for _, st in items]),
        ]
        if site.log_on_separate_disk:
            rows.insert(
                2,
                ("logdisk", False, [_built(st.demands).log_disk_ms for _, st in items]),
            )
        if self.config.model_tm_serialization:
            rows.append(("tms", True, [st.tm_messages * st.r_tms for _, st in items]))
        demands = np.array(
            [r[2] for r in rows],
            dtype=np.float64,
        ).reshape(len(rows), len(chains))
        return NetworkArrays(
            demands=demands,
            delay=np.array([r[1] for r in rows], dtype=bool),
            populations=populations,
            centers=tuple(r[0] for r in rows),
            chains=chains,
        )

    def _solve_sites(self) -> dict[str, NetworkSolution]:
        """Step 2 of the iteration, batched: solve every site network.

        Sites sharing a center/chain layout (and, for exact MVA, a
        population vector — symmetric sites always do) are stacked and
        solved in one vectorized kernel call instead of one Python-loop
        solve per site.  Schweitzer solves warm-start from the previous
        outer iteration's queue iterate (or a warm-start snapshot's),
        which typically cuts the inner iteration count: the outer loop
        moves the demands only slightly between iterations, so the old
        inner fixed point is a near-solution of the new one.
        """
        arrays = {name: self._site_arrays(name) for name in self.workload.sites}
        exact_groups: dict[tuple, list[str]] = {}
        approx_groups: dict[tuple, list[str]] = {}
        for name, a in arrays.items():
            mode = self.config.mva
            if mode == "auto":
                mode = "exact" if a.lattice_size <= _EXACT_LATTICE_BUDGET else "approx"
            if mode == "exact":
                key = (a.centers, a.chains, tuple(a.delay), tuple(a.populations))
                exact_groups.setdefault(key, []).append(name)
            else:
                key = (a.centers, a.chains, tuple(a.delay))
                approx_groups.setdefault(key, []).append(name)

        solutions: dict[str, NetworkSolution] = {}
        for names in exact_groups.values():
            head = arrays[names[0]]
            stack = np.stack([arrays[n].demands for n in names])
            X, R = solve_exact_batch(stack, head.delay, head.populations)
            for i, n in enumerate(names):
                solutions[n] = assemble_solution(arrays[n], X[i], R[i])
        for names in approx_groups.values():
            head = arrays[names[0]]
            stack = np.stack([arrays[n].demands for n in names])
            pops = np.stack([arrays[n].populations for n in names])
            result = solve_schweitzer_batch(
                stack,
                head.delay,
                pops,
                q0=self._queue_warm_start(names, arrays, stack, head, pops),
            )
            if not result.converged.all():
                bad = int(np.argmax(~result.converged))
                raise ConvergenceError(
                    f"Schweitzer MVA did not converge for site {names[bad]!r}",
                    iterations=int(result.iterations[bad]),
                    residual=float(result.residual[bad]),
                )
            qnames = tuple(
                c for c, is_delay in zip(head.centers, head.delay) if not is_delay
            )
            for i, n in enumerate(names):
                solutions[n] = assemble_solution(
                    arrays[n], result.throughput[i], result.residence[i]
                )
                self._mva_queues[n] = (qnames, arrays[n].chains, result.queue[i])
        return solutions

    def _queue_warm_start(self, names, arrays, stack, head, pops):
        """The ``q0`` stack for one Schweitzer group, or None.

        Prefers this solve's previous outer-iteration queue iterate;
        falls back to a warm-start snapshot's entries; missing sites
        (or entries whose layout changed) keep the kernel's default
        initialization.  Entries are masked to visited (demand > 0)
        center/chain pairs, so a stale seed can never park customers
        at a center the chain no longer uses.
        """
        if not self._mva_queues and not self._queue_seeds:
            return None
        qnames = tuple(
            c for c, is_delay in zip(head.centers, head.delay) if not is_delay
        )
        q0 = initial_queue(stack, head.delay, pops)
        for i, name in enumerate(names):
            prev = self._mva_queues.get(name)
            if (
                prev is not None
                and prev[0] == qnames
                and prev[1] == arrays[name].chains
            ):
                q0[i] = prev[2]
                continue
            seed = self._queue_seeds.get(name)
            if not seed:
                continue
            for ci, center in enumerate(qnames):
                for ki, chain in enumerate(arrays[name].chains):
                    value = seed.get(f"{center}|{chain}")
                    if value is not None:
                        q0[i, ci, ki] = value
        q0[stack[:, ~head.delay, :] <= 0.0] = 0.0
        return q0

    # ------------------------------------------------------------------
    # step 3: contention updates
    # ------------------------------------------------------------------

    def _update_lock_model(self, site_name: str) -> None:
        """Step 3a: refresh L_h, Pb, Pd and R_LW at one site."""
        site = self.sites[site_name]
        damping = self.config.damping
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
        damping = self.config.damping
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
        damping = self.config.damping
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
        damping = self.config.damping
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
