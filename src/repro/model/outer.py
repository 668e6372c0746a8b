"""Tensorized outer fixed point: batched whole-model solves.

PR 5 moved the *inner* MVA solves onto batched NumPy kernels; this
module moves the *outer* contention loop (paper §6, Eqs. 11-20) onto
arrays too.  One :class:`_BatchEngine` runs ``B`` independent model
solves — an MPL grid, a transaction-size sweep, a what-if fan-out — as
one ``(B, M)`` tensor program, where ``M`` indexes the flattened
``(site, chain)`` iterate states shared by every model in the batch:

* steps 1-2 of the iteration (visits, phase costs, lock counts and the
  LW/RW/CW/UT demand assembly of ``demands.py``/``locking.py``) become
  ``(B, M)`` and ``(B, M, 16)`` array operations — the per-chain
  transition matrices are solved as one stacked ``linalg.solve``;
* the per-site MVA solves stack ``(model, site)`` pairs of identical
  layout into single :func:`~repro.queueing.kernels.solve_exact_batch`
  / :func:`~repro.queueing.kernels.solve_schweitzer_batch` calls;
* the contention updates (steps 3a-3c) are masked array updates over
  the same ``(B, M)`` iterate arrays.

**Convergence masking.**  Each batch element carries its own damping,
tolerance and iteration budget.  Per outer iteration the engine only
advances the *alive* elements (``residual >= tolerance`` and budget
left); a converged element's iterates, demands and MVA solutions are
frozen at the iteration it converged on, so its final state is
bit-identical to solving it alone (every array operation here is
row-independent, and the MVA kernels freeze per-element the same way).
Finished elements therefore stop paying for the stragglers.

**Equivalence.**  Cross-chain reductions (holder-mass sums, partner
averages, site totals) are accumulated sequentially in state order to
mirror the scalar loops' summation order; the remaining differences
from :class:`~repro.model.solver_reference.ReferenceCaratModel` are
last-ulp rounding in the demand assembly, contracted by the damped
update (the property tests pin agreement at 1e-9).

This engine is the only production form of the iteration:
``CaratModel.solve()`` runs it with ``B = 1``, and
:class:`~repro.model.solver.CaratModel` itself holds only the
configuration, iterate state, warm start and solution building around
it.  The scalar form lives only in the oracle module
:mod:`repro.model.solver_reference`.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.errors import ConfigurationError, ConvergenceError
from repro.model import demands as demands_mod
from repro.model.diagnostics import TRACKED_FIELDS, trace_clock
from repro.obs import metrics as obs
from repro.obs.spans import span
from repro.model.results import ModelSolution
from repro.model.types import PHASE_ORDER, ChainType, Phase
from repro.queueing.kernels import (
    NetworkArrays,
    assemble_solution,
    initial_queue,
    solve_exact_batch,
    solve_schweitzer_batch,
)

__all__ = ["solve_outer_batch"]

_PI = {phase: i for i, phase in enumerate(PHASE_ORDER)}
_NPHASE = len(PHASE_ORDER)

#: Summation order of the CPU phase-cost dict built by
#: :func:`repro.model.demands.build_phase_costs` (its insertion order —
#: the scalar ``aggregate_demands`` sums in exactly this order).
_CPU_ORDER = (Phase.U, Phase.TM, Phase.DM, Phase.LR, Phase.DMIO,
              Phase.UL, Phase.INIT, Phase.TC)

#: Iterate fields: engine array name -> ``_ChainState`` attribute.
_ITERATES = {
    "pb": "pb",
    "pd": "pd",
    "pra": "pra",
    "pa": "abort_prob",
    "ns": "n_submissions",
    "ey": "locks_at_abort",
    "sigma": "sigma",
    "lh": "locks_held",
    "bf": "blocked_fraction",
    "r_lw": "r_lw",
    "r_rw": "r_rw",
    "r_cw": "r_cw",
    "r_tms": "r_tms",
    "resp_s": "response_success_ms",
    "act_s": "active_success_ms",
    "cycle": "cycle_response_ms",
    "xput": "throughput_per_ms",
}

#: ``TRACKED_FIELDS`` (diagnostics) -> engine iterate array name.
_TRACKED_TO_ARRAY = {
    "locks_held": "lh",
    "pb": "pb",
    "pd": "pd",
    "r_lw": "r_lw",
    "pra": "pra",
    "abort_prob": "pa",
    "r_tms": "r_tms",
}

#: MVA row kind -> engine demand-array attribute.
_ROW_SOURCE = {
    "cpu": "cpu_ms",
    "disk": "db_ms",
    "logdisk": "lg_ms",
    "lw": "lw_d",
    "rw": "rw_d",
    "cw": "cw_d",
    "ut": "ut_d",
    "tms": "tms_d",
}


def _seq_sum_last(term: np.ndarray) -> np.ndarray:
    """Sum over the last axis by sequential left-to-right accumulation.

    ``term`` is any stack with a trailing reduction axis — e.g. the
    ``(A, M, M)`` holder-mass tensor.  Mirrors the scalar loops
    (``sum()`` / ``+=`` over dict items in state order) bit-for-bit:
    pairwise summation would round differently, and batched-vs-scalar
    equivalence leans on masked (zero) terms being exact no-ops.
    """
    out = term[..., 0].copy()
    # caratlint: disable=CL002 -- left-to-right order is the contract
    for j in range(1, term.shape[-1]):
        out = out + term[..., j]
    return out


class _MvaGroup:
    """One stack of same-layout ``(model, site)`` pairs."""

    __slots__ = ("kinds", "delay", "chains", "pairs", "b_idx", "m_idx",
                 "exact", "pops", "pops_all", "qnames", "lattice")

    def __init__(self, kinds, delay, chains, exact, pops):
        self.kinds = kinds
        self.delay = delay
        self.chains = chains
        self.exact = exact
        self.pops = pops              # (K,) shared, exact groups only
        self.pairs: list[tuple[int, int]] = []
        # Filled by _BatchEngine._init_mva_groups once all pairs are
        # collected; empty placeholders keep the attributes non-None.
        self.b_idx: np.ndarray = np.zeros(0, dtype=np.int64)
        self.m_idx: np.ndarray = np.zeros((0, 0), dtype=np.int64)
        self.pops_all: np.ndarray = np.zeros((0, 0), dtype=np.int64)
        self.qnames = tuple(k for k, d in zip(kinds, delay) if not d)
        self.lattice = 0


class _BatchEngine:
    """Run ``B`` same-layout model solves as one tensor program."""

    def __init__(self, models):
        self.models = models
        head = models[0]
        self.keys = list(head._state)            # [(site, ChainType)] * M
        self.site_names = list(head.workload.sites)
        self.B = len(models)
        self.M = len(self.keys)
        self.S = len(self.site_names)
        self.tm_flag = head.config.model_tm_serialization
        self._init_static()
        self._init_iterates()
        self._init_mva_groups()

    # ------------------------------------------------------------------
    # static setup
    # ------------------------------------------------------------------

    def _init_static(self) -> None:
        B, M = self.B, self.M
        site_index = {name: i for i, name in enumerate(self.site_names)}
        self.site_of = np.array([site_index[s] for s, _ in self.keys])
        chains = [c for _, c in self.keys]
        self.chain_of = chains
        self.is_update = np.array([c.is_update for c in chains])
        self.is_coord = np.array([c.is_coordinator for c in chains])
        self.is_slave = np.array([c.is_slave for c in chains])
        self.has_rw = self.is_coord | self.is_slave
        same_site = self.site_of[:, None] == self.site_of[None, :]
        self.can_block = same_site & (self.is_update[None, :]
                                      | self.is_update[:, None])
        # partner[m, m'] = 1 when m' is m's counterpart chain at
        # another site (coordinator <-> slave coupling).
        partner = np.zeros((M, M))
        for m, (site, chain) in enumerate(self.keys):
            if chain.is_local:
                continue
            mate = chain.counterpart
            for mp, (other, oc) in enumerate(self.keys):
                if other != site and oc is mate:
                    partner[m, mp] = 1.0
        self.partner = partner
        self.partner_cnt = partner.sum(axis=1)
        self.partner_safe = np.where(self.partner_cnt > 0.0,
                                     self.partner_cnt, 1.0)
        self.site_members = [
            [m for m in range(M) if self.site_of[m] == s]
            for s in range(self.S)
        ]
        self.eye_m = np.eye(M)

        # Per-(b, m) structural scalars and cost bases.
        self.pop_f = np.zeros((B, M))
        self.pop_i = np.zeros((B, M), dtype=np.int64)
        self.locks = np.zeros((B, M))
        self.qv = np.zeros((B, M))
        self.lreq = np.zeros((B, M))
        self.rreq = np.zeros((B, M))
        self.gran = np.zeros((B, M))
        self.block_io = np.zeros((B, M))
        self.log_split = np.zeros((B, M), dtype=bool)
        self.commit_ms = np.zeros((B, M))
        self.records_int: list[list[int]] = []
        self.cpu_base = np.zeros((B, M, _NPHASE))
        self.db_base = np.zeros((B, M, _NPHASE))
        self.lg_base = np.zeros((B, M, _NPHASE))
        self.dbio_base = np.zeros((B, M, _NPHASE))
        self.lgio_base = np.zeros((B, M, _NPHASE))
        self.cpu_ta_slope = np.zeros((B, M))
        self.ios_taio_slope = np.zeros((B, M))
        self.p0 = np.zeros((B, M, _NPHASE, _NPHASE))
        self.think = np.zeros((B, 1))
        self.damp = np.zeros((B, 1))
        self.alpha = np.zeros((B, 1))
        self.rrf = np.zeros((B, 1))
        self.tol = np.zeros(B)
        self.max_it = np.zeros(B, dtype=np.int64)
        self.override = np.zeros(B)
        self.has_ov = np.zeros(B, dtype=bool)

        from repro.model.phases import NO_CONFLICT, transition_matrix

        for b, model in enumerate(self.models):
            wl = model.workload
            cfg = model.config
            self.think[b, 0] = wl.think_time_ms
            self.damp[b, 0] = cfg.damping
            self.alpha[b, 0] = cfg.alpha_ms
            self.rrf[b, 0] = 1.0 / max(1, len(wl.sites) - 1)
            self.tol[b] = cfg.tolerance
            self.max_it[b] = cfg.max_iterations
            if cfg.blocking_ratio_override is not None:
                self.override[b] = cfg.blocking_ratio_override
                self.has_ov[b] = True
            recs: list[int] = []
            for m, ((site_name, chain), st) in enumerate(
                    model._state.items()):
                site = model.sites[site_name]
                self.pop_f[b, m] = float(st.population)
                self.pop_i[b, m] = st.population
                self.locks[b, m] = st.locks
                self.qv[b, m] = st.q
                self.lreq[b, m] = float(st.local_requests)
                self.rreq[b, m] = float(st.remote_requests)
                # Zipf multipliers depend on the site's granule count,
                # so the collision factor is per (model, site).
                collision = wl.collision_multiplier(site.granules)
                self.gran[b, m] = float(max(1, int(round(
                    site.granules / collision))))
                self.block_io[b, m] = site.block_io_ms
                self.log_split[b, m] = site.log_on_separate_disk
                records = wl.requests_per_txn * wl.records_per_request
                if chain.is_slave:
                    records = wl.records_per_txn(chain)
                recs.append(records)
                base = demands_mod.build_phase_costs(site, wl, chain,
                                                     aborted_granules=0.0)
                for phase, value in base.cpu.items():
                    self.cpu_base[b, m, _PI[phase]] = value
                for phase, value in base.db_disk.items():
                    self.db_base[b, m, _PI[phase]] = value
                for phase, value in base.log_disk.items():
                    self.lg_base[b, m, _PI[phase]] = value
                for phase, value in base.db_ios.items():
                    self.dbio_base[b, m, _PI[phase]] = value
                for phase, value in base.log_ios.items():
                    self.lgio_base[b, m, _PI[phase]] = value
                if chain.is_update:
                    protocol = site.protocol
                    self.cpu_ta_slope[b, m] = protocol.undo_cpu_per_granule
                    self.ios_taio_slope[b, m] = (
                        protocol.undo_ios_per_granule
                    )
                self.commit_ms[b, m] = (
                    base.cpu.get(Phase.TC, 0.0)
                    + base.db_disk.get(Phase.TCIO, 0.0)
                    + base.log_disk.get(Phase.TCIO, 0.0))
                self.p0[b, m] = transition_matrix(
                    chain, st.local_requests, st.remote_requests, st.q,
                    NO_CONFLICT)
            self.records_int.append(recs)
        self.rreq_safe = np.where(self.rreq > 0.0, self.rreq, 1.0)
        self.locks_safe = np.where(self.locks > 0.0, self.locks, 1.0)
        self.br = (2.0 * self.locks + 1.0) / (6.0 * self.locks_safe)
        self.omd = 1.0 - self.damp

    def _init_iterates(self) -> None:
        B, M = self.B, self.M
        self.it = {name: np.zeros((B, M)) for name in _ITERATES}
        for b, model in enumerate(self.models):
            for m, st in enumerate(model._state.values()):
                for name, attr in _ITERATES.items():
                    self.it[name][b, m] = getattr(st, attr)
        # Rebuilt-demand arrays (persist the last rebuild per element,
        # frozen once an element converges).
        for name in ("V",):
            setattr(self, name, np.zeros((B, M, _NPHASE)))
        for name in ("cpu_ms", "db_ms", "lg_ms", "dbio", "lgio",
                     "lwv", "rwv", "cwv", "lw_d", "rw_d", "cw_d",
                     "ut_d", "tmm", "tmh", "tms_d", "ns_reb", "ey_reb",
                     "sol_x"):
            setattr(self, name, np.zeros((B, M)))

    def _init_mva_groups(self) -> None:
        budget_key = {}
        from repro.model.solver import _EXACT_LATTICE_BUDGET
        groups: dict[tuple, _MvaGroup] = {}
        self.pair_site: dict[tuple[int, int], str] = {}
        for b, model in enumerate(self.models):
            for s, site_name in enumerate(self.site_names):
                members = self.site_members[s]
                order = sorted(members,
                               key=lambda m: self.chain_of[m].value)
                chains = tuple(self.chain_of[m].value for m in order)
                kind_list = ["cpu", "disk"]
                if model.sites[site_name].log_on_separate_disk:
                    kind_list.insert(2, "logdisk")
                kind_list += ["lw", "rw", "cw", "ut"]
                if self.tm_flag:
                    kind_list.append("tms")
                kinds = tuple(kind_list)
                delay = tuple(k in ("lw", "rw", "cw", "ut", "tms")
                              for k in kinds)
                pops = tuple(int(self.pop_i[b, m]) for m in order)
                lattice = 1
                for p in pops:
                    lattice *= p + 1
                mode = model.config.mva
                if mode == "auto":
                    mode = ("exact" if lattice <= _EXACT_LATTICE_BUDGET
                            else "approx")
                exact = mode == "exact"
                key = (kinds, chains, delay, exact,
                       pops if exact else None)
                group = groups.get(key)
                if group is None:
                    group = groups[key] = _MvaGroup(
                        kinds, np.array(delay, dtype=bool), chains,
                        exact, np.array(pops, dtype=np.int64))
                    group.lattice = lattice if chains else 1
                group.pairs.append((b, s))
                self.pair_site[(b, s)] = site_name
                budget_key[(b, s)] = (group, order)
        self.pair_meta = budget_key
        self.groups = list(groups.values())
        for group in self.groups:
            group.b_idx = np.array([b for b, _ in group.pairs])
            order0 = self.pair_meta[group.pairs[0]][1]
            if order0:
                group.m_idx = np.array(
                    [self.pair_meta[p][1] for p in group.pairs],
                    dtype=np.int64,
                ).reshape(len(group.pairs), len(order0))
            else:
                group.m_idx = np.zeros((len(group.pairs), 0),
                                       dtype=np.int64)
            if order0:
                group.pops_all = self.pop_i[
                    group.b_idx[:, None], group.m_idx]
            else:
                group.pops_all = np.zeros((len(group.pairs), 0),
                                          dtype=np.int64)
        self.last_x: dict[tuple[int, int], np.ndarray] = {}
        self.last_r: dict[tuple[int, int], np.ndarray] = {}
        self.last_q: dict[tuple[int, int], np.ndarray] = {}

    # ------------------------------------------------------------------
    # iteration phases (all operate on the alive subset ``al``)
    # ------------------------------------------------------------------

    def _rebuild(self, al: np.ndarray) -> None:
        """Steps 1-2: visits, phase costs and demand assembly.

        ``al`` is the ``(A,)`` vector of alive batch-row indices.
        """
        A = len(al)
        M = self.M
        pbv = np.minimum(1.0, self.it["pb"][al])
        pdv = np.minimum(1.0, self.it["pd"][al])
        prv = np.minimum(1.0, self.it["pra"][al])
        P = self.p0[al].copy()
        iLR, iLW, iRW, iTM, iTA = (_PI[Phase.LR], _PI[Phase.LW],
                                   _PI[Phase.RW], _PI[Phase.TM],
                                   _PI[Phase.TA])
        iDMIO = _PI[Phase.DMIO]
        P[:, :, iLR, iDMIO] = 1.0 - pbv
        P[:, :, iLR, iLW] = pbv
        P[:, :, iLW, iDMIO] = 1.0 - pdv
        P[:, :, iLW, iTA] = pdv
        hr = self.has_rw
        P[:, hr, iRW, iTM] = 1.0 - prv[:, hr]
        P[:, hr, iRW, iTA] = prv[:, hr]

        a = np.ascontiguousarray(
            (np.eye(_NPHASE) - P).transpose(0, 1, 3, 2))
        iUT = _PI[Phase.UT]
        a[:, :, iUT, :] = 0.0
        a[:, :, iUT, iUT] = 1.0
        rhs = np.zeros((A, M, _NPHASE))
        rhs[:, :, iUT] = 1.0
        v = np.linalg.solve(a.reshape(A * M, _NPHASE, _NPHASE),
                            rhs.reshape(A * M, _NPHASE, 1))[..., 0]
        if np.any(v < -1e-9):
            raise ConfigurationError("negative visit count; matrix is "
                                     "not a valid phase chain")
        v = np.maximum(0.0, v).reshape(A, M, _NPHASE)

        ey = self.it["ey"][al]
        ns = self.it["ns"][al]
        cpu_ta = self.cpu_base[al][:, :, iTA] + self.cpu_ta_slope[al] * ey
        undo_ios = self.ios_taio_slope[al] * ey
        undo_ms = undo_ios * self.block_io[al]
        split = self.log_split[al]
        iTAIO, iTCIO = _PI[Phase.TAIO], _PI[Phase.TCIO]
        iCWC, iCWA = _PI[Phase.CWC], _PI[Phase.CWA]

        cb = self.cpu_base[al]
        acc = v[:, :, _PI[_CPU_ORDER[0]]] * cb[:, :, _PI[_CPU_ORDER[0]]]
        # Eight phases, summed in the scalar aggregate_demands
        # insertion order for bit-exactness.
        # caratlint: disable=CL002 -- fixed phase summation order
        for phase in _CPU_ORDER[1:]:
            acc = acc + v[:, :, _PI[phase]] * cb[:, :, _PI[phase]]
        acc = acc + v[:, :, iTA] * cpu_ta
        self.cpu_ms[al] = ns * acc

        db = self.db_base[al]
        acc = (v[:, :, iDMIO] * db[:, :, iDMIO]
               + v[:, :, iTCIO] * db[:, :, iTCIO]
               + v[:, :, iTAIO] * np.where(split, 0.0, undo_ms))
        self.db_ms[al] = ns * acc
        lg = self.lg_base[al]
        acc = (v[:, :, iTCIO] * lg[:, :, iTCIO]
               + v[:, :, iTAIO] * np.where(split, undo_ms, 0.0))
        self.lg_ms[al] = ns * acc
        dbio = self.dbio_base[al]
        acc = (v[:, :, iDMIO] * dbio[:, :, iDMIO]
               + v[:, :, iTCIO] * dbio[:, :, iTCIO]
               + v[:, :, iTAIO] * np.where(split, 0.0, undo_ios))
        self.dbio[al] = ns * acc
        lgio = self.lgio_base[al]
        acc = (v[:, :, iTCIO] * lgio[:, :, iTCIO]
               + v[:, :, iTAIO] * np.where(split, undo_ios, 0.0))
        self.lgio[al] = ns * acc

        lwv = ns * v[:, :, iLW]
        rwv = ns * v[:, :, iRW]
        cwv = ns * (v[:, :, iCWC] + v[:, :, iCWA])
        self.lwv[al] = lwv
        self.rwv[al] = rwv
        self.cwv[al] = cwv
        self.lw_d[al] = lwv * self.it["r_lw"][al]
        self.rw_d[al] = rwv * self.it["r_rw"][al]
        self.cw_d[al] = cwv * self.it["r_cw"][al]
        self.ut_d[al] = ns * self.think[al]
        self.ns_reb[al] = ns
        self.ey_reb[al] = ey
        self.V[al] = v
        if self.tm_flag:
            iTC = _PI[Phase.TC]
            tmm = ns * (v[:, :, iTM] + v[:, :, iTC] + v[:, :, iTA])
            held_cpu = (v[:, :, iTM] * cb[:, :, iTM]
                        + v[:, :, iTC] * cb[:, :, iTC]
                        + v[:, :, iTA] * cpu_ta)
            held_force = v[:, :, iTCIO] * (db[:, :, iTCIO]
                                           + lg[:, :, iTCIO])
            self.tmm[al] = tmm
            self.tmh[al] = ns * (held_cpu + held_force)
            self.tms_d[al] = tmm * self.it["r_tms"][al]

    def _group_q0(self, group: _MvaGroup, sel: list[int],
                  stack: np.ndarray,
                  pops: np.ndarray) -> np.ndarray | None:
        """Warm-start queues for one group's selected rows, or None.

        ``stack`` is the group's ``(G, C, K)`` demand stack and
        ``pops`` its ``(G, K)`` populations; the result (when any row
        has a seed) follows the kernels' ``(G, Cq, K)`` q0 contract.
        """
        need = False
        for i in sel:
            pair = group.pairs[i]
            if pair in self.last_q:
                need = True
                break
            model = self.models[pair[0]]
            if model._queue_seeds.get(self.pair_site[pair]):
                need = True
                break
        if not need:
            return None
        q0 = initial_queue(stack, group.delay, pops)
        for row, i in enumerate(sel):
            pair = group.pairs[i]
            prev = self.last_q.get(pair)
            if prev is not None:
                q0[row] = prev
                continue
            seed = self.models[pair[0]]._queue_seeds.get(
                self.pair_site[pair])
            if not seed:
                continue
            for ci, center in enumerate(group.qnames):
                for ki, chain in enumerate(group.chains):
                    value = seed.get(f"{center}|{chain}")
                    if value is not None:
                        q0[row, ci, ki] = value
        q0[stack[:, ~group.delay, :] <= 0.0] = 0.0
        return q0

    def _solve_mva(self, alive: np.ndarray) -> None:
        """Step 2: batched per-site MVA over all alive pairs.

        ``alive`` is the ``(B,)`` liveness mask; each layout group
        stacks its alive ``(model, site)`` pairs into one kernel call.
        """
        self.cur_inner = np.zeros(self.B, dtype=np.int64)
        self.cur_lattice = np.zeros(self.B, dtype=np.int64)
        # caratlint: disable=CL002 -- a handful of layout groups; each
        # body is one whole-stack kernel call, not per-chain work
        for group in self.groups:
            sel = [i for i, (b, _s) in enumerate(group.pairs)
                   if alive[b]]
            if not sel:
                continue
            bb = group.b_idx[sel]
            mm = group.m_idx[sel]
            C, K = len(group.kinds), mm.shape[1]
            stack = np.empty((len(sel), C, K))
            # caratlint: disable=CL002 -- C <= 8 named demand rows
            for ci, kind in enumerate(group.kinds):
                source = getattr(self, _ROW_SOURCE[kind])
                stack[:, ci, :] = (source[bb[:, None], mm]
                                   if K else 0.0)
            if group.exact:
                X, R = solve_exact_batch(stack, group.delay, group.pops)
                np.add.at(self.cur_lattice, bb, group.lattice)
            else:
                pops = group.pops_all[sel]
                result = solve_schweitzer_batch(
                    stack, group.delay, pops,
                    q0=self._group_q0(group, sel, stack, pops))
                if not result.converged.all():
                    bad = int(np.argmax(~result.converged))
                    site = self.pair_site[group.pairs[sel[bad]]]
                    raise ConvergenceError(
                        f"Schweitzer MVA did not converge for site "
                        f"{site!r}",
                        iterations=int(result.iterations[bad]),
                        residual=float(result.residual[bad]),
                    )
                X, R = result.throughput, result.residence
                np.add.at(self.cur_inner, bb, result.iterations)
            # caratlint: disable=CL002 -- warm-start cache bookkeeping
            for row, i in enumerate(sel):
                pair = group.pairs[i]
                self.last_x[pair] = X[row]
                self.last_r[pair] = R[row]
                if not group.exact:
                    self.last_q[pair] = result.queue[row]
            if K:
                self.sol_x[bb[:, None], mm] = X

    def _absorb(self, al: np.ndarray) -> np.ndarray:
        """Record per-chain measures; return per-element residuals.

        ``al`` is the ``(A,)`` vector of alive batch-row indices; the
        return value is the matching ``(A,)`` residual vector.
        """
        x = self.sol_x[al]
        prev = self.it["xput"][al]
        safe_prev = np.where(prev > 0.0, prev, 1.0)
        change = np.where(prev > 0.0, np.abs(x - prev) / safe_prev,
                          np.where(x > 0.0, 1.0, 0.0))
        safe_x = np.where(x > 0.0, x, 1.0)
        cycle = np.where(x > 0.0, self.pop_f[al] / safe_x, 0.0)
        in_ex = cycle - self.ut_d[al]
        lw_res = self.lw_d[al]
        execs = 1.0 + (self.it["ns"][al] - 1.0) * self.it["sigma"][al]
        self.it["xput"][al] = x
        self.it["cycle"][al] = cycle
        self.it["resp_s"][al] = np.maximum(1e-9, in_ex / execs)
        self.it["act_s"][al] = np.maximum(1e-9,
                                          (in_ex - lw_res) / execs)
        safe_ex = np.where(in_ex > 0.0, in_ex, 1.0)
        self.it["bf"][al] = np.where(in_ex > 0.0, lw_res / safe_ex, 0.0)
        self._last_change = change
        if change.shape[1] == 0:
            return np.zeros(len(al))
        return change.max(axis=1)

    def _update_abort(self, al: np.ndarray) -> None:
        """Step 3b: Pra and P_a, coupling sites through partners.

        ``al`` is the ``(A,)`` vector of alive batch-row indices.
        """
        damp, omd = self.damp[al], self.omd[al]
        pb, pd = self.it["pb"][al], self.it["pd"][al]
        pbpd = pb * pd
        hazard = 1.0 - (1.0 - pbpd) ** self.qv[al]
        hz = np.zeros_like(hazard)
        # caratlint: disable=CL002 -- partner mass summed in state
        # order (column by column) to mirror the scalar loops
        for j in range(self.M):
            col = self.partner[:, j]
            if not col.any():
                continue
            hz = hz + hazard[:, j][:, None] * col[None, :]
        new_pra = np.where(self.partner_cnt > 0.0,
                           hz / self.partner_safe, 0.0)
        pra = self.it["pra"][al]
        pra = np.where(self.is_coord, omd * pra + damp * new_pra, pra)
        self.it["pra"][al] = pra

        survive = (1.0 - pbpd) ** self.locks[al]
        factor = (1.0 - pra) ** self.rreq[al]
        survive_ns = np.where(self.is_coord, survive * factor, survive)
        new_pa = 1.0 - survive_ns
        pa = self.it["pa"][al]
        nonslave = ~self.is_slave
        pa = np.where(nonslave, omd * pa + damp * new_pa, pa)
        ns = self.it["ns"][al]
        ns = np.where(nonslave, 1.0 / (1.0 - np.minimum(pa, 0.999)), ns)

        # Slaves inherit the distributed transaction's fate from the
        # (averaged) coordinators at the other sites.
        sm = self.is_slave & (self.partner_cnt > 0.0)
        if sm.any():
            own_survive = np.maximum(survive, 1e-12)
            pa_sum = np.zeros_like(pa)
            else_sum = np.zeros_like(pa)
            # caratlint: disable=CL002 -- coordinator fate averaged
            # column by column in state order (bit-exact equivalence)
            for j in range(self.M):
                col = self.partner[:, j]
                if not col.any():
                    continue
                coord_pa = pa[:, j][:, None]
                p_else = 1.0 - (1.0 - coord_pa) / own_survive
                p_else = np.minimum(np.maximum(p_else, 0.0), 1.0)
                pa_sum = pa_sum + coord_pa * col[None, :]
                else_sum = else_sum + p_else * col[None, :]
            pa_mean = pa_sum / self.partner_safe
            pe_mean = else_sum / self.partner_safe
            pa = np.where(sm, omd * pa + damp * pa_mean, pa)
            ns = np.where(sm, 1.0 / (1.0 - np.minimum(pa, 0.999)), ns)
            with np.errstate(invalid="ignore"):
                base = np.where(pe_mean < 1.0, 1.0 - pe_mean, 0.5)
                per_wait = np.where(
                    pe_mean >= 1.0, 1.0,
                    1.0 - base ** (1.0 / self.lreq[al]))
            pra = np.where(sm, omd * pra + damp * per_wait, pra)
            self.it["pra"][al] = pra
        self.it["pa"][al] = pa
        self.it["ns"][al] = ns

    def _update_lock(self, al: np.ndarray) -> None:
        """Step 3a: L_h, Pb, Pd, R_LW and the E[Y]/sigma refresh.

        ``al`` is the ``(A,)`` vector of alive batch-row indices.
        """
        damp, omd = self.damp[al], self.omd[al]
        locks = self.locks[al]
        think = self.think[al]
        rs = self.it["resp_s"][al]
        pa = self.it["pa"][al]
        sig = self.it["sigma"][al]
        r_f = sig * rs
        num = (1.0 - (1.0 - sig ** 2) * pa) * rs
        den = pa * r_f + (1.0 - pa) * rs + think
        safe_den = np.where(den > 0.0, den, 1.0)
        new_lh = np.where(rs > 0.0,
                          (locks / 2.0) * num / safe_den, 0.0)
        lh = omd * self.it["lh"][al] + damp * new_lh
        self.it["lh"][al] = lh

        # Holder mass (requester axis 1, holder axis 2), same site and
        # lock-mode compatible only; a transaction never blocks on its
        # own locks.
        raw = self.pop_f[al][:, None, :] * lh[:, None, :]
        raw = raw - self.eye_m[None, :, :] * lh[:, None, :]
        raw = np.maximum(0.0, raw)
        mass = np.where(self.can_block[None, :, :], raw, 0.0)
        rowsum = _seq_sum_last(mass)
        new_pb = np.minimum(1.0, rowsum / self.gran[al])
        safe_total = np.where(rowsum > 0.0, rowsum, 1.0)
        dist = np.where(rowsum[:, :, None] > 0.0,
                        mass / safe_total[:, :, None], 0.0)

        bf_h = self.it["bf"][al][:, None, :]
        total_h = rowsum[:, None, :]
        safe_h = np.where(total_h > 0.0, total_h, 1.0)
        share = np.minimum(1.0, lh[:, :, None] / safe_h)
        term = np.where((dist > 0.0) & (bf_h > 0.0) & (total_h > 0.0),
                        (dist * bf_h) * share, 0.0)
        new_pd = np.where(lh > 0.0,
                          np.minimum(1.0, _seq_sum_last(term)), 0.0)

        act_h = self.it["act_s"][al][:, None, :]
        locks_h = self.locks[al][:, None, :]
        br_h = self.br[al][:, None, :]
        wait = np.where((dist > 0.0) & (locks_h > 0.0) & (act_h > 0.0),
                        (dist * br_h) * act_h, 0.0)
        new_rlw = _seq_sum_last(wait)
        if self.has_ov.any():
            ov = self.override[al][:, None, None]
            wait_o = np.where(dist > 0.0, (dist * ov) * act_h, 0.0)
            new_rlw = np.where(self.has_ov[al][:, None],
                               _seq_sum_last(wait_o), new_rlw)

        pb = omd * self.it["pb"][al] + damp * new_pb
        pd = omd * self.it["pd"][al] + damp * new_pd
        self.it["pb"][al] = pb
        self.it["pd"][al] = pd
        self.it["r_lw"][al] = (omd * self.it["r_lw"][al]
                               + damp * new_rlw)

        # E[Y] and sigma from the refreshed Pb * Pd (Eq. 11).
        per_lock = np.minimum(1.0, pb * pd)
        half = (locks - 1.0) / 2.0
        with np.errstate(divide="ignore", invalid="ignore"):
            x = 1.0 - per_lock
            xn = x ** locks
            safe_p = np.where(per_lock > 0.0, per_lock, 1.0)
            closed = x / safe_p - (locks * xn) / (1.0 - xn)
            closed = np.minimum(np.maximum(closed, 0.0), half)
        ey = np.where(
            locks <= 0.0, 0.0,
            np.where(per_lock * locks < 1e-4, np.maximum(0.0, half),
                     np.where(per_lock >= 1.0 - 1e-12, 0.0, closed)))
        self.it["ey"][al] = ey
        self.it["sigma"][al] = np.where(locks <= 0.0, 0.0,
                                        ey / self.locks_safe[al])

    def _update_remote(self, al: np.ndarray) -> None:
        """Step 3c: R_RW and R_CW from the fresh site solutions.

        ``al`` is the ``(A,)`` vector of alive batch-row indices.
        """
        damp, omd = self.damp[al], self.omd[al]
        alpha = self.alpha[al]
        cycle = self.it["cycle"][al]
        ns = self.it["ns"][al]
        cm = self.commit_ms[al]

        active = cycle - self.rw_d[al] - self.cw_d[al] - self.ut_d[al]
        active = np.maximum(0.0, active)
        tot_act = np.zeros_like(active)
        # caratlint: disable=CL002 -- partner activity summed in state
        # order to mirror the scalar loops
        for j in range(self.M):
            col = self.partner[:, j]
            if not col.any():
                continue
            tot_act = tot_act + active[:, j][:, None] * col[None, :]
        new_rw_c = 2.0 * alpha + tot_act / (ns * self.rreq_safe[al])
        slow = np.where(self.partner[None, :, :], cm[:, None, :],
                        -np.inf).max(axis=2)
        new_cw_c = np.maximum(0.0, slow - cm) + 4.0 * alpha

        # Slave side: the coordinator's non-waiting time, spread over
        # this slave's N_s * l waits, and the coordinator's commit
        # processing plus one round trip.
        wait_num = np.maximum(
            0.0, cycle[:, None, :] - self.rw_d[al][:, None, :]
            * self.rrf[al][:, :, None] - self.ut_d[al][:, None, :])
        wait_each = wait_num / (ns * self.lreq[al])[:, :, None]
        wait_sum = np.zeros_like(active)
        cw_sum = np.zeros_like(active)
        # caratlint: disable=CL002 -- slave-side waits accumulated in
        # state order to mirror the scalar loops
        for j in range(self.M):
            col = self.partner[:, j]
            if not col.any():
                continue
            wait_sum = wait_sum + wait_each[:, :, j] * col[None, :]
            commit_wait = (np.maximum(0.0, cm[:, j])[:, None]
                           + 2.0 * alpha)
            cw_sum = cw_sum + commit_wait * col[None, :]
        new_rw_s = wait_sum / self.partner_safe
        new_cw_s = cw_sum / self.partner_safe

        coord = self.is_coord & (self.partner_cnt > 0.0)
        slave = self.is_slave & (self.partner_cnt > 0.0)
        r_rw = self.it["r_rw"][al]
        r_cw = self.it["r_cw"][al]
        r_rw = np.where(coord, omd * r_rw + damp * new_rw_c, r_rw)
        r_cw = np.where(coord, omd * r_cw + damp * new_cw_c, r_cw)
        r_rw = np.where(slave, omd * r_rw + damp * new_rw_s, r_rw)
        r_cw = np.where(slave, omd * r_cw + damp * new_cw_s, r_cw)
        self.it["r_rw"][al] = r_rw
        self.it["r_cw"][al] = r_cw

    def _update_tms(self, al: np.ndarray) -> None:
        """TM serialization surrogate (M/G/1 token wait, §5.5).

        ``al`` is the ``(A,)`` vector of alive batch-row indices.
        """
        damp, omd = self.damp[al], self.omd[al]
        x = self.it["xput"][al]
        r_tms = self.it["r_tms"][al]
        # caratlint: disable=CL002 -- per-site token queues: a handful
        # of sites, members summed in state order for bit-exactness
        for members in self.site_members:
            if not members:
                continue
            lam = (x[:, members[0]] * self.tmm[al][:, members[0]]).copy()
            busy = (x[:, members[0]] * self.tmh[al][:, members[0]]).copy()
            # caratlint: disable=CL002 -- state-order accumulation
            for m in members[1:]:
                lam = lam + x[:, m] * self.tmm[al][:, m]
                busy = busy + x[:, m] * self.tmh[al][:, m]
            rho = np.minimum(busy, 0.95)
            safe_lam = np.where(lam > 0.0, lam, 1.0)
            service = rho / safe_lam
            wait = np.where((lam > 0.0) & (rho > 0.0),
                            rho * service / (1.0 - rho), 0.0)
            # caratlint: disable=CL002 -- scatter back per member chain
            for m in members:
                r_tms[:, m] = (omd[:, 0] * r_tms[:, m]
                               + damp[:, 0] * wait)
        self.it["r_tms"][al] = r_tms

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------

    def run(self) -> list[ModelSolution]:
        B = self.B
        traced = [b for b, model in enumerate(self.models)
                  if model._diag is not None]
        for b in traced:
            model = self.models[b]
            model._diag.begin_solve(
                model.workload.name, model.workload.requests_per_txn,
                model.config.tolerance, model.config.damping,
                warm_started=bool(model._warm_start),
            )
        clock = trace_clock() if traced else None
        prev_res = {b: None for b in traced}

        alive = np.ones(B, dtype=bool)
        resid = np.full(B, np.inf)
        iters = np.zeros(B, dtype=np.int64)
        converged = np.zeros(B, dtype=bool)
        self.tot_inner = np.zeros(B, dtype=np.int64)
        iteration = 0
        while alive.any():
            iteration += 1
            al = np.nonzero(alive)[0]
            t0 = clock() if traced else 0.0
            self._rebuild(al)
            t1 = clock() if traced else 0.0
            self._solve_mva(alive)
            self.tot_inner += self.cur_inner
            t2 = clock() if traced else 0.0
            before = None
            if traced:
                before = {name: self.it[arr].copy()
                          for name, arr in _TRACKED_TO_ARRAY.items()}
            res = self._absorb(al)
            t3 = clock() if traced else 0.0
            self._update_abort(al)
            t4 = clock() if traced else 0.0
            self._update_lock(al)
            t5 = clock() if traced else 0.0
            self._update_remote(al)
            t6 = clock() if traced else 0.0
            if self.tm_flag:
                self._update_tms(al)
            t7 = clock() if traced else 0.0

            resid[al] = res
            done_now = res < self.tol[al]
            exhausted = ~done_now & (iteration >= self.max_it[al])
            finished = done_now | exhausted
            iters[al[finished]] = iteration
            converged[al[done_now]] = True
            if traced:
                self._record_traced(traced, al, iteration, res,
                                    before, prev_res,
                                    (t0, t1, t2, t3, t4, t5, t6, t7))
            alive[al[finished]] = False

        for b in traced:
            self.models[b]._diag.finish(bool(converged[b]),
                                        int(iters[b]),
                                        float(resid[b]))
        solutions = self._write_back(iters, resid)
        for b, model in enumerate(self.models):
            if not converged[b] and model.config.raise_on_nonconvergence:
                raise ConvergenceError(
                    f"model did not converge for workload "
                    f"{model.workload.name} (n="
                    f"{model.workload.requests_per_txn})",
                    iterations=int(iters[b]), residual=float(resid[b]),
                )
        return solutions

    def _record_traced(self, traced, al, iteration, res, before,
                       prev_res, times) -> None:
        from repro.model.diagnostics import IterationRecord

        t0, t1, t2, t3, t4, t5, t6, t7 = times
        share = 1.0 / len(al)
        pos = {b: i for i, b in enumerate(al)}
        for b in traced:
            if b not in pos:
                continue
            i = pos[b]
            chain_res = {
                f"{site}/{chain.value}": float(self._last_change[i, m])
                for m, (site, chain) in enumerate(self.keys)
            }
            field_res = {}
            for name, arr in _TRACKED_TO_ARRAY.items():
                step = np.abs(self.it[arr][b] - before[name][b])
                field_res[name] = float(step.max()) if self.M else 0.0
            contraction = (float(res[i]) / prev_res[b]
                           if prev_res[b] else None)
            prev_res[b] = float(res[i])
            self.models[b]._diag.append(IterationRecord(
                index=iteration,
                residual=float(res[i]),
                chain_residuals=chain_res,
                field_residuals=field_res,
                phase_ms={
                    "demands": (t1 - t0) * 1e3 * share,
                    "mva": (t2 - t1) * 1e3 * share,
                    "absorb": (t3 - t2) * 1e3 * share,
                    "abort": (t4 - t3) * 1e3 * share,
                    "lock": (t5 - t4) * 1e3 * share,
                    "remote": (t6 - t5) * 1e3 * share,
                    "tms": (t7 - t6) * 1e3 * share,
                },
                mva_solves=self.S,
                mva_inner_iterations=int(self.cur_inner[b]),
                mva_lattice_points=int(self.cur_lattice[b]),
                contraction=contraction,
            ))

    # ------------------------------------------------------------------
    # write-back
    # ------------------------------------------------------------------

    def _write_back(self, iters, resid) -> list[ModelSolution]:
        results: list[ModelSolution] = []
        for b, model in enumerate(self.models):
            wl = model.workload
            for m, ((site_name, chain), st) in enumerate(
                    model._state.items()):
                for name, attr in _ITERATES.items():
                    setattr(st, attr, float(self.it[name][b, m]))
                st.visits = {phase: float(self.V[b, m, _PI[phase]])
                             for phase in PHASE_ORDER}
                st.costs = demands_mod.build_phase_costs(
                    model.sites[site_name], wl, chain,
                    aborted_granules=float(self.ey_reb[b, m]))
                st.demands = demands_mod.ChainDemands(
                    chain=chain,
                    n_submissions=float(self.ns_reb[b, m]),
                    cpu_ms=float(self.cpu_ms[b, m]),
                    db_disk_ms=float(self.db_ms[b, m]),
                    log_disk_ms=float(self.lg_ms[b, m]),
                    db_ios=float(self.dbio[b, m]),
                    log_ios=float(self.lgio[b, m]),
                    lw_visits=float(self.lwv[b, m]),
                    rw_visits=float(self.rwv[b, m]),
                    cw_visits=float(self.cwv[b, m]),
                    records_per_cycle=self.records_int[b][m],
                )
                st.lw_demand_ms = float(self.lw_d[b, m])
                st.rw_demand_ms = float(self.rw_d[b, m])
                st.cw_demand_ms = float(self.cw_d[b, m])
                st.ut_demand_ms = float(self.ut_d[b, m])
                if self.tm_flag:
                    st.tm_messages = float(self.tmm[b, m])
                    st.tm_held_ms = float(self.tmh[b, m])
            solutions = {}
            for s, site_name in enumerate(self.site_names):
                pair = (b, s)
                group, order = self.pair_meta[pair]
                demands = np.empty((len(group.kinds), len(order)))
                for ci, kind in enumerate(group.kinds):
                    source = getattr(self, _ROW_SOURCE[kind])
                    for ki, m in enumerate(order):
                        demands[ci, ki] = source[b, m]
                arrays = NetworkArrays(
                    demands=demands,
                    delay=group.delay,
                    populations=np.array(
                        [self.pop_i[b, m] for m in order],
                        dtype=np.int64),
                    centers=group.kinds,
                    chains=group.chains,
                )
                solutions[site_name] = assemble_solution(
                    arrays, self.last_x[pair], self.last_r[pair])
                if not group.exact:
                    model._mva_queues[site_name] = (
                        group.qnames, group.chains, self.last_q[pair])
            results.append(model._build_solution(
                solutions, int(iters[b]), float(resid[b])))
        return results


def _batch_key(model) -> tuple:
    return (
        tuple((site, chain.value) for site, chain in model._state),
        model.workload.sites,
        model.config.model_tm_serialization,
    )


def solve_outer_batch(models: Sequence) -> list[ModelSolution]:
    """Solve ``B`` independent :class:`CaratModel` fixed points batched.

    Models sharing an iterate layout (same sites and active chains,
    same TM-serialization setting) are stacked into one
    :class:`_BatchEngine` tensor program; everything else — per-chain
    populations, site parameters, damping, tolerance, iteration
    budgets, warm starts, MVA mode — may vary per element.  Solutions
    come back in input order, and each model is left exactly as its own
    :meth:`~repro.model.solver.CaratModel.solve` would leave it
    (iterate state, ``snapshot()`` contents, attached diagnostics).

    Raises :class:`~repro.errors.ConvergenceError` for the first
    non-converged element whose config demands it — after every
    element's state and diagnostics have been finalized.
    """
    models = list(models)
    if not models:
        return []
    groups: dict[tuple, list[int]] = {}
    for i, model in enumerate(models):
        groups.setdefault(_batch_key(model), []).append(i)
    out: list[ModelSolution | None] = [None] * len(models)
    pending: Exception | None = None
    for indices in groups.values():
        try:
            engine = _BatchEngine([models[i] for i in indices])
            with span("solver.batch_solve", batch=len(indices)):
                solutions = engine.run()
        except ConvergenceError as exc:
            if pending is None:
                pending = exc
            continue
        for i, solution in zip(indices, solutions):
            out[i] = solution
        _emit_solver_metrics(engine, solutions)
    if pending is not None:
        raise pending
    return out  # type: ignore[return-value]


def _emit_solver_metrics(engine: _BatchEngine,
                         solutions: list[ModelSolution]) -> None:
    """Publish one batch's solve counters to the obs registry.

    Counters only — the batched numerics are untouched, so
    telemetry-on solves stay bit-identical to telemetry-off solves.
    No-op when no registry is installed.
    """
    registry = obs.active()
    if registry is None:
        return
    registry.add("solver.solves", float(len(solutions)))
    registry.observe("solver.batch_size", float(len(solutions)))
    registry.add("solver.outer_iterations",
                 float(sum(s.iterations for s in solutions)))
    registry.add("solver.inner_iterations",
                 float(engine.tot_inner.sum()))
