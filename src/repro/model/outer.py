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
  visit counts are the phase chain's closed form, evaluated as
  ``(B, M)`` arrays;
* the per-site MVA solves stack ``(model, site)`` pairs of identical
  layout into single :func:`~repro.queueing.kernels.solve_exact_batch`
  / :func:`~repro.queueing.kernels.solve_schweitzer_batch` calls;
* the contention updates (steps 3a-3c) are masked array updates over
  the same ``(B, M)`` iterate arrays.

**Convergence masking.**  Each batch element carries its own damping,
tolerance and iteration budget; its damping starts at the config's
and backs off (x0.9, floor 0.3) after each iteration from the third
on whose residual did not shrink.  The masked row driver
:func:`iterate_rows`, shared with the open solver, steps only the
*alive* elements (``residual >= tolerance`` and budget left); a
converged element's iterates, demands and MVA solutions are frozen at
the iteration it converged on, so its final state is bit-identical to
solving it alone (every array operation here is row-independent, and
the MVA kernels freeze per-element the same way).

**Equivalence.**  Cross-chain reductions (holder-mass sums, partner
averages, site totals) are accumulated sequentially in state order to
mirror the scalar loops' summation order; the remaining differences
from :class:`~repro.model.solver_reference.ReferenceCaratModel` are
last-ulp rounding in the demand assembly, contracted by the damped
update (the property tests pin agreement at 1e-9).

This engine is the only production form of the iteration, and the
only owner of its state: it reads the structural values (populations,
``q``, lock counts, request counts) straight from each model's
workload and sites, seeds the iterates from zeros or the model's warm
start, and builds each :class:`~repro.model.results.ModelSolution`,
snapshot and site network from its arrays through the shared
builders of :mod:`repro.model.solver`.
``CaratModel.solve()`` runs it with ``B = 1``; before any solve,
:func:`seed_state` rebuilds a one-row batch for
``CaratModel.site_network`` and ``CaratModel.snapshot``.  The scalar
form lives only in the oracle module :mod:`repro.model.solver_reference`.

**Shared array steps.**  The per-state setup (:class:`StateTable`),
the closed-form visit counts (:func:`phase_visits`), the demand
assembly (:class:`PhaseCostTable`), ``L_h`` (:func:`locks_held`), the
holder-mass ``Pb``/``Pd``/``R_LW`` block (:func:`conflict_rates`),
``E[Y]``/``sigma`` (:func:`abort_state`), the row driver and its
damping rule (:func:`back_off_damping`) are module-level, so the
open-arrival solver
(:func:`repro.model.open_solver.solve_open_batch`) shares them.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.errors import ConfigurationError, ConvergenceError
from repro.model import demands as demands_mod
from repro.model import locking
from repro.model.diagnostics import TRACKED_FIELDS, trace_clock
from repro.model.phases import check_chain
from repro.model.results import ModelSolution
from repro.model.solver import (_DAMPING_BACKOFF, _DAMPING_FLOOR,
                                _MVA_QUEUE_SITE, _WARM_FIELDS,
                                QUEUEING_CENTERS, ChainRow, WarmStart,
                                build_site_network, build_solution,
                                site_centers)
from repro.model.types import PHASE_ORDER, ChainType, Phase
from repro.model.workload import WorkloadSpec
from repro.obs import metrics as obs
from repro.obs.spans import span
from repro.queueing.kernels import (
    NetworkArrays,
    assemble_solution,
    exact_cost,
    initial_queue,
    solve_exact_batch,
    solve_schweitzer_batch,
)
from repro.queueing.network import ClosedNetwork

__all__ = ["solve_outer_batch", "seed_state"]

_PI = {phase: i for i, phase in enumerate(PHASE_ORDER)}
_NPHASE = len(PHASE_ORDER)
#: The commit path (TC -> CWC -> TCIO) and abort path (TA -> CWA ->
#: TAIO): each phase on a path is visited as often as its first.
_COMMIT = [_PI[Phase.TC], _PI[Phase.CWC], _PI[Phase.TCIO]]
_ABORT = [_PI[Phase.TA], _PI[Phase.CWA], _PI[Phase.TAIO]]

#: Summation order of the CPU phase-cost dict built by
#: :func:`repro.model.demands.build_phase_costs` (its insertion order —
#: the scalar ``aggregate_demands`` sums in exactly this order).
_CPU_ORDER = (Phase.U, Phase.TM, Phase.DM, Phase.LR, Phase.DMIO,
              Phase.UL, Phase.INIT, Phase.TC)

#: Warm-start snapshot field -> engine iterate array.  ``E[Y]``
#: (``ey``) and ``sigma`` are the other two iterates: they depend on
#: the lock count, so they are always derived, never carried.
_WARM_ARRAY = dict(zip(_WARM_FIELDS, (
    "pb", "pd", "pra", "pa", "ns", "r_lw", "r_rw", "r_cw", "r_tms",
    "lh", "bf", "resp_s", "act_s", "cycle", "xput")))

#: ``TRACKED_FIELDS`` (diagnostics) -> engine iterate array name.
_TRACKED_TO_ARRAY = {name: _WARM_ARRAY[name] for name in TRACKED_FIELDS}

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


class PhaseCostTable:
    """Per-visit phase costs of ``(site, chain)`` states.

    Every array has the leading ``shape`` given at construction:
    ``(B, M)`` for the closed engine, ``(1, M)`` for an open workload
    whose rows share one structure.  The ``*_base`` arrays hold each
    phase's cost (in :data:`PHASE_ORDER`) at zero aborted granules;
    the undo slopes scale with ``E[Y]`` for update chains.
    """

    __slots__ = ("cpu_base", "db_base", "lg_base", "dbio_base",
                 "lgio_base", "cpu_ta_slope", "ios_taio_slope",
                 "block_io", "log_split")

    def __init__(self, shape: tuple[int, ...]):
        self.cpu_base = np.zeros(shape + (_NPHASE,))
        self.db_base = np.zeros(shape + (_NPHASE,))
        self.lg_base = np.zeros(shape + (_NPHASE,))
        self.dbio_base = np.zeros(shape + (_NPHASE,))
        self.lgio_base = np.zeros(shape + (_NPHASE,))
        self.cpu_ta_slope = np.zeros(shape)
        self.ios_taio_slope = np.zeros(shape)
        self.block_io = np.zeros(shape)
        self.log_split = np.zeros(shape, dtype=bool)

    def fill(self, index: tuple[int, ...], site, workload,
             chain) -> demands_mod.PhaseCosts:
        """Load one state's costs from
        :func:`~repro.model.demands.build_phase_costs` and return the
        build, whose ``ios_per_request`` and ``locks`` the caller
        reuses."""
        base = demands_mod.build_phase_costs(site, workload, chain,
                                             aborted_granules=0.0)
        for table, values in ((self.cpu_base, base.cpu),
                              (self.db_base, base.db_disk),
                              (self.lg_base, base.log_disk),
                              (self.dbio_base, base.db_ios),
                              (self.lgio_base, base.log_ios)):
            for phase, value in values.items():
                table[index + (_PI[phase],)] = value
        if chain.is_update:
            self.cpu_ta_slope[index] = site.protocol.undo_cpu_per_granule
            self.ios_taio_slope[index] = site.protocol.undo_ios_per_granule
        self.block_io[index] = site.block_io_ms
        self.log_split[index] = site.log_on_separate_disk
        return base

    def demands(self, v: np.ndarray, ns: np.ndarray, ey: np.ndarray,
                rows) -> tuple[np.ndarray, ...]:
        """Center demands per commit cycle (Eqs. 5-6).

        ``v`` is the ``(A, M, P)`` visit stack, ``ns``/``ey`` the
        ``(A, M)`` submissions and granules undone per abort, and
        ``rows`` the table rows matching ``v``'s leading axis (an index
        array, or ``slice(None)`` for a ``(1, M)`` table).  Returns the
        ``(A, M)`` CPU, database-disk and log-disk demands (ms), the
        database and log I/O counts, and the per-visit TA CPU cost,
        each summed in the scalar ``aggregate_demands`` order.
        """
        iTA, iDMIO = _PI[Phase.TA], _PI[Phase.DMIO]
        iTAIO, iTCIO = _PI[Phase.TAIO], _PI[Phase.TCIO]
        cb = self.cpu_base[rows]
        cpu_ta = cb[:, :, iTA] + self.cpu_ta_slope[rows] * ey
        undo_ios = self.ios_taio_slope[rows] * ey
        undo_ms = undo_ios * self.block_io[rows]
        split = self.log_split[rows]

        acc = v[:, :, _PI[_CPU_ORDER[0]]] * cb[:, :, _PI[_CPU_ORDER[0]]]
        # caratlint: disable=CL002 -- fixed phase summation order
        for phase in _CPU_ORDER[1:]:
            acc = acc + v[:, :, _PI[phase]] * cb[:, :, _PI[phase]]
        acc = acc + v[:, :, iTA] * cpu_ta
        cpu_ms = ns * acc

        db = self.db_base[rows]
        acc = (v[:, :, iDMIO] * db[:, :, iDMIO]
               + v[:, :, iTCIO] * db[:, :, iTCIO]
               + v[:, :, iTAIO] * np.where(split, 0.0, undo_ms))
        db_ms = ns * acc
        lg = self.lg_base[rows]
        acc = (v[:, :, iTCIO] * lg[:, :, iTCIO]
               + v[:, :, iTAIO] * np.where(split, undo_ms, 0.0))
        lg_ms = ns * acc
        dbio = self.dbio_base[rows]
        acc = (v[:, :, iDMIO] * dbio[:, :, iDMIO]
               + v[:, :, iTCIO] * dbio[:, :, iTCIO]
               + v[:, :, iTAIO] * np.where(split, 0.0, undo_ios))
        db_ios = ns * acc
        lgio = self.lgio_base[rows]
        acc = (v[:, :, iTCIO] * lgio[:, :, iTCIO]
               + v[:, :, iTAIO] * np.where(split, undo_ios, 0.0))
        return cpu_ms, db_ms, lg_ms, db_ios, ns * acc, cpu_ta


def phase_visits(table: StateTable, rows, pb: np.ndarray,
                 pd: np.ndarray, pra: np.ndarray | None = None
                 ) -> np.ndarray:
    """Visit counts per cycle of a stack of phase chains (Eq. 1).

    ``table`` supplies each state's request counts and ``q``, and
    ``rows`` picks the table rows behind the ``A`` batch rows (an
    ``(A,)`` index array, or ``slice(None)`` for a ``(1, M)`` table).
    ``pb``, ``pd`` and ``pra`` are ``(A, M)`` and clamped at 1; without
    ``pra`` no RW wait ends in a remote abort.  Returns the
    ``(A, M, P)`` visits, ``V_UT = 1``.

    The traffic equations have a closed form (docs/model.md).  With
    ``a = 1/(q+1)``, each DM entry makes ``k = 1/(a + w)`` DM visits,
    where ``w = (1-a) Pb Pd`` is the abort chance per DM visit, and
    returns to TM with probability ``a k = 1 - w k``.  A TM visit goes
    on to U, DM, RW or TC with probabilities ``n'/C``, ``l/C``,
    ``r'/C`` and ``1/C`` (``C = 2n' + 1``; ``n' = l + r`` and
    ``r' = r``, or ``n' = r' = l`` for slaves), so
    ``V_TM = C / (1 + l w k + r' Pra)``.
    """
    slave = table.slave
    loc = table.lreq[rows]
    rem = np.where(slave, loc, table.rreq[rows])
    n = np.where(slave, loc, loc + rem)
    c = 2.0 * n + 1.0
    q = table.qv[rows]
    to_tm = 1.0 / (q + 1.0)
    to_lr = q / (q + 1.0)
    pbv = np.minimum(1.0, pb)
    pdv = np.minimum(1.0, pd)
    per_lock = pbv * pdv
    k = 1.0 / (to_tm + to_lr * per_lock)
    prv = 0.0 if pra is None else np.minimum(1.0, pra)
    per_tm = 1.0 / (1.0 + loc * (to_lr * per_lock * k) + rem * prv)

    v_tm = c * per_tm
    v_dm = loc * per_tm * k
    v_lr = to_lr * v_dm
    v_lw = pbv * v_lr
    v_rw = rem * per_tm
    v = np.empty(pbv.shape + (_NPHASE,))
    v[:, :, _PI[Phase.UT]] = 1.0
    v[:, :, _PI[Phase.INIT]] = np.where(slave, 0.0, 1.0)
    v[:, :, _PI[Phase.U]] = np.where(slave, 0.0, 1.0 + n * per_tm)
    v[:, :, _PI[Phase.TM]] = v_tm
    v[:, :, _PI[Phase.DM]] = v_dm
    v[:, :, _PI[Phase.LR]] = v_lr
    v[:, :, _PI[Phase.DMIO]] = v_lr * (1.0 - per_lock)
    v[:, :, _PI[Phase.LW]] = v_lw
    v[:, :, _PI[Phase.RW]] = v_rw
    v[:, :, _COMMIT] = per_tm[:, :, None]
    v[:, :, _ABORT] = (pdv * v_lw + prv * v_rw)[:, :, None]
    v[:, :, _PI[Phase.UL]] = 1.0
    if np.any(v < -1e-9):
        raise ConfigurationError("negative visit count; not a valid "
                                 "phase chain")
    return np.maximum(0.0, v)


def locks_held(locks: np.ndarray, pa: np.ndarray, sigma: np.ndarray,
               rs: np.ndarray, think) -> np.ndarray:
    """``L_h`` per state (Eq. 14) with ``R_f = sigma * R_s``.

    ``locks`` is ``(A, M)`` or ``(1, M)``; ``pa``, ``sigma`` and the
    successful-execution response ``rs`` are ``(A, M)``; ``think`` is
    an ``(A, 1)`` column or a scalar.  States with ``rs <= 0`` hold
    no locks.
    """
    r_f = sigma * rs
    num = (1.0 - (1.0 - sigma ** 2) * pa) * rs
    den = pa * r_f + (1.0 - pa) * rs + think
    safe_den = np.where(den > 0.0, den, 1.0)
    return np.where(rs > 0.0, (locks / 2.0) * num / safe_den, 0.0)


def conflict_rates(pop: np.ndarray, lh: np.ndarray, gran: np.ndarray,
                   bf: np.ndarray, act: np.ndarray, locks: np.ndarray,
                   br: np.ndarray, can_block: np.ndarray,
                   override: np.ndarray | None = None,
                   has_override: np.ndarray | None = None
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Undamped ``Pb``, ``Pd`` and ``R_LW`` per state (Eqs. 15-20).

    ``pop`` (customers per state: a closed population or an open
    Little's-law concurrency), ``lh``, the blocked fraction ``bf`` and
    the active time ``act`` are ``(A, M)``; the effective granules
    ``gran``, ``locks`` and the blocking ratio ``br`` are ``(A, M)``
    or ``(1, M)``; ``can_block`` is the ``(M, M)`` same-site,
    conflicting-mode mask.  Rows flagged in ``has_override``
    (``(A,)``) use their ``override`` (``(A,)``) blocking ratio.

    The holder mass has the requester on axis 1 and the holder on
    axis 2, and a transaction never blocks on its own locks.
    Reductions run over holders in state order, as the scalar loops.
    """
    raw = pop[:, None, :] * lh[:, None, :]
    raw = raw - np.eye(lh.shape[-1])[None, :, :] * lh[:, None, :]
    raw = np.maximum(0.0, raw)
    mass = np.where(can_block[None, :, :], raw, 0.0)
    rowsum = _seq_sum_last(mass)
    new_pb = np.minimum(1.0, rowsum / gran)
    safe_total = np.where(rowsum > 0.0, rowsum, 1.0)
    dist = np.where(rowsum[:, :, None] > 0.0,
                    mass / safe_total[:, :, None], 0.0)

    bf_h = bf[:, None, :]
    total_h = rowsum[:, None, :]
    safe_h = np.where(total_h > 0.0, total_h, 1.0)
    share = np.minimum(1.0, lh[:, :, None] / safe_h)
    term = np.where((dist > 0.0) & (bf_h > 0.0) & (total_h > 0.0),
                    (dist * bf_h) * share, 0.0)
    new_pd = np.where(lh > 0.0,
                      np.minimum(1.0, _seq_sum_last(term)), 0.0)

    act_h = act[:, None, :]
    locks_h = locks[:, None, :]
    br_h = br[:, None, :]
    wait = np.where((dist > 0.0) & (locks_h > 0.0) & (act_h > 0.0),
                    (dist * br_h) * act_h, 0.0)
    new_rlw = _seq_sum_last(wait)
    if override is not None and has_override is not None:
        ov = override[:, None, None]
        wait_o = np.where(dist > 0.0, (dist * ov) * act_h, 0.0)
        new_rlw = np.where(has_override[:, None],
                           _seq_sum_last(wait_o), new_rlw)
    return new_pb, new_pd, new_rlw


def abort_state(locks: np.ndarray, per_lock: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray]:
    """``E[Y]`` (Eq. 11) and ``sigma = E[Y] / N_lk`` per state.

    ``locks`` is ``(A, M)`` or ``(1, M)``; ``per_lock`` is the
    ``(A, M)`` per-lock abort probability ``Pb * Pd``, clamped at 1.
    Small ``p * N_lk`` takes the uniform limit ``(N_lk - 1) / 2``;
    chains without locks get zero for both.
    """
    per_lock = np.minimum(1.0, per_lock)
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
    locks_safe = np.where(locks > 0.0, locks, 1.0)
    return ey, np.where(locks <= 0.0, 0.0, ey / locks_safe)


class StateTable:
    """What both engines derive from ``M`` ``(site, chain)`` states and
    ``R`` ``(workload, sites)`` rows: each state's site index
    ``site_of`` and the ``(M, M)`` same-site, conflicting-mode mask
    ``can_block``; per row and state (``(R, M)``), the phase ``costs``,
    ``locks``, effective granules ``gran``, I/Os per request ``qv``,
    local/remote requests ``lreq``/``rreq`` and the Eq. 19 blocking
    ratio ``br``; and the ``(M,)`` mask ``slave`` of slave chains.
    Every state's chain passes
    :func:`~repro.model.phases.check_chain`."""

    __slots__ = ("site_of", "slave", "can_block", "costs", "locks",
                 "gran", "qv", "lreq", "rreq", "br")

    def __init__(self, keys, site_names, rows):
        site_index = {name: i for i, name in enumerate(site_names)}
        self.site_of = np.array([site_index[s] for s, _ in keys])
        is_update = np.array([chain.is_update for _, chain in keys])
        self.slave = np.array([chain.is_slave for _, chain in keys])
        same_site = self.site_of[:, None] == self.site_of[None, :]
        self.can_block = same_site & (is_update[None, :]
                                      | is_update[:, None])
        shape = (len(rows), len(keys))
        self.costs = PhaseCostTable(shape)
        self.locks, self.gran, self.qv, self.lreq, self.rreq = (
            np.zeros(shape) for _ in range(5))
        for r, (workload, sites) in enumerate(rows):
            for m, (site_name, chain) in enumerate(keys):
                site = sites[site_name]
                base = self.costs.fill((r, m), site, workload, chain)
                local = workload.local_requests(chain)
                remote = workload.remote_requests(chain)
                check_chain(chain, local, remote, base.ios_per_request)
                self.locks[r, m] = base.locks
                self.gran[r, m] = locking.effective_granules(workload, site)
                self.qv[r, m] = base.ios_per_request
                self.lreq[r, m] = local
                self.rreq[r, m] = remote
        locks_safe = np.where(self.locks > 0.0, self.locks, 1.0)
        self.br = (2.0 * self.locks + 1.0) / (6.0 * locks_safe)


def iterate_rows(step, tolerance: np.ndarray, max_iterations: np.ndarray,
                 stop=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Iterate ``B`` independent fixed points until every row finishes.

    ``tolerance`` and ``max_iterations`` are ``(B,)`` per-row.
    ``step(al, iteration)`` advances the ``(A,)`` running rows ``al``
    by one damped step and returns their ``(A,)`` residual and the
    ``(A,)`` mask of rows it failed (or ``None``).  A row finishes when
    failed, converged (residual below tolerance) or out of budget, and
    the step never sees it again.  After an iteration in which rows
    finished, ``stop(iteration, finished, converged, alive)`` (indices;
    ``(B,)`` masks) returns running rows to retire there.  Returns the
    ``(B,)`` iteration counts, last residuals and convergence mask.
    """
    iterations = np.zeros(tolerance.shape, dtype=np.int64)
    residual = np.full(tolerance.shape, np.inf)
    converged = np.zeros(tolerance.shape, dtype=bool)
    alive = np.ones(tolerance.shape, dtype=bool)
    iteration = 0
    # caratlint: disable=CL002 -- damped fixed-point iteration; every
    # step is an array operation over the alive rows
    while alive.any():
        iteration += 1
        al = np.nonzero(alive)[0]
        res, failed = step(al, iteration)
        residual[al] = res
        done = res < tolerance[al]
        finished = done | (iteration >= max_iterations[al])
        if failed is not None:
            done &= ~failed
            finished |= failed
        iterations[al[finished]] = iteration
        converged[al[done]] = True
        alive[al[finished]] = False
        if stop is not None and finished.any():
            retired = stop(iteration, al[finished], converged, alive)
            iterations[retired] = iteration
            alive[retired] = False
    return iterations, residual, converged


def back_off_damping(damp: np.ndarray, omd: np.ndarray, al: np.ndarray,
                     res: np.ndarray, last_res: np.ndarray,
                     iteration: int) -> None:
    """The damping rule both engines run after each step, in place.

    From the third iteration on, each running row of ``al`` whose
    residual ``res`` did not shrink below its ``(B,)`` ``last_res``
    multiplies its ``(B, 1)`` damping ``damp`` by ``_DAMPING_BACKOFF``,
    never cutting it below ``_DAMPING_FLOOR`` (a damping that starts
    below the floor is never raised); ``omd`` keeps ``1 - damp``.
    ``last_res`` then records ``res``.
    """
    if iteration > 2:
        cut = al[res >= last_res[al]]
        d = damp[cut]
        damp[cut] = np.maximum(_DAMPING_BACKOFF * d,
                               np.minimum(d, _DAMPING_FLOOR))
        omd[cut] = 1.0 - damp[cut]
    last_res[al] = res


class _MvaGroup:
    """One stack of same-layout ``(model, site)`` pairs."""

    __slots__ = ("kinds", "delay", "chains", "pairs", "b_idx", "m_idx",
                 "exact", "pops", "pops_all", "qnames", "work")

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
        # Coefficient reads of one exact solve per network.
        self.work = exact_cost(pops.tolist(), len(self.qnames)) if exact else 0


class _BatchEngine(StateTable):
    """Run ``B`` same-layout model solves as one tensor program over
    their :class:`StateTable` (one row per model)."""

    def __init__(self, models):
        self.models = models
        head = models[0]
        self.keys = _chain_keys(head.workload)   # [(site, ChainType)] * M
        self.site_names = list(head.workload.sites)
        self.B = len(models)
        self.M = len(self.keys)
        self.S = len(self.site_names)
        self.tm_flag = head.config.model_tm_serialization
        super().__init__(self.keys, self.site_names,
                         [(model.workload, model.sites) for model in models])
        self._init_static()
        self._init_iterates()
        self._init_mva_groups()

    # ------------------------------------------------------------------
    # static setup
    # ------------------------------------------------------------------

    def _init_static(self) -> None:
        B, M = self.B, self.M
        self.chain_of = [c for _, c in self.keys]
        self.is_coord = np.array([c.is_coordinator for c in self.chain_of])
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

        wls = [model.workload for model in self.models]
        cfgs = [model.config for model in self.models]
        self.think = np.array([[wl.think_time_ms] for wl in wls], float)
        self.damp = np.array([[cfg.damping] for cfg in cfgs], float)
        self.alpha = np.array([[cfg.alpha_ms] for cfg in cfgs], float)
        self.rrf = np.array([[1.0 / max(1, len(wl.sites) - 1)]
                             for wl in wls])
        self.tol = np.array([cfg.tolerance for cfg in cfgs], float)
        self.max_it = np.array([cfg.max_iterations for cfg in cfgs],
                               dtype=np.int64)
        self.has_ov = np.array([cfg.blocking_ratio_override is not None
                                for cfg in cfgs])
        self.override = np.array([cfg.blocking_ratio_override or 0.0
                                  for cfg in cfgs], float)
        self.pop_i = np.zeros((B, M), dtype=np.int64)
        self.records_int: list[list[int]] = []
        for b, wl in enumerate(wls):
            pops = {name: wl.chain_populations(name)
                    for name in self.site_names}
            recs: list[int] = []
            for m, (site_name, chain) in enumerate(self.keys):
                self.pop_i[b, m] = pops[site_name][chain]
                records = wl.requests_per_txn * wl.records_per_request
                if chain.is_slave:
                    records = wl.records_per_txn(chain)
                recs.append(records)
            self.records_int.append(recs)
        self.commit_ms = (self.costs.cpu_base[:, :, _PI[Phase.TC]]
                          + self.costs.db_base[:, :, _PI[Phase.TCIO]]
                          + self.costs.lg_base[:, :, _PI[Phase.TCIO]])
        self.pop_f = self.pop_i.astype(np.float64)
        self.rreq_safe = np.where(self.rreq > 0.0, self.rreq, 1.0)
        self.omd = 1.0 - self.damp

    def _init_iterates(self) -> None:
        """Zero iterates (one submission per commit), overwritten by
        the fields each model's warm-start snapshot carries.

        The response seeds (``resp_s``, ``act_s``, ``cycle``, ``bf``)
        are never read before the first :meth:`_absorb` overwrites
        them; only the throughput seed feeds the first residual.
        """
        B, M = self.B, self.M
        self.it = {name: np.zeros((B, M)) for name in _WARM_ARRAY.values()}
        self.it["ns"][:] = 1.0
        for b, model in enumerate(self.models):
            warm = model._warm_start
            if not warm:
                continue
            for m, (site, chain) in enumerate(self.keys):
                seed = warm.get((site, chain.value))
                if not seed:
                    continue
                for name, arr in _WARM_ARRAY.items():
                    if name in seed:
                        self.it[arr][b, m] = float(seed[name])
        self.it["ey"], self.it["sigma"] = abort_state(
            self.locks, self.it["pb"] * self.it["pd"])
        # Rebuilt-demand arrays (persist the last rebuild per element,
        # frozen once an element converges).
        for name in ("cpu_ms", "db_ms", "lg_ms", "dbio", "lgio", "lw_d",
                     "rw_d", "cw_d", "ut_d", "tmm", "tmh", "tms_d",
                     "sol_x"):
            setattr(self, name, np.zeros((B, M)))

    def _init_mva_groups(self) -> None:
        budget_key = {}
        groups: dict[tuple, _MvaGroup] = {}
        for b, model in enumerate(self.models):
            for s, site_name in enumerate(self.site_names):
                members = self.site_members[s]
                order = sorted(members,
                               key=lambda m: self.chain_of[m].value)
                chains = tuple(self.chain_of[m].value for m in order)
                kinds = site_centers(
                    model.sites[site_name].log_on_separate_disk,
                    self.tm_flag)
                delay = tuple(k not in QUEUEING_CENTERS for k in kinds)
                pops = tuple(int(self.pop_i[b, m]) for m in order)
                exact = model.config.mva == "exact"
                key = (kinds, chains, delay, exact,
                       pops if exact else None)
                group = groups.get(key)
                if group is None:
                    group = groups[key] = _MvaGroup(
                        kinds, np.array(delay, dtype=bool), chains,
                        exact, np.array(pops, dtype=np.int64))
                group.pairs.append((b, s))
                budget_key[(b, s)] = (group, order)
        self.pair_meta = budget_key
        self.groups = list(groups.values())
        for group in self.groups:
            group.b_idx = np.array([b for b, _ in group.pairs])
            group.m_idx = np.array(
                [self.pair_meta[p][1] for p in group.pairs],
                dtype=np.int64,
            ).reshape(len(group.pairs), len(group.chains))
            group.pops_all = self.pop_i[group.b_idx[:, None], group.m_idx]
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
        v = phase_visits(self, al, self.it["pb"][al], self.it["pd"][al],
                         self.it["pra"][al])
        ey = self.it["ey"][al]
        ns = self.it["ns"][al]
        (self.cpu_ms[al], self.db_ms[al], self.lg_ms[al], self.dbio[al],
         self.lgio[al], cpu_ta) = self.costs.demands(v, ns, ey, al)

        iTM, iCWC, iCWA = _PI[Phase.TM], _PI[Phase.CWC], _PI[Phase.CWA]
        lwv = ns * v[:, :, _PI[Phase.LW]]
        rwv = ns * v[:, :, _PI[Phase.RW]]
        cwv = ns * (v[:, :, iCWC] + v[:, :, iCWA])
        self.lw_d[al] = lwv * self.it["r_lw"][al]
        self.rw_d[al] = rwv * self.it["r_rw"][al]
        self.cw_d[al] = cwv * self.it["r_cw"][al]
        self.ut_d[al] = ns * self.think[al]
        if self.tm_flag:
            iTC, iTA, iTCIO = _PI[Phase.TC], _PI[Phase.TA], _PI[Phase.TCIO]
            cb = self.costs.cpu_base[al]
            db = self.costs.db_base[al]
            lg = self.costs.lg_base[al]
            tmm = ns * (v[:, :, iTM] + v[:, :, iTC] + v[:, :, iTA])
            held_cpu = (v[:, :, iTM] * cb[:, :, iTM]
                        + v[:, :, iTC] * cb[:, :, iTC]
                        + v[:, :, iTA] * cpu_ta)
            held_force = v[:, :, iTCIO] * (db[:, :, iTCIO]
                                           + lg[:, :, iTCIO])
            self.tmm[al] = tmm
            self.tmh[al] = ns * (held_cpu + held_force)
            self.tms_d[al] = tmm * self.it["r_tms"][al]

    def _queue_seed(self, pair: tuple[int, int]) -> dict[str, float] | None:
        """The Schweitzer queues a warm-start snapshot holds for the
        ``(model, site)`` *pair*, if any."""
        warm = self.models[pair[0]]._warm_start
        if not warm:
            return None
        return warm.get((_MVA_QUEUE_SITE, self.site_names[pair[1]]))

    def _group_q0(self, group: _MvaGroup, sel: list[int],
                  stack: np.ndarray,
                  pops: np.ndarray) -> np.ndarray | None:
        """Warm-start queues for one group's selected rows, or None.

        ``stack`` is the group's ``(G, C, K)`` demand stack and
        ``pops`` its ``(G, K)`` populations; the result (when any row
        has a seed) follows the kernels' ``(G, Cq, K)`` q0 contract.
        """
        pairs = [group.pairs[i] for i in sel]
        if not any(p in self.last_q or self._queue_seed(p) for p in pairs):
            return None
        q0 = initial_queue(stack, group.delay, pops)
        for row, pair in enumerate(pairs):
            prev = self.last_q.get(pair)
            if prev is not None:
                q0[row] = prev
                continue
            seed = self._queue_seed(pair) or {}
            for ci, center in enumerate(group.qnames):
                for ki, chain in enumerate(group.chains):
                    value = seed.get(f"{center}|{chain}")
                    if value is not None:
                        q0[row, ci, ki] = value
        q0[stack[:, ~group.delay, :] <= 0.0] = 0.0
        return q0

    def _solve_mva(self, al: np.ndarray) -> None:
        """Step 2: batched per-site MVA over all alive pairs.

        ``al`` is the ``(A,)`` vector of alive batch-row indices; each
        layout group stacks its alive ``(model, site)`` pairs into one
        kernel call.
        """
        alive = np.zeros(self.B, dtype=bool)
        alive[al] = True
        self.cur_inner = np.zeros(self.B, dtype=np.int64)
        self.cur_work = np.zeros(self.B, dtype=np.int64)
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
                np.add.at(self.cur_work, bb, group.work)
            else:
                pops = group.pops_all[sel]
                result = solve_schweitzer_batch(
                    stack, group.delay, pops,
                    q0=self._group_q0(group, sel, stack, pops))
                if not result.converged.all():
                    bad = int(np.argmax(~result.converged))
                    site = self.site_names[group.pairs[sel[bad]][1]]
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
        nonslave = ~self.slave
        pa = np.where(nonslave, omd * pa + damp * new_pa, pa)
        ns = self.it["ns"][al]
        ns = np.where(nonslave, 1.0 / (1.0 - np.minimum(pa, 0.999)), ns)

        # Slaves inherit the distributed transaction's fate from the
        # (averaged) coordinators at the other sites.
        sm = self.slave & (self.partner_cnt > 0.0)
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
        new_lh = locks_held(locks, self.it["pa"][al],
                            self.it["sigma"][al], self.it["resp_s"][al],
                            self.think[al])
        lh = omd * self.it["lh"][al] + damp * new_lh
        self.it["lh"][al] = lh
        ov = (self.override[al], self.has_ov[al]) if self.has_ov.any() \
            else (None, None)
        new_pb, new_pd, new_rlw = conflict_rates(
            self.pop_f[al], lh, self.gran[al], self.it["bf"][al],
            self.it["act_s"][al], locks, self.br[al], self.can_block, *ov)
        pb = omd * self.it["pb"][al] + damp * new_pb
        pd = omd * self.it["pd"][al] + damp * new_pd
        self.it["pb"][al] = pb
        self.it["pd"][al] = pd
        self.it["r_lw"][al] = (omd * self.it["r_lw"][al]
                               + damp * new_rlw)
        self.it["ey"][al], self.it["sigma"][al] = abort_state(locks,
                                                              pb * pd)

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
        slave = self.slave & (self.partner_cnt > 0.0)
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
        last_res = np.full(self.B, np.inf)
        self.tot_inner = np.zeros(self.B, dtype=np.int64)

        def step(al: np.ndarray, iteration: int):
            """One outer iteration of the ``(A,)`` alive rows ``al``."""
            t0 = clock() if traced else 0.0
            self._rebuild(al)
            t1 = clock() if traced else 0.0
            self._solve_mva(al)
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
            if traced:
                self._record_traced(traced, al, iteration, res,
                                    before, prev_res,
                                    (t0, t1, t2, t3, t4, t5, t6, t7))
            back_off_damping(self.damp, self.omd, al, res, last_res,
                             iteration)
            return res, None

        iters, resid, converged = iterate_rows(step, self.tol, self.max_it)
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
        from repro.model.diagnostics import PHASE_NAMES, IterationRecord

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
                phase_ms={name: (end - start) * 1e3 * share
                          for name, start, end
                          in zip(PHASE_NAMES, times, times[1:])},
                mva_solves=self.S,
                mva_inner_iterations=int(self.cur_inner[b]),
                mva_coefficients=int(self.cur_work[b]),
                contraction=contraction,
                damping=float(self.damp[b, 0]),
            ))

    # ------------------------------------------------------------------
    # write-back
    # ------------------------------------------------------------------

    def _write_back(self, iters, resid) -> list[ModelSolution]:
        results: list[ModelSolution] = []
        for b, model in enumerate(self.models):
            rows = self._rows(b)
            networks = self._site_networks(b, rows)
            solutions = {
                name: assemble_solution(
                    NetworkArrays.from_network(networks[name]),
                    self.last_x[(b, s)], self.last_r[(b, s)])
                for s, name in enumerate(self.site_names)
            }
            model._last = (networks, self._snapshot(b))
            results.append(build_solution(
                model.config, rows, networks, solutions, int(iters[b]),
                float(resid[b]), model._diag))
        return results

    def _rows(self, b: int) -> list[ChainRow]:
        """Batch element *b*'s iterate as per-chain rows."""
        it = {name: arr[b].tolist() for name, arr in self.it.items()}
        demand = {kind: getattr(self, source)[b].tolist()
                  for kind, source in _ROW_SOURCE.items()}
        dbio, lgio = self.dbio[b].tolist(), self.lgio[b].tolist()
        pops, locks = self.pop_i[b].tolist(), self.locks[b].tolist()
        return [
            ChainRow(
                site=site, chain=chain, population=pops[m],
                demands={kind: col[m] for kind, col in demand.items()},
                ios_per_cycle=dbio[m] + lgio[m],
                records_per_txn=self.records_int[b][m],
                throughput_per_ms=it["xput"][m],
                cycle_response_ms=it["cycle"][m],
                n_submissions=it["ns"][m],
                abort_probability=it["pa"][m],
                locks=locks[m], pb=it["pb"][m], pd=it["pd"][m],
                locks_held=it["lh"][m], locks_at_abort=it["ey"][m],
                r_lw=it["r_lw"][m], r_rw=it["r_rw"][m],
                r_cw=it["r_cw"][m],
            )
            for m, (site, chain) in enumerate(self.keys)
        ]

    def _site_networks(self, b: int, rows: list[ChainRow]
                       ) -> dict[str, ClosedNetwork]:
        """Batch element *b*'s site networks, as its MVA step saw them."""
        return {
            name: build_site_network(
                [rows[m] for m in self.site_members[s]],
                self.pair_meta[(b, s)][0].kinds)
            for s, name in enumerate(self.site_names)
        }

    def _snapshot(self, b: int) -> WarmStart:
        """Batch element *b*'s warm-start snapshot (chain iterates,
        then the Schweitzer queues of its approximately solved
        sites)."""
        snap: WarmStart = {
            (site, chain.value): {
                name: float(self.it[arr][b, m])
                for name, arr in _WARM_ARRAY.items()}
            for m, (site, chain) in enumerate(self.keys)
        }
        for s, site in enumerate(self.site_names):
            queue = self.last_q.get((b, s))
            if queue is None:
                continue
            group = self.pair_meta[(b, s)][0]
            snap[(_MVA_QUEUE_SITE, site)] = {
                f"{center}|{chain}": float(queue[ci, ki])
                for ci, center in enumerate(group.qnames)
                for ki, chain in enumerate(group.chains)
            }
        return snap


def _chain_keys(workload: WorkloadSpec) -> list[tuple[str, ChainType]]:
    """The ``(site, chain)`` states with customers, in state order."""
    return [(site, chain) for site in workload.sites
            for chain, population in workload.chain_populations(site).items()
            if population > 0]


def _batch_key(model) -> tuple:
    return (
        tuple((site, chain.value)
              for site, chain in _chain_keys(model.workload)),
        model.workload.sites,
        model.config.model_tm_serialization,
    )


def seed_state(model) -> tuple[dict[str, ClosedNetwork], WarmStart]:
    """The site networks and snapshot of *model*'s seeded iterate.

    One demand rebuild of a one-row batch, no MVA solve: for a cold
    model the networks are the zero-conflict ones (no lock, remote or
    commit waits), for a warm-started one they carry the seeded waits.
    """
    engine = _BatchEngine([model])
    engine._rebuild(np.zeros(1, dtype=np.int64))
    return engine._site_networks(0, engine._rows(0)), engine._snapshot(0)


def solve_outer_batch(models: Sequence) -> list[ModelSolution]:
    """Solve ``B`` independent :class:`CaratModel` fixed points batched.

    Models sharing an iterate layout (same sites and active chains,
    same TM-serialization setting) are stacked into one
    :class:`_BatchEngine` tensor program; everything else — per-chain
    populations, site parameters, damping, tolerance, iteration
    budgets, warm starts, MVA mode — may vary per element.  Solutions
    come back in input order, and each model is left exactly as its own
    :meth:`~repro.model.solver.CaratModel.solve` would leave it
    (``snapshot()`` and ``site_network()`` contents, attached
    diagnostics).

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
