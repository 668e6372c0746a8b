"""Iterative fixed-point solution of the distributed model (paper §6).

The service demands of the LW, RW and CW delay centers depend on the
model's own performance measures, so the full model is solved by damped
successive substitution (paper §6):

1. from the current conflict estimates, derive each chain's visit
   counts (Eq. 1) and center demands;
2. solve each site's closed multi-chain network with MVA;
3. refresh the lock model (``L_h``, ``Pb``, ``Pd``), the remote-wait
   and 2PC delays and the abort probabilities from the new solution;
4. repeat until chain throughputs stabilize.

One module owns each form of that iteration.  The batched tensor
engine in :mod:`repro.model.outer` owns the iterate: it builds it from
the workload, the sites and an optional warm start, runs it, and builds
the results.  :class:`CaratModel` here holds only the configuration,
the warm start it was given and what its last solve left behind (the
:meth:`~CaratModel.snapshot` and the site networks).  This module also
holds the builders both forms share: :func:`build_site_network` and
:func:`build_solution` turn per-chain :class:`ChainRow` records into
the site networks and the :class:`ModelSolution`.  The scalar per-chain
form lives only in :mod:`repro.model.solver_reference`, the oracle the
engine is tested against.

As in the paper, the TM serialization delay is ignored (§5.5) and the
communication delay ``alpha`` defaults to zero (§6).
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

from repro.errors import ConfigurationError
from repro.model import locking
from repro.model.diagnostics import ConvergenceTrace
from repro.model.parameters import SiteParameters
from repro.model.results import ChainResult, ModelSolution, SiteResult
from repro.model.types import ChainType
from repro.model.workload import WorkloadSpec
from repro.queueing.centers import CenterKind, ServiceCenter
from repro.queueing.network import ClosedNetwork, NetworkSolution

__all__ = ["ModelConfig", "CaratModel", "solve_model", "WarmStart",
           "ChainRow", "build_site_network", "build_solution",
           "site_centers"]

#: Iterate fields carried by a warm-start snapshot.  Everything that is
#: a *solution* of the fixed point (conflict estimates, delay-center
#: times, performance measures) transfers between nearby sweep points;
#: structural quantities (populations, ``q``, lock counts, demands) are
#: always rebuilt from the new workload.
_WARM_FIELDS = (
    "pb", "pd", "pra", "abort_prob", "n_submissions",
    "r_lw", "r_rw", "r_cw", "r_tms",
    "locks_held", "blocked_fraction",
    "response_success_ms", "active_success_ms", "cycle_response_ms",
    "throughput_per_ms",
)

#: A converged-iterate snapshot: ``{(site, chain value): {field: value}}``.
WarmStart = dict[tuple[str, str], dict[str, float]]

#: Pseudo-site tag under which :meth:`CaratModel.snapshot` carries the
#: per-site Schweitzer queue iterates (``{(tag, site): {"center|chain":
#: queue length}}``).  Chain *values* can never equal the tag, so these
#: entries are invisible to the per-chain warm-start lookup.
_MVA_QUEUE_SITE = "__mva_queue__"

#: Damping backoff of the §6 fixed point: from the third iteration on,
#: a solve whose residual did not shrink multiplies its damping by
#: ``_DAMPING_BACKOFF``, never cutting it below ``_DAMPING_FLOOR`` (a
#: damping that starts below the floor is never raised).
_DAMPING_BACKOFF = 0.9
_DAMPING_FLOOR = 0.3


@dataclass(frozen=True)
class ModelConfig:
    """Configuration of one model solution run.

    Parameters
    ----------
    workload:
        The workload specification (users, transaction size).
    sites:
        Per-site parameters; must cover every workload site.
    alpha_ms:
        One-way inter-site communication delay (paper: ~0 for the
        two-node Ethernet); finite and non-negative.
    mva:
        ``"exact"`` (the default, exact at every population up to
        :data:`~repro.queueing.kernels.MAX_EXACT_COST`) or
        ``"approx"`` (Schweitzer–Bard, kept for the ``abl-mva``
        ablation).
    damping:
        Starting weight of the freshly computed iterate in the damped
        update.  From the third iteration on, each iteration whose
        residual is not below the previous one multiplies the damping
        by 0.9, down to a floor of 0.3; a start below the floor is
        never raised.
    tolerance:
        Convergence threshold on the max relative throughput change.
    max_iterations:
        Iteration budget; exceeding it raises
        :class:`~repro.errors.ConvergenceError` unless
        ``raise_on_nonconvergence`` is False.
    blocking_ratio_override:
        When set, replaces the ``(2N+1)/(6N)`` blocking ratio of Eq. 19
        (used by the sensitivity ablation); a fraction in [0, 1].
    model_tm_serialization:
        The paper *ignores* the TM server's serialization delay (§5.5)
        and attributes its model-over-measurement bias at small n to
        that choice (§6).  When True, we model it with the surrogate-
        delay decomposition the paper cites ([JACO83]): the TM is
        treated as an M/G/1-like token whose per-message waiting time
        — driven by the aggregate TM message rate and the message
        service time (CPU burst plus any synchronous log force) — is
        added as a delay-center demand per TM visit.
    """

    workload: WorkloadSpec
    sites: dict[str, SiteParameters]
    alpha_ms: float = 0.0
    mva: str = "exact"
    damping: float = 0.8
    tolerance: float = 1e-6
    max_iterations: int = 400
    raise_on_nonconvergence: bool = True
    blocking_ratio_override: float | None = None
    model_tm_serialization: bool = False

    def __post_init__(self) -> None:
        missing = [s for s in self.workload.sites if s not in self.sites]
        if missing:
            raise ConfigurationError(f"no parameters for sites {missing}")
        if self.mva not in ("exact", "approx"):
            raise ConfigurationError(f"unknown mva mode {self.mva!r}")
        if not 0.0 < self.damping <= 1.0:
            raise ConfigurationError("damping must be in (0, 1]")
        if self.max_iterations < 1:
            raise ConfigurationError(
                f"max_iterations must be >= 1, got {self.max_iterations}")
        if not self.tolerance > 0.0:
            raise ConfigurationError(
                f"tolerance must be positive, got {self.tolerance}")
        if not (math.isfinite(self.alpha_ms) and self.alpha_ms >= 0.0):
            raise ConfigurationError(
                f"alpha_ms must be finite and >= 0, got {self.alpha_ms}")
        ratio = self.blocking_ratio_override
        if ratio is not None and not (math.isfinite(ratio)
                                      and 0.0 <= ratio <= 1.0):
            raise ConfigurationError(
                f"blocking_ratio_override must be in [0, 1], got {ratio}")


class ChainRow(NamedTuple):
    """One ``(site, chain)`` state of an iterate, in plain floats.

    The batched engine and the scalar oracle each reduce their
    iterate to these rows; :func:`build_site_network` and
    :func:`build_solution` turn rows into the site networks and the
    :class:`ModelSolution`, so both paths share one builder.
    """

    site: str
    chain: ChainType
    population: int
    #: Demand per commit cycle (ms), keyed by every center name of
    #: :data:`SITE_CENTERS` ("logdisk" and "tms" included).
    demands: dict[str, float]
    ios_per_cycle: float
    records_per_txn: float
    throughput_per_ms: float
    cycle_response_ms: float
    n_submissions: float
    abort_probability: float
    locks: float
    pb: float
    pd: float
    locks_held: float
    locks_at_abort: float
    r_lw: float
    r_rw: float
    r_cw: float


#: Every center a site network can hold, in paper Figure 2 order; the
#: first three are queueing centers, the rest delay centers.
SITE_CENTERS = ("cpu", "disk", "logdisk", "lw", "rw", "cw", "ut", "tms")
QUEUEING_CENTERS = frozenset(SITE_CENTERS[:3])


def site_centers(log_on_separate_disk: bool,
                 tm_serialization: bool) -> tuple[str, ...]:
    """The center names of one site's network, in network order."""
    return tuple(
        name for name in SITE_CENTERS
        if (name != "logdisk" or log_on_separate_disk)
        and (name != "tms" or tm_serialization))


def build_site_network(rows: Sequence[ChainRow],
                       centers: tuple[str, ...]) -> ClosedNetwork:
    """Assemble one site's closed network (paper Figure 2) from its
    chain rows; *centers* comes from :func:`site_centers`."""
    return ClosedNetwork(
        centers=tuple(
            ServiceCenter(name,
                          CenterKind.QUEUEING if name in QUEUEING_CENTERS
                          else CenterKind.DELAY,
                          {row.chain.value: row.demands[name]
                           for row in rows})
            for name in centers),
        populations={row.chain.value: row.population for row in rows})


def build_solution(config: ModelConfig, rows: Sequence[ChainRow],
                   networks: dict[str, ClosedNetwork],
                   solutions: dict[str, NetworkSolution],
                   iterations: int, residual: float,
                   trace: ConvergenceTrace | None = None) -> ModelSolution:
    """The :class:`ModelSolution` of a finished iterate.

    *rows* are the iterate's ``(site, chain)`` rows in state order,
    *networks* and *solutions* the per-site networks and their MVA
    solutions from the final iteration.
    """
    sites: dict[str, SiteResult] = {}
    for name in config.workload.sites:
        sol = solutions[name]
        center_names = [c.name for c in networks[name].centers]
        chains: dict[ChainType, ChainResult] = {}
        for row in rows:
            if row.site != name:
                continue
            chain = row.chain
            lock_state = locking.LockModelState(
                chain=chain, locks=row.locks, blocking=row.pb,
                deadlock_victim=row.pd,
                lock_wait_probability=locking.lock_wait_probability(
                    row.pb, row.locks),
                locks_held=row.locks_held,
                locks_at_abort=row.locks_at_abort,
                abort_probability=row.abort_probability,
                lock_wait_ms=row.r_lw,
            )
            chains[chain] = ChainResult(
                chain=chain, site=name, population=row.population,
                throughput_per_s=row.throughput_per_ms * 1e3,
                cycle_response_ms=row.cycle_response_ms,
                n_submissions=row.n_submissions,
                abort_probability=row.abort_probability,
                lock_state=lock_state,
                cpu_demand_ms=row.demands["cpu"],
                disk_demand_ms=row.demands["disk"],
                log_disk_demand_ms=row.demands["logdisk"],
                ios_per_cycle=row.ios_per_cycle,
                lock_wait_ms=row.r_lw,
                remote_wait_ms=row.r_rw,
                commit_wait_ms=row.r_cw,
                records_per_txn=row.records_per_txn,
                residence_ms={
                    center: sol.chain_residence(center, chain.value)
                    for center in center_names
                },
            )
        sites[name] = SiteResult(
            site=name,
            chains=chains,
            cpu_utilization=sol.center_utilization("cpu"),
            disk_utilization=sol.center_utilization("disk"),
            log_disk_utilization=(
                sol.center_utilization("logdisk")
                if "logdisk" in center_names else 0.0),
        )
    return ModelSolution(
        workload_name=config.workload.name,
        requests_per_txn=config.workload.requests_per_txn,
        sites=sites,
        iterations=iterations,
        residual=residual,
        converged=residual < config.tolerance,
        trace=trace,
    )


class CaratModel:
    """The distributed CARAT queueing network model.

    ``warm_start`` optionally seeds the fixed-point iterates from the
    converged state of a *nearby* solve (see :meth:`snapshot`) — e.g.
    the previous transaction size of a sweep — which typically cuts the
    iteration count substantially without changing the fixed point the
    damped substitution converges to.

    ``diagnostics`` optionally attaches a
    :class:`~repro.model.diagnostics.ConvergenceTrace` that records a
    per-iteration convergence report during :meth:`solve`.  Detached
    (the default), the iteration hot path is identical to the
    uninstrumented solver: no timing calls, no extra allocation.

    The model holds no iterate of its own: the batched engine
    (:mod:`repro.model.outer`) builds the iterate from the workload,
    the sites and the warm start, and leaves behind only the
    :meth:`snapshot` and the per-site networks of :meth:`site_network`.
    """

    def __init__(self, config: ModelConfig,
                 warm_start: WarmStart | None = None,
                 diagnostics: ConvergenceTrace | None = None):
        self.config = config
        self.workload = config.workload
        self.sites = {name: config.sites[name]
                      for name in self.workload.sites}
        self._warm_start = warm_start
        self._diag = diagnostics
        # What the engine left behind: the per-site networks and the
        # snapshot of the last solve.
        self._last: tuple[dict[str, ClosedNetwork], WarmStart] | None = None

    def _last_state(self) -> tuple[dict[str, ClosedNetwork], WarmStart]:
        """The last solve's networks and snapshot; before any solve,
        those of the seeded iterate a solve would start from."""
        if self._last is None:
            from repro.model.outer import seed_state

            self._last = seed_state(self)
        return self._last

    def snapshot(self) -> WarmStart:
        """Current iterate values, for warm-starting a nearby solve.

        Besides the per-chain iterate fields, the snapshot carries the
        inner Schweitzer queue iterates of any approximately solved
        sites (under the :data:`_MVA_QUEUE_SITE` pseudo-site tag), so a
        warm-started nearby solve seeds the inner MVA fixed point too,
        not just the outer contention loop.  Before :meth:`solve` it
        holds the seeded iterates a solve would start from.
        """
        return self._last_state()[1]

    def site_network(self, site_name: str) -> ClosedNetwork:
        """The site's closed network built from the current iterates.

        Right after construction this is the *zero-conflict* network
        (no lock waits, no remote waits, no aborts) — the cheap
        operational-bounds input the capacity planner pre-screens with.
        After :meth:`solve` it is the network the last iteration
        solved, so the contention delays appear as delay-center demands
        and the classic product-form bounds apply to the fixed point
        itself.
        """
        if site_name not in self.sites:
            raise ConfigurationError(
                f"unknown site {site_name!r}; workload sites are "
                f"{list(self.sites)}")
        return self._last_state()[0][site_name]

    def solve(self) -> ModelSolution:
        """Run the fixed-point iteration to convergence.

        The iteration runs on the tensorized outer engine
        (:mod:`repro.model.outer`) as a batch of one: every phase —
        demand rebuild, batched site MVA, lock/abort/remote updates —
        is an array operation over the ``(site, chain)`` states, and a
        solve sharing an engine with other grid points converges to
        bit-identical iterates (the engine's operations are
        row-independent).  The scalar form of the same iteration is
        :class:`~repro.model.solver_reference.ReferenceCaratModel`, the
        oracle the equivalence tests pin this path against.
        """
        from repro.model.outer import solve_outer_batch

        return solve_outer_batch([self])[0]


def solve_model(workload: WorkloadSpec, sites: dict[str, SiteParameters],
                warm_start: WarmStart | None = None,
                diagnostics: ConvergenceTrace | None = None,
                **kwargs) -> ModelSolution:
    """Convenience one-call API: configure and solve the model."""
    return CaratModel(ModelConfig(workload=workload, sites=sites,
                                  **kwargs),
                      warm_start=warm_start,
                      diagnostics=diagnostics).solve()
