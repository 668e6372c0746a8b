"""Optimal-MPL and SLO search over warm-started model solves.

The searcher answers "how many users should this testbed carry?"
without sweeping every multiprogramming level:

* **mix-preserving grid** — scaling a workload's population must keep
  the mix's integer type counts, or the throughput curve grows a
  sawtooth from rounding (an MPL that drops the distributed types
  entirely conflicts less and looks spuriously fast).  The grid is the
  multiples of :func:`mix_quantum`, on which the throughput curve is
  unimodal: it rises to the contention optimum and falls into
  thrashing.
* **golden-section style search** — on a unimodal grid the optimum is
  found with ``O(log)`` full fixed-point solves instead of one per
  grid point (ternary search with memoization); the operational
  bounds of the converged network then sandwich the saturation point.
* **warm-started, memoized evaluations** — every solve seeds from the
  nearest previously converged MPL
  (:meth:`repro.model.solver.CaratModel.snapshot`) and lands in the
  content-addressed result cache, so repeated plans are nearly free.

SLO questions reduce to bisection: response time and abort
probability grow monotonically with population, so the largest
feasible MPL is a predicate boundary on the same grid.  Arrival-rate
capacity uses the open model (:mod:`repro.model.open_solver`), where
saturation is a per-row outcome of one batched solve: a doubling
ladder and a few 16-point refinement rounds replace serial doubling
and bisection.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import replace

import numpy as np

from repro.errors import ConfigurationError, ConvergenceError
from repro.model.open_solver import OpenBatch, OpenWorkload, solve_open_batch
from repro.model.parameters import SiteParameters
from repro.model.results import USER_CHAINS, ModelSolution
from repro.model.solver import CaratModel, ModelConfig, WarmStart
from repro.model.workload import WorkloadSpec
from repro.obs import metrics as obs
from repro.planner.spec import MplPoint, OptimumResult, SaturationWindow
from repro.queueing.bounds import (aggregate_mix_network,
                                   bjb_saturation_population,
                                   saturation_population)
from repro.queueing.kernels import NetworkArrays, solve_schweitzer_batch

__all__ = ["mix_quantum", "scale_to_mpl", "mpl_grid", "PlanEvaluator",
           "find_optimum", "brute_force_optimum", "prefetch_batch",
           "slo_max_mpl", "slo_max_arrival_per_s"]

#: Throughput drop (relative to the peak) that counts as thrashing.
KNEE_DROP = 0.05

#: Interior arrival rates per batched refinement round of
#: :func:`slo_max_arrival_per_s`: each round narrows the bracket 17-fold,
#: so the default 24-bisection resolution takes six rounds.
REFINE_POINTS = 16

#: Zero-conflict bottleneck utilization treated as "saturated" by the
#: grid pre-screen (just under 1.0: the Schweitzer curve approaches
#: saturation asymptotically).
ZERO_CONFLICT_SATURATION = 0.95


def _site_quantum(counts: dict) -> int:
    positive = [c for c in counts.values() if c > 0]
    if not positive:
        raise ConfigurationError(
            "cannot scale a site with no users; remove it from the "
            "workload instead")
    return sum(positive) // math.gcd(*positive, 0)


def mix_quantum(workload: WorkloadSpec) -> int:
    """Smallest per-site MPL step preserving the workload's mix.

    Per site the step is ``total / gcd(counts)``; across sites it is
    the lcm of the steps, so every multiple scales *all* sites to the
    same per-site population with exactly proportional integer type
    counts.
    """
    quantum = 1
    for counts in workload.users.values():
        quantum = math.lcm(quantum, _site_quantum(counts))
    return quantum


def scale_to_mpl(workload: WorkloadSpec, mpl: int) -> WorkloadSpec:
    """The workload scaled so every site holds *mpl* users, mix
    preserved exactly.

    *mpl* must be a multiple of :func:`mix_quantum`; anything else
    cannot keep the type proportions integral and raises
    :class:`~repro.errors.ConfigurationError`.
    """
    quantum = mix_quantum(workload)
    if mpl < 1 or mpl % quantum:
        raise ConfigurationError(
            f"MPL {mpl} does not preserve the {workload.name} mix; "
            f"use a positive multiple of {quantum}")
    users = {}
    for site, counts in workload.users.items():
        total = sum(counts.values())
        users[site] = {base: mpl * count // total
                       for base, count in counts.items() if count > 0}
    return replace(workload, users=users)


def mpl_grid(workload: WorkloadSpec, mpl_max: int) -> tuple[int, ...]:
    """Mix-preserving MPL grid up to *mpl_max* (always non-empty: the
    single quantum point when the cap is below one quantum)."""
    quantum = mix_quantum(workload)
    top = max(mpl_max, quantum)
    return tuple(range(quantum, top + 1, quantum))


def _user_measures(solution: ModelSolution):
    """Population-weighted response and abort means over user chains."""
    weight = response = aborts = 0.0
    for site in solution.sites.values():
        for chain, result in site.chains.items():
            if chain not in USER_CHAINS or result.population <= 0:
                continue
            weight += result.population
            response += result.population * result.cycle_response_ms
            aborts += result.population * result.abort_probability
    if weight <= 0:
        return 0.0, 0.0
    return response / weight, aborts / weight


class PlanEvaluator:
    """Memoized, warm-started, cached model evaluations per MPL.

    One evaluator owns one (workload mix, sites, solver kwargs)
    context.  :meth:`point` returns the converged :class:`MplPoint`
    for a grid MPL, solving at most once: repeats hit the in-process
    memo, and with ``use_cache`` the content-addressed result cache
    (:mod:`repro.experiments.cache`) serves identical evaluations
    across processes and sessions.  Fresh solves warm-start from the
    nearest already-evaluated MPL.

    ``solves`` / ``cache_hits`` / ``total_iterations`` are the perf
    counters the search strategies are judged by.
    """

    def __init__(self, workload: WorkloadSpec,
                 sites: dict[str, SiteParameters],
                 model_kwargs: dict | None = None,
                 use_cache: bool = False,
                 cache=None):
        from repro.experiments.cache import ResultCache
        self.workload = workload
        self.sites = dict(sites)
        self.model_kwargs = dict(model_kwargs or {})
        self.model_kwargs.setdefault("raise_on_nonconvergence", False)
        self.use_cache = use_cache
        self.cache = cache or (ResultCache() if use_cache else None)
        self.quantum = mix_quantum(workload)
        self.solves = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self.total_iterations = 0
        self._entries: dict[int, dict] = {}

    def _hit(self, mpl: int, cached: dict) -> dict:
        """Record one result-cache hit (memo + counters + obs)."""
        self.cache_hits += 1
        self._entries[mpl] = cached
        obs.add("planner.cache_hits")
        obs.add("planner.evaluations")
        return cached

    def absorb_counters(self, solves: int = 0, cache_hits: int = 0,
                        cache_misses: int = 0,
                        total_iterations: int = 0) -> None:
        """Fold another evaluator's perf counters into this one.

        The what-if engine evaluates candidates on evaluators of their
        own — possibly in worker processes — and ships the counters
        back here so a plan's totals cover every solve it caused
        instead of silently dropping the fan-out's share at join.
        """
        self.solves += solves
        self.cache_hits += cache_hits
        self.cache_misses += cache_misses
        self.total_iterations += total_iterations

    # ---- evaluation ----------------------------------------------------

    def _digest(self, scaled: WorkloadSpec) -> str:
        from repro.experiments.cache import payload_digest
        return payload_digest("plan-eval", {
            "workload": scaled,
            "sites": self.sites,
            "model_kwargs": self.model_kwargs,
        })

    def _nearest_snapshot(self, mpl: int) -> WarmStart | None:
        solved = [m for m, e in self._entries.items()
                  if e.get("snapshot") is not None]
        if not solved:
            return None
        nearest = min(solved, key=lambda m: abs(m - mpl))
        return self._entries[nearest]["snapshot"]

    def _lookup(self, mpl: int) -> dict | tuple[WorkloadSpec, str | None]:
        """The memoized or cached entry of *mpl*; on a miss, the scaled
        workload and cache digest its solve needs."""
        entry = self._entries.get(mpl)
        if entry is not None:
            return entry
        scaled = scale_to_mpl(self.workload, mpl)
        digest = self._digest(scaled) if self.use_cache else None
        if digest is not None:
            cached = self.cache.get(digest)
            if cached is not None:
                return self._hit(mpl, cached)
        return scaled, digest

    def _model(self, scaled: WorkloadSpec,
               warm_start: WarmStart | None = None) -> CaratModel:
        return CaratModel(ModelConfig(workload=scaled, sites=self.sites,
                                      **self.model_kwargs),
                          warm_start=warm_start)

    def _entry(self, mpl: int) -> dict:
        found = self._lookup(mpl)
        if isinstance(found, dict):
            return found
        scaled, digest = found
        model = self._model(scaled, self._nearest_snapshot(mpl))
        return self._finish_entry(mpl, scaled, digest, model,
                                  model.solve())

    def _finish_entry(self, mpl: int, scaled: WorkloadSpec,
                      digest: str | None, model: CaratModel,
                      solution: ModelSolution) -> dict:
        """Memoize (and cache) one solved MPL's entry dict."""
        self.solves += 1
        self.total_iterations += solution.iterations
        if digest is not None:
            self.cache_misses += 1
        obs.add("planner.solves")
        obs.add("planner.evaluations")
        obs.add("planner.iterations", float(solution.iterations))
        response_ms, abort_probability = _user_measures(solution)
        point = MplPoint(
            mpl=mpl,
            site_populations={
                name: sum(scaled.chain_populations(name).values())
                for name in scaled.sites},
            throughput_per_s=solution.total_throughput_per_s(),
            response_ms=response_ms,
            abort_probability=abort_probability,
            converged=solution.converged,
        )
        windows = tuple(
            self._window(model, name, point.site_populations[name])
            for name in scaled.sites)
        entry = {"point": point, "solution": solution,
                 "windows": windows, "snapshot": model.snapshot()}
        self._entries[mpl] = entry
        if digest is not None:
            self.cache.put(digest, entry)
        return entry

    def prefetch(self, mpls) -> None:
        """Solve a set of grid MPLs as one batched tensor program
        (:func:`prefetch_batch` over this evaluator's pairs)."""
        prefetch_batch((self, mpl) for mpl in sorted(set(mpls)))

    @staticmethod
    def _window(model: CaratModel, site: str,
                population: int) -> SaturationWindow:
        """Saturation sandwich of the site's *converged* network.

        After :meth:`~repro.model.solver.CaratModel.solve` the site
        network carries the fixed point's lock/remote/commit waits as
        delay demands, so the operational bounds apply to the
        contention-laden system the users actually see — the
        zero-conflict window badly underestimates the optimum when
        the disk saturates before lock thrashing sets in.
        """
        network = model.site_network(site)
        aggregate = aggregate_mix_network(network)
        lower = saturation_population(aggregate, "mix")
        upper = bjb_saturation_population(aggregate, "mix")
        binding = "bottleneck" if population >= lower else "population"
        return SaturationWindow(site=site, population=population,
                                lower=lower, upper=upper,
                                binding=binding)

    def zero_conflict_curve(self, grid: tuple[int, ...]
                            ) -> dict[int, float]:
        """Zero-conflict bottleneck utilization per grid MPL.

        Right after construction the model's site networks carry no
        lock, remote or commit waits, and their demands do not depend
        on the population — so the whole MPL grid differs only in its
        population vectors.  That is exactly the shape
        :func:`repro.queueing.kernels.solve_schweitzer_batch` stacks:
        the curve costs one batched kernel call per site instead of
        one network solve per (site, MPL) pair.

        Returns ``{mpl: max over sites and queueing centers of the
        zero-conflict utilization}`` — the cheap pre-screen
        :func:`find_optimum` floors its search grid with.  Grid MPLs
        must be multiples of the evaluator's quantum.
        """
        scaled = scale_to_mpl(self.workload, self.quantum)
        model = self._model(scaled)
        utilization = dict.fromkeys(grid, 0.0)
        factors = np.array([m // self.quantum for m in grid],
                           dtype=np.int64)
        for name in scaled.sites:
            arrays = NetworkArrays.from_network(model.site_network(name))
            if not arrays.chains:
                continue
            pops = arrays.populations[None, :] * factors[:, None]
            demands = np.broadcast_to(
                arrays.demands, (len(grid),) + arrays.demands.shape)
            result = solve_schweitzer_batch(demands, arrays.delay, pops)
            queueing_demands = arrays.demands[~arrays.delay, :]
            for i, m in enumerate(grid):
                util = (result.throughput[i][None, :]
                        * queueing_demands).sum(axis=1)
                top = float(util.max()) if util.size else 0.0
                utilization[m] = max(utilization[m], top)
        return utilization

    def point(self, mpl: int) -> MplPoint:
        """Converged measures at *mpl* (solved at most once)."""
        return self._entry(mpl)["point"]

    def solution(self, mpl: int) -> ModelSolution:
        """Full model solution at *mpl*."""
        return self._entry(mpl)["solution"]

    def windows(self, mpl: int) -> tuple[SaturationWindow, ...]:
        """Per-site converged-network saturation windows at *mpl*."""
        return self._entry(mpl)["windows"]

    def evaluated(self) -> tuple[int, ...]:
        """MPLs evaluated so far, ascending."""
        return tuple(sorted(self._entries))


def _throughput(evaluator: PlanEvaluator, mpl: int) -> float:
    return evaluator.point(mpl).throughput_per_s


def _ternary_argmax(f, grid: tuple[int, ...]) -> int:
    """Index of the maximum of a unimodal *f* over *grid*.

    Discrete ternary search: each round evaluates (at most) two
    interior points and discards a third of the interval, so the
    number of *distinct* evaluations is ``O(log |grid|)`` — the whole
    reason the planner beats a brute-force sweep.  Memoization in the
    evaluator makes repeated probes free.
    """
    lo, hi = 0, len(grid) - 1
    while hi - lo > 2:
        third = (hi - lo) // 3
        m1, m2 = lo + third, hi - third
        if m1 == m2:
            m2 += 1
        if f(grid[m1]) < f(grid[m2]):
            lo = m1 + 1
        else:
            hi = m2 - 1
    return max(range(lo, hi + 1), key=lambda i: f(grid[i]))


def _find_knee(evaluator: PlanEvaluator, optimum_mpl: int) -> int | None:
    """Smallest *evaluated* MPL past the optimum that fell >5% below
    the peak — evidence the curve has tipped into thrashing."""
    peak = evaluator.point(optimum_mpl).throughput_per_s
    for mpl in evaluator.evaluated():
        if (mpl > optimum_mpl
                and evaluator.point(mpl).throughput_per_s
                < (1.0 - KNEE_DROP) * peak):
            return mpl
    return None


def _optimum_result(evaluator: PlanEvaluator, grid: tuple[int, ...],
                    best: int) -> OptimumResult:
    return OptimumResult(
        point=evaluator.point(best),
        grid=grid,
        windows=evaluator.windows(best),
        knee_mpl=_find_knee(evaluator, best),
        evaluations=len(evaluator.evaluated()),
        solves=evaluator.solves,
        cache_hits=evaluator.cache_hits,
        total_iterations=evaluator.total_iterations,
        cache_misses=evaluator.cache_misses,
    )


def find_optimum(evaluator: PlanEvaluator,
                 mpl_max: int) -> OptimumResult:
    """Throughput-optimal MPL by ternary search on the quantum grid.

    Before any full solve, the *zero-conflict* saturation population
    of the smallest mix seeds the search: the contention optimum can
    never lie below the point where the physical bottleneck saturates
    without any lock conflict, so grid points strictly below it need
    no evaluation when the grid is long enough to spare them.
    """
    grid = mpl_grid(evaluator.workload, mpl_max)
    if len(grid) > 3:
        floor = _zero_conflict_floor(evaluator, grid)
        if floor is not None:
            # Keep one pre-floor point so the bracket still sees the
            # rising edge of the curve.
            start = max(0, sum(1 for m in grid if m < floor) - 1)
            if len(grid) - start >= 3:
                grid_searched = grid[start:]
            else:
                grid_searched = grid
        else:
            grid_searched = grid
    else:
        grid_searched = grid
    best = grid_searched[
        _ternary_argmax(lambda m: _throughput(evaluator, m),
                        grid_searched)]
    return _optimum_result(evaluator, grid, best)


def _zero_conflict_floor(evaluator: PlanEvaluator,
                         grid: tuple[int, ...]) -> float | None:
    """Per-site MPL at which the mix saturates its physical bottleneck
    *ignoring all contention* — a cheap lower bound on the optimum
    computed without any fixed-point solve.

    Prefers the batched zero-conflict curve
    (:meth:`PlanEvaluator.zero_conflict_curve`): the first grid MPL
    whose bottleneck utilization reaches
    :data:`ZERO_CONFLICT_SATURATION`.  That point precedes the exact
    saturation population, so the floor it yields trims the search
    grid no harder than the analytic bound.  When no grid point gets
    that close to saturation (or the curve is unavailable), falls
    back to the analytic asymptote of the aggregated mix network.
    """
    with contextlib.suppress(ConfigurationError, ConvergenceError):
        curve = evaluator.zero_conflict_curve(grid)
        for m in grid:
            if curve[m] >= ZERO_CONFLICT_SATURATION:
                return float(m)
    scaled = scale_to_mpl(evaluator.workload, evaluator.quantum)
    try:
        model = evaluator._model(scaled)
        floors = []
        for name in scaled.sites:
            network = model.site_network(name)
            aggregate = aggregate_mix_network(network)
            n_star = saturation_population(aggregate, "mix")
            site_pop = sum(network.populations.values())
            # Convert site-network customers to per-site user MPL.
            floors.append(n_star * evaluator.quantum / site_pop)
        return min(floors)
    except ConfigurationError:
        return None


def brute_force_optimum(evaluator: PlanEvaluator,
                        mpl_max: int) -> OptimumResult:
    """Reference search: evaluate *every* grid point.

    Exists to validate :func:`find_optimum` (same optimum to within
    one grid step, strictly more solves) and for plotting the full
    curve.  The grid is prefetched as one batched tensor program
    (:meth:`PlanEvaluator.prefetch`) before being scanned.
    """
    grid = mpl_grid(evaluator.workload, mpl_max)
    evaluator.prefetch(grid)
    best = max(grid, key=lambda m: _throughput(evaluator, m))
    return _optimum_result(evaluator, grid, best)


def prefetch_batch(pairs) -> None:
    """Solve distinct ``(evaluator, mpl)`` pairs as one batched program.

    Memoized and cached pairs are served first; every remaining pair
    is an independent cold solve, so they run through
    :func:`repro.model.outer.solve_outer_batch` in lockstep with
    per-element convergence masking and land in their evaluator's memo
    (and the result cache) exactly as sequential evaluations would.
    A grid scan (:meth:`PlanEvaluator.prefetch`,
    :func:`brute_force_optimum`, ``repro plan --curve``) batches one
    evaluator's MPLs; the what-if engine batches one MPL across the
    evaluators of its hardware candidates.
    """
    from repro.model.outer import solve_outer_batch

    todo = []
    for ev, mpl in pairs:
        found = ev._lookup(mpl)
        if not isinstance(found, dict):
            scaled, digest = found
            todo.append((ev, mpl, scaled, digest, ev._model(scaled)))
    if not todo:
        return
    solutions = solve_outer_batch([item[-1] for item in todo])
    for (ev, mpl, scaled, digest, model), solution in zip(todo,
                                                          solutions):
        ev._finish_entry(mpl, scaled, digest, model, solution)


def slo_max_mpl(evaluator: PlanEvaluator, grid: tuple[int, ...],
                predicate) -> tuple[int | None, MplPoint | None]:
    """Largest grid MPL whose point satisfies *predicate*.

    Assumes the predicate is monotone (true at low MPL, false past
    some boundary) — which holds for response-time and abort-rate
    targets, both nondecreasing in population — and bisects, so only
    ``O(log |grid|)`` points are solved.  The upper end of the bracket
    starts past the grid, so the top MPL is solved only when every
    lower probe was feasible.  That pays off when the boundary lies
    below the top, where exact-MVA solves cost the most; when every MPL
    meets the target it takes about ``log2 |grid|`` probes up the grid
    instead of one top probe, and only the probes the memo has not
    already solved cost anything.
    """
    if not predicate(evaluator.point(grid[0])):
        return None, None
    # invariant: lo feasible; hi infeasible or past the end
    lo, hi = 0, len(grid)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if predicate(evaluator.point(grid[mid])):
            lo = mid
        else:
            hi = mid
    return grid[lo], evaluator.point(grid[lo])


def slo_max_arrival_per_s(
    workload: WorkloadSpec,
    sites: dict[str, SiteParameters],
    response_target_ms: float,
    max_doublings: int = 24,
    bisections: int = 24,
) -> float | None:
    """Highest total user arrival rate (transactions/s, all sites)
    meeting a mean-response target, via the open model.

    Arrival rates keep the closed mix's proportions.  One batched open
    solve evaluates the whole doubling ladder ``1e-3 * 2**k`` per-user
    transactions/s, ``k = 0 .. max_doublings``; its first infeasible
    rung (saturated, or the target broken) brackets the capacity
    exactly as serial doubling would.  Refinement rounds then split
    the bracket at :data:`REFINE_POINTS` interior rates per batched
    solve until it is no wider than ``2**-bisections`` of its first
    width.  Every batch carries the target, so its rows above the first
    miss retire instead of running to their own outcome (see
    :func:`~repro.model.open_solver.solve_open_batch`); the bracket only
    reads rows up to that miss.  Each round starts from the final
    iterate of the bracket's low end (``seed``): the ladder's last
    feasible rung, then the row that last became the low end.  Returns
    ``None`` when even the first rung misses the target (the target is
    below the no-contention response time), and the ladder top when no
    rung breaks it.

    Raises
    ------
    ConvergenceError
        If a batch's first miss is a row that ran out of iterations
        with its mean response still within the target: the search
        cannot tell whether that rate is feasible.
    """
    counts = {site: {base: float(count)
                     for base, count in bases.items() if count > 0}
              for site, bases in workload.users.items()}
    total_users = sum(sum(bases.values()) for bases in counts.values())

    def solve(per_user_rates: np.ndarray,
              seed: dict[str, np.ndarray] | None = None
              ) -> tuple[np.ndarray, OpenBatch]:
        """The rows that meet the target, and their batch."""
        batch = solve_open_batch(
            OpenWorkload(template=workload, arrivals_per_s=counts),
            sites, per_user_rates,
            response_target_ms=response_target_ms, seed=seed)
        ok = batch.meets_target(response_target_ms)
        first = int(np.argmin(ok))
        error = batch.errors[first]
        if (isinstance(error, ConvergenceError)
                and batch.mean_response_ms[first] <= response_target_ms):
            raise ConvergenceError(
                f"open model did not converge at "
                f"{per_user_rates[first] * total_users:.6g} tx/s, within the "
                f"{response_target_ms} ms target so far",
                iterations=error.iterations, residual=error.residual)
        return ok, batch

    ladder = 1e-3 * 2.0 ** np.arange(max(0, max_doublings) + 1)
    try:
        ok, batch = solve(ladder)
    except ConfigurationError:
        # No traffic or no valid phase chain: no rate is feasible.
        return None
    if not ok[0]:
        return None
    if ok.all():
        return float(ladder[-1]) * total_users
    top = int(np.argmin(ok))
    lo, hi = float(ladder[top - 1]), float(ladder[top])
    seed = batch.seed(top - 1)
    rounds = 0
    while (REFINE_POINTS + 1) ** rounds < 2 ** bisections:
        rounds += 1
    steps = np.arange(1, REFINE_POINTS + 1) / (REFINE_POINTS + 1)
    for _ in range(rounds):
        grid = lo + (hi - lo) * steps
        ok, batch = solve(grid, seed)
        if ok.all():
            lo, seed = float(grid[-1]), batch.seed(len(grid) - 1)
            continue
        first = int(np.argmin(ok))
        hi = float(grid[first])
        if first:
            lo, seed = float(grid[first - 1]), batch.seed(first - 1)
    return lo * total_users
