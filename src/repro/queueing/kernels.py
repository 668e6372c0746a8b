"""Vectorized NumPy kernels for closed multi-chain MVA.

A :class:`ClosedNetwork` is a dict-of-tuples structure that is
convenient to build but slow to iterate; the solver hot path (the
model's per-site solves, the planner's MPL grids, the sensitivity
sweeps) spends most of its time in those loops.  This module is the
array back end: a network becomes a dense ``(centers x chains)``
demand matrix plus a delay mask and a population vector
(:class:`NetworkArrays`), and both MVA algorithms run as whole-matrix
NumPy operations:

* :func:`solve_exact_batch` computes exact MVA from the product form's
  normalizing constant, written as a polynomial in the queueing
  centers (the multi-chain form of the Buzen convolution; RECAL,
  Conway and Georganas 1986, solves the same regime).  Each chain's
  delay rows merge into one ``Z_r``.  For every chain ``r`` with
  customers, the coefficients of
  ``prod_s (Z_s + sum_i D_is x_i)^(N_s - [s = r])``, with ``k!``
  folded in as the factors multiply, weight the queue-length vectors
  ``k`` of the network one chain-``r`` customer short, so their
  ``k_i``-weighted mean is ``Q_i(N - e_r)``; one MVA step then gives
  ``R_ir = D_ir (1 + Q_i(N - e_r))`` and ``X_r = N_r / (Z_r + sum_i
  R_ir)``.  Every term is positive, so nothing cancels, and the
  coefficients are rescaled every few steps, so nothing overflows.
  The cost is polynomial in the total population for a fixed number
  of queueing centers (:func:`exact_cost`, capped by
  :data:`MAX_EXACT_COST`), where the classic recursion walks the
  whole population lattice ``prod_r (N_r + 1)``; that recursion is
  kept as the test oracle ``tests/oracles/lattice_mva.py``.  The
  monomial layout and the step schedule are cached per population
  vector, so the fixed point's repeated solves pay the setup once.
* :func:`solve_schweitzer_batch` iterates the Schweitzer-Bard fixed
  point as damped whole-tensor updates over a ``(batch, centers,
  chains)`` stack.  A batch element is one network: an MPL-grid point,
  a what-if candidate, or one site of the model — so an entire grid
  solves in one call instead of one Python loop per point.

The dict-based API (:func:`repro.queueing.mva_exact.solve_mva_exact`,
:func:`repro.queueing.mva_approx.solve_mva_approx`) is a thin adapter
over these kernels; :class:`~repro.queueing.network.NetworkSolution`,
diagnostics and the cache layer are unchanged.  The retired pure-Python
loops live on in :mod:`repro.queueing.mva_reference` as the oracle the
kernel equivalence tests compare against (agreement within 1e-10).
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.analysis.contracts import shape_contract
from repro.errors import ConfigurationError
from repro.queueing.network import ClosedNetwork, NetworkSolution

__all__ = [
    "NetworkArrays",
    "BatchSolution",
    "solve_exact_batch",
    "solve_schweitzer_batch",
    "initial_queue",
    "assemble_solution",
    "exact_cost",
    "MAX_EXACT_COST",
]

#: Largest exact solve accepted, in coefficient reads per network
#: (:func:`exact_cost`, 5-20 ns each): six chains reach it near 560
#: customers over two queueing centers, near 135 over three.
MAX_EXACT_COST = 100_000_000

#: Steps between rescalings.  A step by a unit factor grows a product's
#: coefficient sum by at most ``1 + N`` and never shrinks it.
_RESCALE_EVERY = 16

#: ``_simplex`` arrays, keyed by the number of queueing centers.
_SIMPLEX_CACHE: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}

#: One polynomial step: the monomials up to its degree, and whether to
#: rescale after it.
_Step = tuple[int, bool]


@dataclass(frozen=True)
class NetworkArrays:
    """Dense array form of a closed multi-chain network.

    Attributes
    ----------
    demands:
        ``(C, K)`` float matrix of service demands; row order follows
        ``centers``, column order follows ``chains``.
    delay:
        ``(C,)`` boolean mask — True rows are infinite-server (delay)
        centers, False rows are queueing centers.
    populations:
        ``(K,)`` integer population vector (strictly positive: only
        *active* chains are represented; zero-population chains are
        reported as zero by the adapters).
    centers / chains:
        Name tuples fixing the row / column order.
    """

    demands: np.ndarray
    delay: np.ndarray
    populations: np.ndarray
    centers: tuple[str, ...]
    chains: tuple[str, ...]

    @classmethod
    def from_network(cls, network: ClosedNetwork) -> NetworkArrays:
        """Build the dense form of *network* (active chains only)."""
        chains = network.active_chains
        centers = tuple(c.name for c in network.centers)
        demands = np.array(
            [[c.demand(k) for k in chains] for c in network.centers],
            dtype=np.float64,
        ).reshape(len(centers), len(chains))
        delay = np.array([c.is_delay for c in network.centers], dtype=bool)
        populations = np.array(
            [network.populations[k] for k in chains], dtype=np.int64)
        return cls(demands=demands, delay=delay, populations=populations,
                   centers=centers, chains=chains)


@dataclass(frozen=True)
class BatchSolution:
    """Result of one batched kernel call.

    All arrays are stacked along the leading batch axis ``B``; the
    residence matrix follows the input's ``(C, K)`` layout (zero where
    a chain never visits a center).
    """

    throughput: np.ndarray   #: ``(B, K)`` chain throughputs.
    residence: np.ndarray    #: ``(B, C, K)`` per-pass residence times.
    queue: np.ndarray        #: ``(B, Cq, K)`` queueing-center iterate.
    iterations: np.ndarray   #: ``(B,)`` inner iterations performed.
    converged: np.ndarray    #: ``(B,)`` convergence flags.
    residual: np.ndarray     #: ``(B,)`` last damped-step max-norm.


def _simplex(
    n_queues: int, degree: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The monomials ``x^k`` of ``n_queues`` variables and degree at
    most ``degree``, sorted by degree so that each smaller degree's
    monomials are a prefix (cached; rebuilt for a larger degree).

    Returns ``pred`` and ``weight``, ``(T, L)`` with ``T = 1 +
    n_queues``: row 0 is the monomial itself (weight 1), row ``1 + i``
    the position of ``k - e_i`` (weight ``k_i``; position 0 where
    ``k_i = 0``); and ``sizes``, the count of monomials of degree at
    most ``d`` for each ``d``.
    """
    cached = _SIMPLEX_CACHE.get(n_queues)
    if cached is not None and len(cached[2]) > degree:
        return cached
    pts = np.zeros((1, 0), dtype=np.intp)
    pred = np.zeros((0, 1), dtype=np.intp)
    # One variable at a time: pair each monomial k of degree at most
    # degree - j (a prefix) with the power j, then re-sort stably.
    for _ in range(n_queues):
        count = np.searchsorted(
            pts.sum(axis=1), np.arange(degree, -1, -1), side="right"
        )
        start = np.concatenate(([0], np.cumsum(count)[:-1]))
        power = np.repeat(np.arange(degree + 1), count)
        first = np.repeat(start, count)
        row = np.arange(len(power)) - first
        # Before the re-sort, (k, j) sits at start[j] + k.
        lower = np.where(power > 0, start[np.maximum(power - 1, 0)] + row, 0)
        order = np.argsort(pts[row].sum(axis=1) + power, kind="stable")
        rank = np.empty_like(order)
        rank[order] = np.arange(len(order))
        pred = rank[np.vstack([pred[:, row] + first, lower])[:, order]]
        pts = np.column_stack([pts[row], power])[order]
    cached = _SIMPLEX_CACHE[n_queues] = (
        np.vstack([np.arange(len(pts)), pred]),
        np.vstack([np.ones(len(pts)), pts.T]).astype(np.float64),
        np.searchsorted(pts.sum(axis=1), np.arange(degree + 1), side="right"),
    )
    return cached


def exact_cost(populations: Sequence[int], n_queues: int) -> int:
    """Coefficient reads of one exact solve, per network: each step
    reads ``1 + n_queues`` coefficients per monomial up to its degree
    for each stacked product (:func:`_exact_plan`), summed in closed
    form.  It bounds the solve's time and widest array; solves above
    :data:`MAX_EXACT_COST` raise
    :class:`~repro.errors.ConfigurationError`.
    """
    active = [p for p in populations if p > 0]
    if not (active and n_queues):
        return 0
    q, a, n = n_queues + 1, len(active), sum(active)
    # Over degrees d = lo..hi, C(d + q - 1, q - 1) sums to
    # C(hi + q, q) - C(lo + q - 1, q).
    shared = math.comb(n - a + q, q) - 1  # degrees 1 .. n - a
    own = a * (math.comb(n - 1 + q, q) - math.comb(n - a + q, q))
    return q * (shared + own)


class _ExactPlan(NamedTuple):
    """Step schedule of one exact solve (:func:`_exact_plan`)."""

    n_queues: int  #: queueing centers ``Cq``
    queues: np.ndarray  #: row indices of the queueing centers
    delays: np.ndarray  #: row indices of the delay centers
    active: np.ndarray  #: ``(a,)`` chains with customers
    base_chains: np.ndarray  #: ``(N - a,)`` chain of each shared step
    rest_chains: np.ndarray  #: ``(a - 1, a)`` chain of each stacked step
    base: list[_Step]  #: the shared product's steps
    rest: list[_Step]  #: the stacked products' steps
    top: int  #: the products' final degree, ``N - 1``


@functools.lru_cache(maxsize=64)
def _exact_plan(populations: tuple[int, ...], delay: tuple[bool, ...]) -> _ExactPlan:
    """The cached schedule of one population vector and delay mask.

    With ``a`` chains holding ``N`` customers, ``N - a`` factors go
    into one shared product (chain ``s``'s ``N_s - 1`` times); then
    each active chain ``r``'s product, stacked, takes the other
    ``a - 1`` chains' factors.
    """
    mask = np.array(delay, dtype=bool).reshape(len(delay))
    n_queues = int((~mask).sum())
    cost = exact_cost(populations, n_queues)
    if cost > MAX_EXACT_COST:
        raise ConfigurationError(
            f"exact MVA at populations {populations} over {n_queues} "
            f"queueing centers needs {cost} coefficient reads "
            f"(> {MAX_EXACT_COST}); use approximate MVA instead"
        )
    active = [r for r, p in enumerate(populations) if p > 0]
    base = [s for s in active for _ in range(populations[s] - 1)]
    rest = [[s for s in active if s != r] for r in active]
    top = max(0, sum(populations) - 1)
    sizes = _simplex(n_queues, top)[2]

    def step(t: int) -> _Step:
        return int(sizes[t + 1]), t % _RESCALE_EVERY == _RESCALE_EVERY - 1

    return _ExactPlan(
        n_queues=n_queues,
        queues=np.flatnonzero(~mask),
        delays=np.flatnonzero(mask),
        active=np.array(active, dtype=np.intp),
        base_chains=np.array(base, dtype=np.intp),
        rest_chains=np.array(rest, dtype=np.intp)
        .reshape(len(active), max(0, len(active) - 1))
        .T.copy(),
        base=[step(t) for t in range(len(base))],
        rest=[step(len(base) + t) for t in range(len(active) - 1)],
        top=top,
    )


def _multiply(
    steps: list[_Step],
    factors: np.ndarray,
    coef: np.ndarray,
    pred: np.ndarray,
    weight: np.ndarray,
) -> np.ndarray:
    """Multiply the ``(B, V, L)`` stack ``coef`` of ``V`` products per
    network (zero past their degree) by one linear factor per step.

    ``factors`` is ``(P, B, V, 1, T)``: for each of the ``P`` ``steps``,
    each product's factor ``(Z, D_1, ..., D_Cq)``; ``pred`` and
    ``weight`` are the ``(T, L)`` :func:`_simplex` arrays.  With ``k!``
    folded in, multiplying by ``Z + sum_i D_i x_i`` is
    ``c[k] <- Z c[k] + sum_i D_i k_i c[k - e_i]``.
    """
    if not steps:
        return coef
    spare = np.zeros_like(coef)
    # Step t needs step t-1's product; the products of one step are
    # stacked on the batch and variant axes.
    # caratlint: disable=CL002 -- sequential polynomial products
    for factor, (size, rescale) in zip(factors, steps):
        terms = coef.take(pred[:, :size], axis=2)  # (B, V, T, size)
        terms *= weight[:, :size]
        out = spare[:, :, None, :size]
        np.matmul(factor, terms, out=out)
        if rescale:
            out /= out.sum(axis=3, keepdims=True)
        coef, spare = spare, coef
    return coef


@shape_contract(demands="(B, C, K) | (C, K)", delay="(C,)",
                populations="(K,)")
def solve_exact_batch(
    demands: np.ndarray,
    delay: np.ndarray,
    populations: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Exact MVA for a batch of networks sharing one population vector.

    Parameters
    ----------
    demands:
        ``(B, C, K)`` demand stack (or ``(C, K)`` for a single
        network, treated as ``B=1``).
    delay:
        ``(C,)`` delay-center mask, shared across the batch.
    populations:
        ``(K,)`` population vector, shared across the batch (the step
        schedule is population-shaped, so a batch must agree on it;
        stacks with differing populations go through
        :func:`solve_schweitzer_batch` instead).

    Returns
    -------
    (throughput, residence):
        ``(B, K)`` and ``(B, C, K)`` arrays at the full population.

    Raises
    ------
    ConfigurationError
        If :func:`exact_cost` exceeds :data:`MAX_EXACT_COST`.
    """
    squeeze = demands.ndim == 2
    if squeeze:
        demands = demands[None, :, :]
    B, C, K = demands.shape
    if K == 0 or populations.sum() == 0:
        X = np.zeros((B, K))
        R = np.zeros((B, C, K))
        return (X[0], R[0]) if squeeze else (X, R)

    plan = _exact_plan(tuple(populations.tolist()), tuple(delay.tolist()))
    Dq = demands.take(plan.queues, axis=1)  # (B, Cq, K)
    Z = demands.take(plan.delays, axis=1).sum(axis=1)  # (B, K)
    one_plus = np.ones_like(Dq)
    if Dq.shape[1]:
        # Each chain's factor (Z, D_1, ..., D_Cq) is scaled to sum 1 (a
        # factor's scale drops out of every ratio); a chain with no
        # demand anywhere has zero throughput and multiplies by 1.
        F = np.concatenate((Z[:, None, :], Dq), axis=1)  # (B, T, K)
        total = F.sum(axis=1)
        idle = ~(total > 0.0)
        F /= np.where(idle, 1.0, total)[:, None, :]
        F[:, 0, :] += idle
        F = F.transpose(0, 2, 1)[:, :, None, None, :]  # (B, K, 1, 1, T)
        pred, weight, sizes = _simplex(plan.n_queues, plan.top)
        weight = weight[:, : sizes[plan.top]]
        coef = np.zeros((B, 1, weight.shape[1]))
        coef[:, :, 0] = 1.0
        coef = _multiply(
            plan.base, F[:, plan.base_chains].swapaxes(0, 1), coef, pred, weight
        )
        coef = _multiply(
            plan.rest,
            F[:, plan.rest_chains, 0].swapaxes(0, 1),
            np.repeat(coef, len(plan.active), axis=1),
            pred,
            weight,
        )
        # Q_i(N - e_r) is the k_i-weighted mean over r's product.
        sums = coef @ weight.T  # (B, a, T)
        one_plus[:, :, plan.active] += (sums[..., 1:] / sums[..., :1]).transpose(
            0, 2, 1
        )
    R = np.where(Dq > 0.0, Dq * one_plus, 0.0)
    tot = Z + R.sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        X = np.where(tot > 0.0, populations / tot, 0.0)
    residence = demands.copy()
    residence[:, plan.queues, :] = R
    if squeeze:
        return X[0], residence[0]
    return X, residence


@shape_contract(demands="(B, C, K) | (C, K)", delay="(C,)",
                populations="(B, K) | (K,)", q0="(B, Cq, K)")
def solve_schweitzer_batch(
    demands: np.ndarray,
    delay: np.ndarray,
    populations: np.ndarray,
    tolerance: float = 1e-8,
    max_iterations: int = 10_000,
    damping: float = 0.5,
    q0: np.ndarray | None = None,
) -> BatchSolution:
    """Schweitzer-Bard approximate MVA over a stacked network batch.

    Parameters
    ----------
    demands:
        ``(B, C, K)`` demand stack (``(C, K)`` accepted as ``B=1``).
    delay:
        ``(C,)`` delay-center mask shared across the batch.
    populations:
        ``(B, K)`` (or ``(K,)``) population stack; zero-population
        chains are carried as exact zeros.
    tolerance / max_iterations / damping:
        As in :func:`repro.queueing.mva_approx.solve_mva_approx`.
        Convergence is declared on the max-norm of the *applied*
        (damped) queue-length step.
    q0:
        Optional ``(B, Cq, K)`` warm-start queue lengths (``Cq`` =
        number of queueing centers); e.g. the ``queue`` field of a
        previous :class:`BatchSolution` for a nearby batch.  The
        fixed point does not depend on the start, only the iteration
        count does.

    Returns
    -------
    BatchSolution
        Per-element throughputs, residences, final queue iterate,
        iteration counts, convergence flags and last residuals.
        Non-convergence is reported through the flags, never raised —
        single-network adapters turn it into
        :class:`~repro.errors.ConvergenceError`.
    """
    if demands.ndim == 2:
        demands = demands[None, :, :]
    B, C, K = demands.shape
    populations = np.asarray(populations)
    if populations.ndim == 1:
        populations = np.broadcast_to(populations, (B, K))
    N = populations.astype(np.float64)

    qmask = ~delay
    Dq = np.ascontiguousarray(demands[:, qmask, :])  # (B, Cq, K)
    delay_r = demands[:, delay, :].sum(axis=1)       # (B, K)
    Cq = Dq.shape[1]

    if K == 0 or max_iterations < 1:
        # Degenerate: nothing to iterate on.  Mirror the scalar
        # reference, which observes a zero delta on its first pass.
        its = 1 if (K == 0 and max_iterations >= 1) else 0
        return BatchSolution(
            throughput=np.zeros((B, K)),
            residence=np.zeros((B, C, K)),
            queue=np.zeros((B, Cq, K)),
            iterations=np.full(B, its, dtype=np.int64),
            converged=np.full(B, K == 0 and max_iterations >= 1),
            residual=np.zeros(B),
        )

    visited = Dq > 0.0
    if q0 is not None:
        Q = np.array(q0, dtype=np.float64)
    else:
        Q = initial_queue(demands, delay, populations)
    # Self-correction divisor: harmless 1 for empty chains (their
    # queues are identically zero).
    safe_n = np.where(N > 0.0, N, 1.0)

    done = np.zeros(B, dtype=bool)
    its = np.full(B, max_iterations, dtype=np.int64)
    last_residual = np.full(B, np.inf)
    X_out = np.zeros((B, K))
    Rq_out = np.zeros((B, Cq, K))
    # The damped fixed-point iteration is sequential by definition;
    # each step is a whole-(B, Cq, K) tensor update.
    # caratlint: disable=CL002 -- sequential fixed-point steps
    for iteration in range(max_iterations):
        S = Q.sum(axis=2)                            # (B, Cq)
        arrival = S[:, :, None] - Q / safe_n[:, None, :]
        R = Dq * (1.0 + arrival)                     # (B, Cq, K)
        tot = R.sum(axis=1) + delay_r                # (B, K)
        with np.errstate(divide="ignore", invalid="ignore"):
            X = np.where((N > 0.0) & (tot > 0.0), N / tot, 0.0)
        new_q = X[:, None, :] * R
        applied = Q + damping * (new_q - Q)
        if Cq:
            delta = np.abs(applied - Q).reshape(B, -1).max(axis=1)
        else:
            delta = np.zeros(B)

        fresh = ~done
        last_residual[fresh] = delta[fresh]
        X_out[fresh] = X[fresh]
        Rq_out[fresh] = R[fresh]
        Q[fresh] = applied[fresh]
        newly = fresh & (delta < tolerance)
        its[newly] = iteration + 1
        done |= newly
        if done.all():
            break

    residence = np.zeros((B, C, K))
    residence[:, qmask, :] = np.where(visited, Rq_out, 0.0)
    residence[:, delay, :] = demands[:, delay, :]
    return BatchSolution(
        throughput=X_out,
        residence=residence,
        queue=Q,
        iterations=its,
        converged=done,
        residual=last_residual,
    )


@shape_contract(demands="(B, C, K) | (C, K)", delay="(C,)",
                populations="(B, K) | (K,)")
def initial_queue(
    demands: np.ndarray,
    delay: np.ndarray,
    populations: np.ndarray,
) -> np.ndarray:
    """Default Schweitzer start: population spread over visited queues.

    Each chain's population is divided evenly among the queueing
    centers it places demand on.  The return shape matches
    :func:`solve_schweitzer_batch`'s ``q0`` contract — ``(B, Cq, K)``
    for a ``(B, C, K)`` demand stack (``(C, K)`` accepted as ``B=1``)
    — so callers can build *partial* warm starts: take this array and
    overwrite the batch rows a previous solve is known for.
    """
    if demands.ndim == 2:
        demands = demands[None, :, :]
    B, _, K = demands.shape
    populations = np.asarray(populations)
    if populations.ndim == 1:
        populations = np.broadcast_to(populations, (B, K))
    N = populations.astype(np.float64)
    Dq = demands[:, ~delay, :]                       # (B, Cq, K)
    visited = Dq > 0.0
    nvis = np.maximum(1, visited.sum(axis=1))        # (B, K)
    return np.where(visited, (N / nvis)[:, None, :], 0.0)


def assemble_solution(
    arrays: NetworkArrays,
    throughput: np.ndarray,
    residence: np.ndarray,
    all_chains: tuple[str, ...] | None = None,
    all_populations: dict[str, int] | None = None,
) -> NetworkSolution:
    """Build the dict-keyed :class:`NetworkSolution` from kernel output.

    *throughput* and *residence* are one batch element's results —
    ``(K,)`` and ``(C, K)`` in the layout of *arrays*.
    *all_chains* / *all_populations* extend the report to declared
    zero-population chains (reported as zeros, matching the reference
    solvers); by default only the active chains of *arrays* appear.
    """
    chains = arrays.chains
    centers = arrays.centers
    if all_chains is None:
        all_chains = chains
    if all_populations is None:
        all_populations = {k: int(p)
                           for k, p in zip(chains, arrays.populations)}

    x_by_chain = {k: float(x) for k, x in zip(chains, throughput)}
    throughput_d = {k: x_by_chain.get(k, 0.0) for k in all_chains}
    response: dict[str, float] = {}
    for k in all_chains:
        x = throughput_d[k]
        response[k] = all_populations[k] / x if x > 0.0 else 0.0

    demands = arrays.demands
    queue_length: dict[tuple[str, str], float] = {}
    residence_d: dict[tuple[str, str], float] = {}
    utilization: dict[tuple[str, str], float] = {}
    for ci, center in enumerate(centers):
        for ki, k in enumerate(chains):
            r = float(residence[ci, ki])
            x = x_by_chain[k]
            if demands[ci, ki] != 0.0:
                residence_d[(center, k)] = r
            queue_length[(center, k)] = x * r
            utilization[(center, k)] = x * float(demands[ci, ki])
    return NetworkSolution(
        throughput=throughput_d,
        response_time=response,
        queue_length=queue_length,
        residence_time=residence_d,
        utilization=utilization,
    )
