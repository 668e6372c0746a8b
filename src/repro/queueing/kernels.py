"""Vectorized NumPy kernels for closed multi-chain MVA.

A :class:`ClosedNetwork` is a dict-of-tuples structure that is
convenient to build but slow to iterate; the solver hot path (the
model's per-site solves, the planner's MPL grids, the sensitivity
sweeps) spends most of its time in those loops.  This module is the
array back end: a network becomes a dense ``(centers x chains)``
demand matrix plus a delay mask and a population vector
(:class:`NetworkArrays`), and both MVA algorithms run as whole-matrix
NumPy operations:

* :func:`solve_exact_batch` runs the exact MVA recursion level by
  level over the population lattice.  Every lattice point with the
  same total population is updated in one set of tensor ops, and only
  the previous level's queues are kept: a ``(B, Cq, M)`` array whose
  innermost axis runs over the level's points, read through
  predecessor positions local to that level.  The lattice index is
  cached across calls, so repeated solves of the same population
  shape (the fixed-point loop solves the same lattice hundreds of
  times) pay the setup once.  Each reduction has a fixed summation
  order (over centers, even and odd centers summed apart, then added;
  over chains, a sequential sum), pinned bit for bit by
  ``tests/queueing/test_exact_kernel_golden.py``.
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

from dataclasses import dataclass

import numpy as np

from repro.analysis.contracts import shape_contract
from repro.queueing.network import ClosedNetwork, NetworkSolution

__all__ = [
    "NetworkArrays",
    "BatchSolution",
    "solve_exact_batch",
    "solve_schweitzer_batch",
    "initial_queue",
    "assemble_solution",
]

#: Cached lattice index structures, keyed by the population tuple.
_LATTICE_CACHE: dict[tuple[int, ...], _LatticeIndex] = {}
_LATTICE_CACHE_MAX = 64


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

    @property
    def lattice_size(self) -> int:
        """Population vectors the exact recursion must visit."""
        if not self.chains:
            return 1
        return int(np.prod(self.populations + 1))


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


class _LatticeIndex:
    """Precomputed traversal order of one population lattice.

    The exact recursion visits the lattice level by level (level ``s``
    holds the points of total population ``s``) and keeps only the
    previous level's queues, so each point's one-customer-removed
    predecessors are stored as positions inside level ``s - 1``.
    ``levels[s - 1]`` is a ``(pts, pred)`` pair of ``(K, M_s)``
    arrays, point-major (the level's ``M_s`` points, in flat lattice
    order, run along the innermost axis):

    * ``pts``: the population vectors, in the narrowest unsigned
      integer type that holds them (converting to float in the
      division is exact, and the index stays small);
    * ``pred``: for each chain with a customer to remove, the position
      of the predecessor in level ``s - 1``; 0 for an empty chain.

    Level 0, the empty network, is implicit.  The index depends only
    on the population tuple, so it is computed once and cached.
    """

    __slots__ = ("levels",)

    def __init__(self, populations: np.ndarray):
        """Index the lattice of a ``(K,)`` ``populations`` vector."""
        dims = populations + 1
        K = len(dims)
        strides = np.ones((K, 1), dtype=np.intp)
        for i in range(K - 2, -1, -1):
            strides[i] = strides[i + 1] * dims[i + 1]
        small = np.min_scalar_type(int(populations.max()))
        points = np.indices(dims, dtype=small).reshape(K, -1)  # (K, L)
        total = points.sum(axis=0, dtype=np.intp)
        # One stable sort groups the points by level and keeps flat
        # order within a level (on the narrowest integer type that holds
        # the totals, NumPy's stable sort is a radix sort).
        narrow = total.astype(np.min_scalar_type(total[-1]))
        order = np.argsort(narrow, kind="stable")
        sizes = np.bincount(total)
        ends = np.cumsum(sizes)
        position = np.empty(len(order), dtype=np.intp)
        position[order] = np.arange(len(order)) - np.repeat(ends - sizes,
                                                            sizes)
        self.levels: list[tuple[np.ndarray, np.ndarray]] = []
        for flat in np.split(order, ends[:-1])[1:]:
            pts = points.take(flat, axis=1)
            # Removing a customer from an empty chain yields a wrong
            # flat index (still a valid one, negative ones wrap); it is
            # zeroed.
            pred = position.take(flat - strides)
            pred[pts == 0] = 0
            self.levels.append((pts, pred))


def _lattice_index(populations: np.ndarray) -> _LatticeIndex:
    """Cached :class:`_LatticeIndex` for a ``(K,)`` ``populations``
    vector (least recently used entry evicted beyond the cache cap)."""
    key = tuple(int(p) for p in populations)
    index = _LATTICE_CACHE.pop(key, None)
    if index is None:
        if len(_LATTICE_CACHE) >= _LATTICE_CACHE_MAX:
            _LATTICE_CACHE.pop(next(iter(_LATTICE_CACHE)))
        index = _LatticeIndex(populations)
    _LATTICE_CACHE[key] = index
    return index


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
        ``(K,)`` population vector, shared across the batch (the
        recursion's lattice is population-shaped, so a batch must
        agree on it; stacks with differing populations go through
        :func:`solve_schweitzer_batch` instead).

    Returns
    -------
    (throughput, residence):
        ``(B, K)`` and ``(B, C, K)`` arrays at the full population.
    """
    squeeze = demands.ndim == 2
    if squeeze:
        demands = demands[None, :, :]
    B, C, K = demands.shape
    if K == 0 or populations.sum() == 0:
        X = np.zeros((B, K))
        R = np.zeros((B, C, K))
        return (X[0], R[0]) if squeeze else (X, R)

    qmask = ~delay
    Dq = np.ascontiguousarray(demands[:, qmask, :])  # (B, Cq, K)
    D4 = Dq[:, :, :, None]
    delay_r = demands[:, delay, :].sum(axis=1)       # (B, K)
    delay_r3 = delay_r[:, :, None]
    Cq = Dq.shape[1]

    *interior, (pts, pred) = _lattice_index(populations).levels
    # Only the previous level's queues are kept: (B, Cq, M_{s-1}),
    # point axis innermost, starting from the empty network.
    Q = np.zeros((B, Cq, 1))
    with np.errstate(divide="ignore", invalid="ignore"):
        # The exact MVA recursion is inherently sequential across
        # lattice *levels* (level s needs level s-1); all points
        # within a level update as one tensor op.  Every reduction has
        # a fixed summation order, pinned bit for bit by the kernel
        # golden test: over centers, the even and the odd centers are
        # summed apart, then added (a plain sum at the last point);
        # over chains, a sequential sum of (X * D) * (1 + Q).
        # caratlint: disable=CL002 -- sequential lattice recursion
        for pts_s, pred_s in interior:
            one_plus = Q.take(pred_s, axis=2)       # (B, Cq, K, M)
            one_plus += 1.0
            R = D4 * one_plus
            tot = R[:, 0::2].sum(axis=1)            # (B, K, M)
            tot += R[:, 1::2].sum(axis=1)
            tot += delay_r3
            # An empty chain has pts 0, so its throughput is 0 as well.
            X = pts_s / tot
            X[~(tot > 0.0)] = 0.0
            np.multiply(X[:, None], D4, out=R)
            R *= one_plus
            Q = R.sum(axis=2)                       # (B, Cq, M)

        # The last level is the one full-population point: its
        # residence matrix is the result, its queues are not needed.
        # An empty (zero-population) chain sees the empty network.  The
        # operands are C-ordered, so the center sum runs over the
        # contiguous last axis.
        pts = pts[:, 0]
        DqT = np.ascontiguousarray(Dq.transpose(0, 2, 1))  # (B, K, Cq)
        one_plus = np.ascontiguousarray(np.where(
            pts[:, None] > 0, Q.take(pred[:, 0], axis=2).transpose(0, 2, 1),
            0.0))
        one_plus += 1.0
        R = DqT * one_plus
        tot = R.sum(axis=2) + delay_r
        X_final = np.where(tot > 0.0, pts / tot, 0.0)
        R_final = np.where(DqT > 0.0, R, 0.0)

    residence = np.zeros((B, C, K))
    residence[:, qmask, :] = R_final.transpose(0, 2, 1)
    residence[:, delay, :] = demands[:, delay, :]
    if squeeze:
        return X_final[0], residence[0]
    return X_final, residence


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
