"""Exact MVA over the population lattice (test oracle).

The level-vectorized recursion that
:func:`repro.queueing.kernels.solve_exact_batch` replaced: it walks
the lattice of population vectors ``prod_r (N_r + 1)`` level by level
(level ``s`` holds the points of total population ``s``), updating
every point of a level in one set of tensor ops and keeping only the
previous level's queues.  Its cost grows with the product of the
chain populations, so it is kept for the tests only: the kernel
agreement tests compare the generating-function kernel against it,
and ``tests/queueing/test_exact_kernel_golden.py`` pins its output bit
for bit.  Each reduction has a fixed summation order (over centers,
even and odd centers summed apart, then added; over chains, a
sequential sum).
"""

from __future__ import annotations

import numpy as np

__all__ = ["lattice_exact_batch"]

#: Cached lattice index structures, keyed by the population tuple.
_LATTICE_CACHE: dict[tuple[int, ...], _LatticeIndex] = {}
_LATTICE_CACHE_MAX = 64


class _LatticeIndex:
    """Precomputed traversal order of one population lattice.

    The recursion visits the lattice level by level and keeps only the
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

    Level 0, the empty network, is implicit.
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
        # order within a level.
        narrow = total.astype(np.min_scalar_type(total[-1]))
        order = np.argsort(narrow, kind="stable")
        sizes = np.bincount(total)
        ends = np.cumsum(sizes)
        position = np.empty(len(order), dtype=np.intp)
        position[order] = np.arange(len(order)) - np.repeat(ends - sizes, sizes)
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


def lattice_exact_batch(
    demands: np.ndarray,
    delay: np.ndarray,
    populations: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Exact MVA for a batch of networks sharing one population vector.

    Takes the arguments of
    :func:`repro.queueing.kernels.solve_exact_batch` — a ``(B, C, K)``
    demand stack (or ``(C, K)``), a ``(C,)`` delay mask and a ``(K,)``
    population vector — and returns the same ``(B, K)`` throughputs
    and ``(B, C, K)`` residences.
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
    delay_r = demands[:, delay, :].sum(axis=1)  # (B, K)
    delay_r3 = delay_r[:, :, None]
    Cq = Dq.shape[1]

    *interior, (pts, pred) = _lattice_index(populations).levels
    # Only the previous level's queues are kept: (B, Cq, M_{s-1}),
    # point axis innermost, starting from the empty network.
    Q = np.zeros((B, Cq, 1))
    with np.errstate(divide="ignore", invalid="ignore"):
        # Level s needs level s-1; all points within a level update as
        # one tensor op.  Over centers, the even and the odd centers
        # are summed apart, then added (a plain sum at the last point);
        # over chains, a sequential sum of (X * D) * (1 + Q).
        for pts_s, pred_s in interior:
            one_plus = Q.take(pred_s, axis=2)  # (B, Cq, K, M)
            one_plus += 1.0
            R = D4 * one_plus
            tot = R[:, 0::2].sum(axis=1)  # (B, K, M)
            tot += R[:, 1::2].sum(axis=1)
            tot += delay_r3
            # An empty chain has pts 0, so its throughput is 0 as well.
            X = pts_s / tot
            X[~(tot > 0.0)] = 0.0
            np.multiply(X[:, None], D4, out=R)
            R *= one_plus
            Q = R.sum(axis=2)  # (B, Cq, M)

        # The last level is the one full-population point: its
        # residence matrix is the result.  An empty (zero-population)
        # chain sees the empty network.
        pts = pts[:, 0]
        DqT = np.ascontiguousarray(Dq.transpose(0, 2, 1))  # (B, K, Cq)
        one_plus = np.ascontiguousarray(
            np.where(
                pts[:, None] > 0,
                Q.take(pred[:, 0], axis=2).transpose(0, 2, 1),
                0.0,
            )
        )
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
