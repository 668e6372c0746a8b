"""Lock contention sub-model (paper §5.4).

Implements:

* the truncated-geometric distribution of locks held at abort and its
  mean ``E[Y]`` (Eq. 11);
* the time-average number of locks held per transaction ``L_h``
  (Eqs. 12–14);
* the blocking probability ``Pb`` (Eq. 15) and the lock-wait
  probability ``P_lw`` (Eq. 16), with share/exclusive compatibility:
  read-only chains hold shared locks (block only exclusive requests),
  update chains hold exclusive locks (block everyone); skewed access
  shrinks the granule count ``Pb`` divides by
  (:func:`effective_granules`);
* the blocker-type distribution ``PB`` (Eq. 17), restricted to
  compatible holder types;
* the two-cycle deadlock-victim probability ``Pd`` (§5.4.3 — the
  paper defers its derivation to [JENQ86]; our first-order derivation
  is documented on :func:`deadlock_victim_probability`);
* the mean blocking time via the blocking-ratio result
  ``BR = (2N + 1) / (6N) ~= 1/3`` (Eqs. 18–20).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.model.parameters import SiteParameters
from repro.model.types import ChainType, UPDATE_CHAINS
from repro.model.workload import WorkloadSpec

__all__ = ["locks_at_abort", "average_locks_held", "blocking_probability",
           "lock_wait_probability", "blocker_distribution",
           "deadlock_victim_probability", "blocking_ratio",
           "lock_wait_time", "effective_granules", "LockModelState"]


def locks_at_abort(locks: float, per_lock_abort: float) -> float:
    """``E[Y]`` — mean locks held when an execution aborts (Eq. 11).

    ``Y`` is truncated-geometric on ``0 .. N_lk - 1`` with per-lock
    abort probability ``p = Pb * Pd``:

    ``E[Y] = (1 - p)/p - N (1 - p)^N / (1 - (1 - p)^N)``

    with the uniform limit ``(N - 1) / 2`` as ``p -> 0``.
    """
    if locks <= 0:
        raise ConfigurationError("a transaction holds at least one lock")
    p = per_lock_abort
    if not 0.0 <= p <= 1.0:
        raise ConfigurationError(f"per-lock abort prob {p} invalid")
    if p * locks < 1e-4:
        # Uniform limit; the closed form suffers catastrophic
        # cancellation here and the relative error of the limit is
        # O(p * N) < 1e-4.  Clamped at zero for the fractional lock
        # counts (< 1) Yao's formula can produce.
        return max(0.0, (locks - 1.0) / 2.0)
    if p >= 1.0 - 1e-12:
        return 0.0
    x = 1.0 - p
    xn = x ** locks
    value = x / p - locks * xn / (1.0 - xn)
    return min(max(value, 0.0), (locks - 1.0) / 2.0)


def average_locks_held(
    locks: float,
    abort_probability: float,
    sigma: float,
    response_success: float,
    think_time: float,
) -> float:
    """``L_h`` — time-average locks held by a transaction (Eq. 14).

    Parameters
    ----------
    locks:
        ``N_lk`` — locks acquired by a full execution.
    abort_probability:
        ``P_a`` — probability an execution aborts.
    sigma:
        ``E[Y] / N_lk`` — fraction of locks held at the abort point.
    response_success:
        ``R_s`` — mean duration of a successful execution.
    think_time:
        ``R_UT`` — user think time between submissions.

    Notes
    -----
    With the uniform-acquisition assumption ``R_f = sigma * R_s`` and

    ``L_h = (N_lk / 2) * [1 - (1 - sigma^2) P_a] * R_s
            / (P_a R_f + (1 - P_a) R_s + R_UT)``

    which reduces to Eq. 12 when ``P_a = 0``.
    """
    if response_success <= 0:
        return 0.0
    pa = abort_probability
    if not 0.0 <= pa < 1.0:
        raise ConfigurationError(f"abort probability {pa} invalid")
    if not 0.0 <= sigma <= 1.0:
        raise ConfigurationError(f"sigma {sigma} invalid")
    r_s = response_success
    r_f = sigma * r_s
    numerator = (1.0 - (1.0 - sigma ** 2) * pa) * r_s
    denominator = pa * r_f + (1.0 - pa) * r_s + think_time
    return (locks / 2.0) * numerator / denominator


def _holder_mass(
    requester: ChainType,
    populations: dict[ChainType, int],
    locks_held: dict[ChainType, float],
) -> dict[ChainType, float]:
    """Lock mass, per holder type, that can block *requester*.

    Read-only requesters are blocked only by exclusive locks (update
    chains); update requesters by any lock.  A transaction never blocks
    on its own locks, so one ``L_h`` of the requester's own type is
    removed when that type is a potential blocker.
    """
    blockers = UPDATE_CHAINS if not requester.is_update else tuple(ChainType)
    mass: dict[ChainType, float] = {}
    for holder in ChainType:
        if holder not in blockers:
            mass[holder] = 0.0
            continue
        total = populations.get(holder, 0) * locks_held.get(holder, 0.0)
        if holder is requester:
            total -= locks_held.get(holder, 0.0)
        mass[holder] = max(0.0, total)
    return mass


def effective_granules(workload: WorkloadSpec,
                       site: SiteParameters) -> float:
    """Granule count ``Pb`` divides by (Eq. 15).

    Skewed access (hot spot or Zipf) behaves like a uniformly accessed
    database shrunk by the workload's collision multiplier, which for
    Zipf depends on the site's granule count.  Uniform workloads have
    a multiplier of exactly 1.0, so they keep the raw count.
    """
    collision = workload.collision_multiplier(site.granules)
    return float(max(1, int(round(site.granules / collision))))


def blocking_probability(
    requester: ChainType,
    populations: dict[ChainType, int],
    locks_held: dict[ChainType, float],
    granules: int,
) -> float:
    """``Pb(t, i)`` — probability one lock request is blocked (Eq. 15)."""
    if granules <= 0:
        raise ConfigurationError("granules must be positive")
    mass = _holder_mass(requester, populations, locks_held)
    return min(1.0, sum(mass.values()) / granules)


def lock_wait_probability(blocking: float, locks: float) -> float:
    """``P_lw = 1 - (1 - Pb)^N_lk`` (Eq. 16)."""
    if not 0.0 <= blocking <= 1.0:
        raise ConfigurationError(f"Pb {blocking} invalid")
    return 1.0 - (1.0 - blocking) ** locks


def blocker_distribution(
    requester: ChainType,
    populations: dict[ChainType, int],
    locks_held: dict[ChainType, float],
) -> dict[ChainType, float]:
    """``PB(t, s, i)`` — distribution of the blocker's type (Eq. 17),
    restricted to lock-mode-compatible holders."""
    mass = _holder_mass(requester, populations, locks_held)
    total = sum(mass.values())
    if total <= 0.0:
        return {holder: 0.0 for holder in ChainType}
    return {holder: m / total for holder, m in mass.items()}


def deadlock_victim_probability(
    requester: ChainType,
    populations: dict[ChainType, int],
    locks_held: dict[ChainType, float],
    blocked_fraction: dict[ChainType, float],
) -> float:
    """``Pd(t, i)`` — probability a blocked request closes a two-cycle
    deadlock with this transaction as victim (paper §5.4.3).

    The paper defers the formula to [JENQ86]; our first-order
    derivation (DESIGN.md §4.2): given the requester ``t`` is blocked,
    its blocker is a type-``s`` holder with probability ``PB(t, s)``.
    A two-cycle deadlock exists right now iff that holder is itself
    waiting (probability ``W(s)``, its stationary blocked-time
    fraction) *and* the granule it waits for is one of the requester's
    — probability ``L_h(t) / (total compatible holder mass for s)``.
    CARAT aborts the transaction whose request closed the cycle, i.e.
    the requester, so the product is exactly ``Pd(t)``.

    Mode compatibility is enforced on both edges: two read-only
    transactions can never deadlock with each other.
    """
    pb_dist = blocker_distribution(requester, populations, locks_held)
    own_locks = locks_held.get(requester, 0.0)
    if own_locks <= 0.0:
        return 0.0
    pd = 0.0
    for holder, pb_s in pb_dist.items():
        if pb_s <= 0.0:
            continue
        wait_frac = blocked_fraction.get(holder, 0.0)
        if wait_frac <= 0.0:
            continue
        # Mass of locks that could be blocking the holder, and the
        # requester's share of it.  The requester can only block the
        # holder if the holder's request conflicts with the requester's
        # lock mode.
        holder_blockers = (UPDATE_CHAINS if not holder.is_update
                           else tuple(ChainType))
        if requester not in holder_blockers:
            continue
        mass = _holder_mass(holder, populations, locks_held)
        total = sum(mass.values())
        if total <= 0.0:
            continue
        pd += pb_s * wait_frac * min(1.0, own_locks / total)
    return min(1.0, pd)


def blocking_ratio(locks: float) -> float:
    """``BR(t) = (2 N_lk + 1) / (6 N_lk)`` (Eq. 19), ~1/3 for large N."""
    if locks <= 0:
        raise ConfigurationError("locks must be positive")
    return (2.0 * locks + 1.0) / (6.0 * locks)


def lock_wait_time(
    requester: ChainType,
    populations: dict[ChainType, int],
    locks_held: dict[ChainType, float],
    locks_per_chain: dict[ChainType, float],
    response_per_chain: dict[ChainType, float],
) -> float:
    """``R_LW(t, i)`` — mean delay per blocked lock request (Eq. 20).

    ``RLT(s) = BR(N_lk(s)) * R(s)`` is the mean remaining blocking time
    of a type-``s`` holder (Eq. 18) with ``R(s)`` its mean execution
    time; the wait averages over the blocker distribution.
    """
    pb_dist = blocker_distribution(requester, populations, locks_held)
    wait = 0.0
    for holder, p in pb_dist.items():
        if p <= 0.0:
            continue
        locks = locks_per_chain.get(holder, 0.0)
        response = response_per_chain.get(holder, 0.0)
        if locks <= 0.0 or response <= 0.0:
            continue
        wait += p * blocking_ratio(locks) * response
    return wait


@dataclass(frozen=True)
class LockModelState:
    """Converged lock-model quantities for one chain at one site.

    A convenience record the solver exposes for reporting and tests.
    """

    chain: ChainType
    locks: float
    blocking: float
    deadlock_victim: float
    lock_wait_probability: float
    locks_held: float
    locks_at_abort: float
    abort_probability: float
    lock_wait_ms: float
