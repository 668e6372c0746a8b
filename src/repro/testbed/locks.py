"""Two-phase-locking lock manager with FIFO queueing (paper §2).

Granularity is one database granule (disk block).  Read-only
transactions take shared (S) locks, update transactions exclusive (X)
locks — matching the paper's workload, where an update transaction
updates every record it touches.

Grant policy is strict FIFO: a request waits if it is incompatible with
the current holders *or* any earlier waiter, which prevents reader
starvation and matches a conventional lock manager.

The lock table doubles as the local wait-for graph: a blocked
transaction's outgoing edges are the current conflicting holders of the
granule it wants, discovered on demand (no stale edge bookkeeping).
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass, field
from collections.abc import Callable, Iterable

from repro.errors import SimulationError

__all__ = ["LockMode", "LockRequestOutcome", "LockManager"]


class LockMode(enum.Enum):
    """Shared or exclusive granule lock."""

    SHARED = "S"
    EXCLUSIVE = "X"

    def compatible(self, other: LockMode) -> bool:
        """S/S is the only compatible pairing."""
        return self is LockMode.SHARED and other is LockMode.SHARED


class LockRequestOutcome(enum.Enum):
    """Result of a lock request."""

    GRANTED = "granted"          #: immediately granted (or already held)
    BLOCKED = "blocked"          #: queued; wait for the grant callback
    DEADLOCK = "deadlock"        #: request would close a local cycle


@dataclass
class _Waiter:
    txn: str
    mode: LockMode
    grant: Callable[[], None]


@dataclass
class _Lock:
    holders: dict[str, LockMode] = field(default_factory=dict)
    queue: deque[_Waiter] = field(default_factory=deque)


class LockManager:
    """Lock table for one site."""

    def __init__(self, site: str):
        self.site = site
        self._locks: dict[int, _Lock] = {}
        #: granule a blocked transaction is waiting for
        self._waiting_for: dict[str, tuple[int, LockMode]] = {}
        # Statistics.
        self.requests = 0
        self.blocks = 0
        self.local_deadlocks = 0

    # -- queries -------------------------------------------------------------

    def holds(self, txn: str, granule: int) -> bool:
        """True when *txn* already holds a lock on *granule*."""
        lock = self._locks.get(granule)
        return bool(lock and txn in lock.holders)

    def held_granules(self, txn: str) -> list[int]:
        """Granules currently locked by *txn*."""
        return [g for g, lock in self._locks.items() if txn in lock.holders]

    def is_blocked(self, txn: str) -> bool:
        """True when *txn* is queued for a lock at this site."""
        return txn in self._waiting_for

    def blockers(self, txn: str) -> list[str]:
        """Transactions a blocked *txn* is waiting on (its WFG edges):
        conflicting holders in grant order, then incompatible earlier
        waiters in queue order, without duplicates.  The order is fixed
        so that probe chasing, and hence the deadlock victims, do not
        depend on string hashing."""
        waiting = self._waiting_for.get(txn)
        if waiting is None:
            return []
        granule, mode = waiting
        lock = self._locks.get(granule)
        if lock is None:
            return []
        out = [holder for holder, held in lock.holders.items()
               if holder != txn and not mode.compatible(held)]
        for waiter in lock.queue:
            if waiter.txn == txn:
                break
            if not mode.compatible(waiter.mode) and waiter.txn not in out:
                out.append(waiter.txn)
        return out

    # -- the protocol ----------------------------------------------------------

    def request(self, txn: str, granule: int, mode: LockMode,
                grant: Callable[[], None]) -> LockRequestOutcome:
        """Request a lock; FIFO queue on conflict.

        Parameters
        ----------
        txn:
            Global transaction id.
        granule:
            Granule number.
        mode:
            Requested mode.  Upgrades (S held, X requested) are
            rejected as a :class:`~repro.errors.SimulationError` —
            the paper's workload never mixes modes in one transaction.
        grant:
            Callback invoked when a *queued* request is finally
            granted (immediate grants just return GRANTED).

        Returns
        -------
        LockRequestOutcome
            GRANTED, BLOCKED, or DEADLOCK when queueing this request
            would close a cycle in the local wait-for graph (the
            requester is the victim and is *not* queued).
        """
        self.requests += 1
        lock = self._locks.setdefault(granule, _Lock())
        held = lock.holders.get(txn)
        if held is not None:
            if held is mode or held is LockMode.EXCLUSIVE:
                return LockRequestOutcome.GRANTED
            raise SimulationError(
                f"{txn} attempts lock upgrade on granule {granule}"
            )
        if self._grantable(lock, mode):
            lock.holders[txn] = mode
            return LockRequestOutcome.GRANTED

        # Would queueing close a local cycle?  Probe the wait-for graph
        # before enqueueing (victim = the requester, as in CARAT).
        self.blocks += 1
        if self._closes_cycle(txn, lock, mode):
            self.local_deadlocks += 1
            return LockRequestOutcome.DEADLOCK
        lock.queue.append(_Waiter(txn, mode, grant))
        self._waiting_for[txn] = (granule, mode)
        return LockRequestOutcome.BLOCKED

    def _grantable(self, lock: _Lock, mode: LockMode) -> bool:
        if lock.queue:
            return False
        return all(mode.compatible(held) for held in lock.holders.values())

    def _closes_cycle(self, txn: str, lock: _Lock,
                      mode: LockMode) -> bool:
        """DFS over the local WFG from the would-be blockers of *txn*."""
        start = {holder for holder, held in lock.holders.items()
                 if not mode.compatible(held)}
        for waiter in lock.queue:
            if not mode.compatible(waiter.mode):
                start.add(waiter.txn)
        seen: set[str] = set()
        stack = list(start)
        while stack:
            current = stack.pop()
            if current == txn:
                return True
            if current in seen:
                continue
            seen.add(current)
            stack.extend(self.blockers(current))
        return False

    def cancel_wait(self, txn: str) -> None:
        """Remove a queued request (the waiter was aborted remotely)."""
        waiting = self._waiting_for.pop(txn, None)
        if waiting is None:
            return
        granule, _mode = waiting
        lock = self._locks.get(granule)
        if lock is None:
            return
        lock.queue = deque(w for w in lock.queue if w.txn != txn)
        self._grant_from_queue(granule, lock)

    def release_all(self, txn: str) -> int:
        """Release every lock held by *txn*; returns the count."""
        if txn in self._waiting_for:
            self.cancel_wait(txn)
        released = 0
        for granule in list(self._locks):
            lock = self._locks[granule]
            if txn in lock.holders:
                del lock.holders[txn]
                released += 1
                self._grant_from_queue(granule, lock)
            if not lock.holders and not lock.queue:
                del self._locks[granule]
        return released

    def _grant_from_queue(self, granule: int, lock: _Lock) -> None:
        """Grant from the queue head while compatible (FIFO batching:
        a run of shared requests is granted together)."""
        while lock.queue:
            head = lock.queue[0]
            compatible = all(head.mode.compatible(held)
                             for held in lock.holders.values())
            if not compatible:
                return
            lock.queue.popleft()
            lock.holders[head.txn] = head.mode
            self._waiting_for.pop(head.txn, None)
            head.grant()

    # -- introspection for tests and the probe service -----------------------

    def waiting_transactions(self) -> Iterable[str]:
        """Transactions currently blocked at this site."""
        return list(self._waiting_for)

    def waiting_count(self) -> int:
        """Number of transactions blocked at this site right now."""
        return len(self._waiting_for)

    def lock_count(self) -> int:
        """Number of granules with at least one holder or waiter."""
        return len(self._locks)

    def held_count(self) -> int:
        """Total (transaction, granule) holds in the lock table."""
        return sum(len(lock.holders) for lock in self._locks.values())
