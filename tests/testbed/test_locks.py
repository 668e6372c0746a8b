"""Unit tests for the 2PL lock manager and local deadlock detection."""

import pytest

from repro.errors import SimulationError
from repro.testbed.locks import LockManager, LockMode, LockRequestOutcome

S, X = LockMode.SHARED, LockMode.EXCLUSIVE
GRANTED = LockRequestOutcome.GRANTED
BLOCKED = LockRequestOutcome.BLOCKED
DEADLOCK = LockRequestOutcome.DEADLOCK


def req(mgr, txn, granule, mode, log=None):
    log = log if log is not None else []
    return mgr.request(txn, granule, mode,
                       grant=lambda: log.append(txn)), log


class TestGrantRules:
    def test_shared_locks_are_compatible(self):
        mgr = LockManager("A")
        assert req(mgr, "t1", 1, S)[0] is GRANTED
        assert req(mgr, "t2", 1, S)[0] is GRANTED

    def test_exclusive_conflicts_with_shared(self):
        mgr = LockManager("A")
        assert req(mgr, "t1", 1, S)[0] is GRANTED
        assert req(mgr, "t2", 1, X)[0] is BLOCKED

    def test_shared_conflicts_with_exclusive(self):
        mgr = LockManager("A")
        assert req(mgr, "t1", 1, X)[0] is GRANTED
        assert req(mgr, "t2", 1, S)[0] is BLOCKED

    def test_reacquire_held_lock_is_free(self):
        mgr = LockManager("A")
        assert req(mgr, "t1", 1, X)[0] is GRANTED
        assert req(mgr, "t1", 1, X)[0] is GRANTED
        assert mgr.requests == 2

    def test_fifo_prevents_reader_overtaking(self):
        """S request behind a queued X request must wait (no reader
        starvation of writers)."""
        mgr = LockManager("A")
        assert req(mgr, "r1", 1, S)[0] is GRANTED
        assert req(mgr, "w", 1, X)[0] is BLOCKED
        assert req(mgr, "r2", 1, S)[0] is BLOCKED

    def test_upgrade_rejected(self):
        mgr = LockManager("A")
        assert req(mgr, "t1", 1, S)[0] is GRANTED
        with pytest.raises(SimulationError):
            mgr.request("t1", 1, X, grant=lambda: None)

    def test_exclusive_holder_may_rerequest_shared(self):
        mgr = LockManager("A")
        assert req(mgr, "t1", 1, X)[0] is GRANTED
        assert req(mgr, "t1", 1, S)[0] is GRANTED


class TestReleaseAndHandOff:
    def test_release_grants_next_in_fifo(self):
        mgr = LockManager("A")
        log = []
        req(mgr, "t1", 1, X, log)
        mgr.request("t2", 1, X, grant=lambda: log.append("t2"))
        mgr.request("t3", 1, X, grant=lambda: log.append("t3"))
        mgr.release_all("t1")
        assert log == ["t2"]
        mgr.release_all("t2")
        assert log == ["t2", "t3"]

    def test_shared_batch_granted_together(self):
        mgr = LockManager("A")
        log = []
        req(mgr, "w", 1, X, log)
        mgr.request("r1", 1, S, grant=lambda: log.append("r1"))
        mgr.request("r2", 1, S, grant=lambda: log.append("r2"))
        mgr.request("w2", 1, X, grant=lambda: log.append("w2"))
        mgr.release_all("w")
        assert log == ["r1", "r2"]

    def test_release_returns_count(self):
        mgr = LockManager("A")
        for granule in (1, 2, 3):
            req(mgr, "t1", granule, X)
        assert mgr.release_all("t1") == 3
        assert mgr.lock_count() == 0

    def test_cancel_wait_removes_from_queue(self):
        mgr = LockManager("A")
        log = []
        req(mgr, "t1", 1, X, log)
        mgr.request("t2", 1, X, grant=lambda: log.append("t2"))
        mgr.cancel_wait("t2")
        assert not mgr.is_blocked("t2")
        mgr.release_all("t1")
        assert log == []

    def test_cancel_wait_unblocks_compatible_followers(self):
        """Removing an X waiter lets queued S requests join holders."""
        mgr = LockManager("A")
        log = []
        req(mgr, "r1", 1, S, log)
        mgr.request("w", 1, X, grant=lambda: log.append("w"))
        mgr.request("r2", 1, S, grant=lambda: log.append("r2"))
        mgr.cancel_wait("w")
        assert log == ["r2"]

    def test_held_granules(self):
        mgr = LockManager("A")
        req(mgr, "t1", 1, X)
        req(mgr, "t1", 5, X)
        assert sorted(mgr.held_granules("t1")) == [1, 5]


class TestLocalDeadlockDetection:
    def test_two_cycle_detected(self):
        mgr = LockManager("A")
        req(mgr, "t1", 1, X)
        req(mgr, "t2", 2, X)
        assert req(mgr, "t1", 2, X)[0] is BLOCKED
        # t2 -> 1 closes the cycle: requester is the victim.
        assert req(mgr, "t2", 1, X)[0] is DEADLOCK
        assert mgr.local_deadlocks == 1

    def test_victim_is_not_queued(self):
        mgr = LockManager("A")
        req(mgr, "t1", 1, X)
        req(mgr, "t2", 2, X)
        req(mgr, "t1", 2, X)
        req(mgr, "t2", 1, X)
        assert not mgr.is_blocked("t2")
        assert mgr.is_blocked("t1")

    def test_three_cycle_detected(self):
        mgr = LockManager("A")
        req(mgr, "t1", 1, X)
        req(mgr, "t2", 2, X)
        req(mgr, "t3", 3, X)
        assert req(mgr, "t1", 2, X)[0] is BLOCKED
        assert req(mgr, "t2", 3, X)[0] is BLOCKED
        assert req(mgr, "t3", 1, X)[0] is DEADLOCK

    def test_reader_writer_cycle_detected(self):
        mgr = LockManager("A")
        req(mgr, "r", 1, S)
        req(mgr, "w", 2, X)
        assert req(mgr, "r", 2, S)[0] is BLOCKED
        assert req(mgr, "w", 1, X)[0] is DEADLOCK

    def test_no_false_positive_on_chain(self):
        """A waits-for chain without a cycle is just blocking."""
        mgr = LockManager("A")
        req(mgr, "t1", 1, X)
        req(mgr, "t2", 2, X)
        assert req(mgr, "t2", 1, X)[0] is BLOCKED
        assert req(mgr, "t3", 2, X)[0] is BLOCKED
        assert mgr.local_deadlocks == 0

    def test_blockers_reports_wfg_edges(self):
        mgr = LockManager("A")
        req(mgr, "t1", 1, X)
        req(mgr, "t2", 1, X)
        assert mgr.blockers("t2") == ["t1"]
        assert mgr.blockers("t1") == []

    def test_blockers_includes_incompatible_earlier_waiters(self):
        mgr = LockManager("A")
        req(mgr, "r1", 1, S)
        req(mgr, "w", 1, X)
        req(mgr, "r2", 1, S)
        assert mgr.blockers("r2") == ["w"]

    def test_blockers_order_is_grant_then_queue(self):
        """Holders in grant order, then earlier waiters in queue order:
        never hash order, so probe chasing repeats across runs."""
        mgr = LockManager("A")
        for txn in ("r3", "r1", "r2"):
            req(mgr, txn, 1, S)
        req(mgr, "w2", 1, X)
        req(mgr, "w1", 1, X)
        assert mgr.blockers("w1") == ["r3", "r1", "r2", "w2"]

    def test_statistics(self):
        mgr = LockManager("A")
        req(mgr, "t1", 1, X)
        req(mgr, "t2", 1, X)
        assert mgr.requests == 2
        assert mgr.blocks == 1
        assert list(mgr.waiting_transactions()) == ["t2"]
