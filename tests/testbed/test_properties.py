"""Property-based tests for the DES kernel, resources, and lock
manager (hypothesis)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.testbed.des import Simulator, Timeout
from repro.testbed.locks import LockManager, LockMode, \
    LockRequestOutcome
from repro.testbed.resources import FcfsResource


class TestDesProperties:
    @given(delays=st.lists(st.floats(0.0, 100.0), min_size=1,
                           max_size=20))
    @settings(max_examples=50, deadline=None)
    def test_events_fire_in_time_order(self, delays):
        sim = Simulator()
        log = []

        def proc(delay):
            yield Timeout(delay)
            log.append(sim.now)

        for delay in delays:
            sim.spawn(proc(delay))
        sim.run()
        assert log == sorted(log)
        assert len(log) == len(delays)

    @given(delays=st.lists(st.floats(0.1, 10.0), min_size=1,
                           max_size=10))
    @settings(max_examples=50, deadline=None)
    def test_sequential_timeouts_accumulate(self, delays):
        sim = Simulator()
        observed = []

        def proc():
            for delay in delays:
                yield Timeout(delay)
                observed.append(sim.now)

        sim.spawn(proc())
        sim.run()
        expected = []
        total = 0.0
        for delay in delays:
            total += delay
            expected.append(total)
        assert observed == pytest.approx(expected)


class TestFcfsResourceProperties:
    @given(services=st.lists(st.floats(0.1, 20.0), min_size=1,
                             max_size=15))
    @settings(max_examples=50, deadline=None)
    def test_work_conservation(self, services):
        """Total busy time equals total demanded service, and the
        last completion happens at exactly sum(services) when everyone
        arrives at time zero."""
        sim = Simulator()
        resource = FcfsResource(sim, "r")
        done = []

        def proc(duration):
            yield resource.serve(duration)
            done.append(sim.now)

        for duration in services:
            sim.spawn(proc(duration))
        sim.run()
        assert done[-1] == pytest.approx(sum(services))
        assert resource.busy_time == pytest.approx(sum(services))
        assert resource.completions == len(services)

    @given(services=st.lists(st.floats(0.1, 20.0), min_size=2,
                             max_size=15))
    @settings(max_examples=50, deadline=None)
    def test_fifo_completion_order(self, services):
        sim = Simulator()
        resource = FcfsResource(sim, "r")
        order = []

        def proc(index, duration):
            yield resource.serve(duration)
            order.append(index)

        for index, duration in enumerate(services):
            sim.spawn(proc(index, duration))
        sim.run()
        assert order == list(range(len(services)))


@st.composite
def lock_scripts(draw):
    """Random request/release sequences over a few transactions and
    granules.  Like the paper's workload, each transaction has a fixed
    mode (readers share, updaters lock exclusively) — CARAT never
    upgrades."""
    steps = []
    for _ in range(draw(st.integers(1, 40))):
        action = draw(st.sampled_from(["request", "release"]))
        index = draw(st.integers(0, 4))
        txn = f"t{index}"
        if action == "request":
            granule = draw(st.integers(0, 5))
            mode = (LockMode.SHARED if index % 2 == 0
                    else LockMode.EXCLUSIVE)
            steps.append(("request", txn, granule, mode))
        else:
            steps.append(("release", txn))
    return steps


class TestLockManagerProperties:
    @given(lock_scripts())
    @settings(max_examples=100, deadline=None)
    def test_invariants_hold_under_random_scripts(self, script):
        """Mutual exclusion, no self-blocking, grants only to
        compatible modes — for arbitrary request/release interleavings
        (skipping requests from transactions already blocked, which
        the executor never issues)."""
        mgr = LockManager("X")
        granted: dict[tuple[str, int], LockMode] = {}

        def grant_cb(txn, granule, mode):
            def fire():
                granted[(txn, granule)] = mode
            return fire

        blocked: set[str] = set()
        for step in script:
            if step[0] == "request":
                _, txn, granule, mode = step
                if txn in blocked:
                    continue
                outcome = mgr.request(txn, granule, mode)
                if outcome is LockRequestOutcome.GRANTED:
                    granted[(txn, granule)] = mode
                elif outcome is LockRequestOutcome.BLOCKED:
                    mgr.on_grant(txn, grant_cb(txn, granule, mode))
                    blocked.add(txn)
                # DEADLOCK: requester not queued; nothing to track.
            else:
                _, txn = step
                mgr.release_all(txn)
                blocked.discard(txn)
                granted = {(t, g): m for (t, g), m in granted.items()
                           if t != txn}
                # Releases may grant queued waiters; they are recorded
                # by their callbacks.  Unblock any txn that is no
                # longer waiting.
                still_waiting = set(mgr.waiting_transactions())
                blocked &= still_waiting

            # INVARIANT: an exclusively held granule has one holder.
            by_granule: dict[int, list[tuple[str, LockMode]]] = {}
            for (t, g), m in granted.items():
                by_granule.setdefault(g, []).append((t, m))
            for g, holders in by_granule.items():
                exclusive = [t for t, m in holders
                             if m is LockMode.EXCLUSIVE]
                if exclusive:
                    assert len(holders) == 1, (g, holders)

            # INVARIANT: blocked transactions are known to the table.
            for txn in blocked:
                assert mgr.is_blocked(txn)

    @given(lock_scripts())
    @settings(max_examples=60, deadline=None)
    def test_release_everything_empties_table(self, script):
        mgr = LockManager("X")
        touched = set()
        for step in script:
            if step[0] == "request":
                _, txn, granule, mode = step
                if mgr.is_blocked(txn):
                    continue
                outcome = mgr.request(txn, granule, mode)
                if outcome is LockRequestOutcome.BLOCKED:
                    mgr.on_grant(txn, lambda: None)
                touched.add(txn)
            else:
                mgr.release_all(step[1])
        for txn in sorted(touched):
            mgr.release_all(txn)
        assert mgr.lock_count() == 0
        assert list(mgr.waiting_transactions()) == []

    @given(lock_scripts())
    @settings(max_examples=100, deadline=None)
    def test_indexed_release_matches_full_scan(self, script):
        """Releasing through the per-transaction index hands locks over
        in the same order, and leaves the same table, as the original
        scan over every entry; remote aborts (``cancel_wait``) are
        interleaved on every other release step of a blocked txn."""

        class FullScan(LockManager):
            def release_all(self, txn):
                if txn in self._waiting_for:
                    self.cancel_wait(txn)
                self._held.pop(txn, None)
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

            def held_granules(self, txn):
                return [g for g, lock in self._locks.items()
                        if txn in lock.holders]

        managers = (LockManager("A"), FullScan("A"))
        logs: tuple[list, list] = ([], [])

        def step_all(action):
            return [action(mgr, log) for mgr, log in zip(managers, logs)]

        for i, step in enumerate(script):
            txn = step[1]
            if step[0] == "request":
                if managers[0].is_blocked(txn):
                    continue
                _, _, granule, mode = step

                def request(mgr, log):
                    outcome = mgr.request(txn, granule, mode)
                    if outcome is LockRequestOutcome.BLOCKED:
                        mgr.on_grant(txn, lambda: log.append(txn))
                    return outcome

                outcomes = step_all(request)
            elif i % 2 and managers[0].is_blocked(txn):
                outcomes = step_all(lambda mgr, _: mgr.cancel_wait(txn))
            else:
                outcomes = step_all(lambda mgr, _: mgr.release_all(txn))
            assert outcomes[0] == outcomes[1]
            assert logs[0] == logs[1]
            assert managers[0].lock_count() == managers[1].lock_count()
            assert list(managers[0]._locks) == list(managers[1]._locks)
            for t in (f"t{k}" for k in range(5)):
                assert (managers[0].held_granules(t)
                        == managers[1].held_granules(t))
