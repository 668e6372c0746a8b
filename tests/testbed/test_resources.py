"""Unit tests for FCFS resources, pools and mailboxes."""

import pytest

from repro.errors import SimulationError
from repro.testbed.des import Simulator, Timeout
from repro.testbed.resources import CountingPool, FcfsResource, Mailbox


class TestFcfsResource:
    def test_serializes_in_fifo_order(self):
        sim = Simulator()
        res = FcfsResource(sim, "cpu")
        log = []

        def proc(name, arrival):
            yield Timeout(arrival)
            yield from res.use(10.0)
            log.append((name, sim.now))

        sim.spawn(proc("first", 0.0))
        sim.spawn(proc("second", 1.0))
        sim.spawn(proc("third", 2.0))
        sim.run()
        assert log == [("first", 10.0), ("second", 20.0),
                       ("third", 30.0)]

    def test_utilization_accounting(self):
        sim = Simulator()
        res = FcfsResource(sim, "disk")

        def proc():
            yield from res.use(30.0)

        sim.spawn(proc())
        sim.run(until=100.0)
        assert res.utilization(100.0) == pytest.approx(0.3)
        assert res.completions == 1

    def test_utilization_counts_in_progress_service(self):
        sim = Simulator()
        res = FcfsResource(sim, "disk")

        def proc():
            yield from res.use(80.0)

        sim.spawn(proc())
        sim.run(until=40.0)
        assert res.utilization(40.0) == pytest.approx(1.0)

    def test_reset_stats_discards_history(self):
        sim = Simulator()
        res = FcfsResource(sim, "disk")

        def proc():
            yield from res.use(10.0)
            res.reset_stats()
            yield Timeout(10.0)
            yield from res.use(10.0)

        sim.spawn(proc())
        sim.run()
        # After reset: 10 busy out of 20 elapsed.
        assert res.utilization() == pytest.approx(0.5)
        assert res.completions == 1

    def test_acquire_release_critical_section(self):
        sim = Simulator()
        res = FcfsResource(sim, "tm")
        log = []

        def holder():
            yield from res.acquire()
            yield Timeout(50.0)
            res.release()
            log.append(("holder-out", sim.now))

        def contender():
            yield Timeout(1.0)
            yield from res.use(5.0)
            log.append(("contender-out", sim.now))

        sim.spawn(holder())
        sim.spawn(contender())
        sim.run()
        assert log == [("holder-out", 50.0), ("contender-out", 55.0)]

    def test_release_idle_rejected(self):
        sim = Simulator()
        res = FcfsResource(sim, "cpu")
        with pytest.raises(SimulationError):
            res.release()

    def test_negative_duration_rejected(self):
        sim = Simulator()
        res = FcfsResource(sim, "cpu")
        with pytest.raises(SimulationError):
            list(res.use(-1.0))

    def test_simultaneous_requests_on_idle_server(self):
        """Two requests at the same instant: the first takes the idle
        server, the second queues; FIFO service, and every step is
        accounted for."""
        sim = Simulator()
        res = FcfsResource(sim, "cpu")
        log = []

        def proc(name):
            yield from res.use(10.0)
            log.append((name, sim.now))

        sim.spawn(proc("a"))
        sim.spawn(proc("b"))
        sim.run()
        assert log == [("a", 10.0), ("b", 20.0)]
        # a: start (takes the server), zero-delay grant step, end of
        # service; b: start (queues), hand-over wake-up, end of service.
        assert sim._steps == 6
        assert res.completions == 2
        assert res.busy_time == 20.0


class TestCountingPool:
    def test_blocks_when_exhausted(self):
        sim = Simulator()
        pool = CountingPool(sim, "dm", size=1)
        log = []

        def proc(name, hold):
            yield from pool.acquire()
            log.append((name, "in", sim.now))
            yield Timeout(hold)
            pool.release()

        sim.spawn(proc("a", 10.0))
        sim.spawn(proc("b", 5.0))
        sim.run()
        assert log == [("a", "in", 0.0), ("b", "in", 10.0)]

    def test_counts_and_peak(self):
        sim = Simulator()
        pool = CountingPool(sim, "dm", size=3)

        def proc():
            yield from pool.acquire()
            yield Timeout(5.0)
            pool.release()

        for _ in range(3):
            sim.spawn(proc())
        sim.run()
        assert pool.peak_in_use == 3
        assert pool.available == 3

    def test_release_without_acquire_rejected(self):
        sim = Simulator()
        pool = CountingPool(sim, "dm", size=1)
        with pytest.raises(SimulationError):
            pool.release()

    def test_zero_size_rejected(self):
        with pytest.raises(SimulationError):
            CountingPool(Simulator(), "dm", size=0)


class TestMailbox:
    def test_fifo_delivery(self):
        sim = Simulator()
        box = Mailbox(sim, "tm")
        got = []

        def receiver():
            for _ in range(3):
                msg = yield from box.get()
                got.append(msg)

        def sender():
            for i in range(3):
                yield Timeout(1.0)
                box.put(i)

        sim.spawn(receiver())
        sim.spawn(sender())
        sim.run()
        assert got == [0, 1, 2]

    def test_blocking_receive(self):
        sim = Simulator()
        box = Mailbox(sim, "tm")
        got = []

        def receiver():
            msg = yield from box.get()
            got.append((sim.now, msg))

        def sender():
            yield Timeout(7.0)
            box.put("late")

        sim.spawn(receiver())
        sim.spawn(sender())
        sim.run()
        assert got == [(7.0, "late")]

    def test_buffered_messages_survive(self):
        sim = Simulator()
        box = Mailbox(sim, "tm")
        box.put("early")
        got = []

        def receiver():
            msg = yield from box.get()
            got.append(msg)

        sim.spawn(receiver())
        sim.run()
        assert got == ["early"]
        assert box.delivered == 1
