"""Unit tests for FCFS resources, pools and mailboxes."""

import random
from collections import deque

import pytest

from repro.errors import SimulationError
from repro.testbed.des import Fork, Serve, Simulator, Timeout, Wait
from repro.testbed.resources import CountingPool, FcfsResource, Mailbox


class GrantEventServer:
    """Reference FCFS server built on the generic commands only: take
    an idle server with a zero-delay ``Timeout`` or wait on a grant
    ``Event`` fired at hand-over, hold it with a ``Timeout``, release."""

    def __init__(self, sim):
        self.sim = sim
        self.busy = False
        self.queue = deque()
        self.busy_time = 0.0
        self.completions = 0
        self.busy_since = 0.0
        self.stats_start = 0.0

    def use(self, duration):
        if self.busy or self.queue:
            grant = self.sim.event()
            self.queue.append(grant)
            yield Wait(grant)
        else:
            self.busy = True
            self.busy_since = self.sim.now
            yield Timeout(0.0)
        yield Timeout(duration)
        self.completions += 1
        if self.queue:
            self.queue.popleft().fire()
        else:
            self.busy = False
            self.busy_time += self.sim.now - self.busy_since

    @property
    def queue_length(self):
        return len(self.queue)

    def reset_stats(self):
        self.busy_time = 0.0
        self.completions = 0
        self.stats_start = self.sim.now
        if self.busy:
            self.busy_since = self.sim.now

    def utilization(self):
        busy = self.busy_time
        if self.busy:
            busy += self.sim.now - self.busy_since
        return busy / (self.sim.now - self.stats_start)


class TestFcfsResource:
    def test_serializes_in_fifo_order(self):
        sim = Simulator()
        res = FcfsResource(sim, "cpu")
        log = []

        def proc(name, arrival):
            yield Timeout(arrival)
            yield res.serve(10.0)
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
            yield res.serve(30.0)

        sim.spawn(proc())
        sim.run(until=100.0)
        assert res.utilization(100.0) == pytest.approx(0.3)
        assert res.completions == 1

    def test_utilization_counts_in_progress_service(self):
        sim = Simulator()
        res = FcfsResource(sim, "disk")

        def proc():
            yield res.serve(80.0)

        sim.spawn(proc())
        sim.run(until=40.0)
        assert res.utilization(40.0) == pytest.approx(1.0)

    def test_reset_stats_discards_history(self):
        sim = Simulator()
        res = FcfsResource(sim, "disk")

        def proc():
            yield res.serve(10.0)
            res.reset_stats()
            yield Timeout(10.0)
            yield res.serve(10.0)

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
            yield res.serve(5.0)
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
            res.serve(-1.0)

    def test_simultaneous_requests_on_idle_server(self):
        """Two requests at the same instant: the first takes the idle
        server, the second queues; FIFO service, and every step is
        accounted for."""
        sim = Simulator()
        res = FcfsResource(sim, "cpu")
        log = []

        def proc(name):
            yield res.serve(10.0)
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


class TestServe:
    """``yield resource.serve(d)`` is a kernel command; ``acquire`` /
    ``release`` holders wait in the same FIFO."""

    def test_serve_returns_the_command(self):
        sim = Simulator()
        res = FcfsResource(sim, "cpu")
        command = res.serve(2.5)
        assert isinstance(command, Serve)
        assert command.resource is res and command.delay == 2.5
        assert repr(command) == "Serve('cpu', 2.5)"

    def test_handover_from_holder_to_queued_serves(self):
        sim = Simulator()
        res = FcfsResource(sim, "tm")
        log = []

        def holder():
            yield from res.acquire()
            yield Timeout(10.0)
            res.release()
            log.append(("holder", sim.now))

        def server(name, arrival, duration):
            yield Timeout(arrival)
            yield res.serve(duration)
            log.append((name, sim.now))

        sim.spawn(holder())
        sim.spawn(server("s1", 1.0, 3.0))
        sim.spawn(server("s2", 2.0, 4.0))
        sim.run()
        assert log == [("holder", 10.0), ("s1", 13.0), ("s2", 17.0)]
        assert res.completions == 3
        assert res.busy_time == 17.0

    def test_acquire_is_a_hold_without_events(self):
        """``acquire`` yields a ``Serve`` with no delay: queued holders
        are handed the server in FIFO order and no ``Event`` is made."""
        sim = Simulator()
        res = FcfsResource(sim, "tm")
        sim.event = None                 # any Event would fail here
        log = []

        def holder(name, hold):
            yield from res.acquire()
            log.append((name, sim.now))
            yield Timeout(hold)
            res.release()

        for name, hold in (("h1", 2.0), ("h2", 3.0), ("h3", 1.0)):
            sim.spawn(holder(name, hold))
        sim.run()
        assert log == [("h1", 0.0), ("h2", 2.0), ("h3", 5.0)]
        assert res.completions == 3 and res.busy_time == 6.0

    def test_mixed_queue_is_fifo(self):
        """Serves and acquire holders queued behind one server are
        granted strictly in arrival order, whichever kind releases."""
        sim = Simulator()
        res = FcfsResource(sim, "tm")
        log = []

        def server(name, arrival, duration):
            yield Timeout(arrival)
            yield res.serve(duration)
            log.append((name, "out", sim.now))

        def holder(name, arrival, hold):
            yield Timeout(arrival)
            yield from res.acquire()
            log.append((name, "in", sim.now))
            yield Timeout(hold)
            res.release()

        sim.spawn(server("s1", 0.0, 5.0))
        sim.spawn(holder("h1", 1.0, 2.0))
        sim.spawn(server("s2", 2.0, 1.0))
        sim.spawn(holder("h2", 3.0, 4.0))
        sim.spawn(server("s3", 4.0, 3.0))

        def probe():
            yield Timeout(4.5)
            log.append(("queue", res.queue_length, sim.now))

        sim.spawn(probe())
        sim.run()
        assert log == [("queue", 4, 4.5),
                       ("s1", "out", 5.0), ("h1", "in", 5.0),
                       ("s2", "out", 8.0), ("h2", "in", 8.0),
                       ("s3", "out", 15.0)]
        assert res.completions == 5
        assert res.queue_length == 0
        assert res.busy_time == 15.0

    def test_negative_duration_raises_at_the_call_site(self):
        sim = Simulator()
        res = FcfsResource(sim, "cpu")
        reached = []

        def proc():
            yield Timeout(1.0)
            command = res.serve(-0.5)
            reached.append(command)      # never runs
            yield command

        sim.spawn(proc())
        with pytest.raises(SimulationError, match="negative service"):
            sim.run()
        assert reached == []
        assert sim.now == 1.0
        assert res.completions == 0 and res.queue_length == 0

    def test_matches_acquire_timeout_release_on_seeded_mm1(self):
        """The kernel-run service, an ``acquire``/``Timeout``/
        ``release`` holder and a grant-``Event`` server built on the
        generic commands (the protocol ``serve`` replaced) schedule the
        same heap entries: same steps, same responses, same resource
        statistics and queue lengths at every probe."""
        def held(res, duration):
            yield from res.acquire()
            yield Timeout(duration)
            res.release()

        def run(protocol):
            sim = Simulator()
            if protocol == "grant-event":
                res = GrantEventServer(sim)
            else:
                res = FcfsResource(sim, "q")
            rng = random.Random(42)
            responses, queue = [], []

            def customer(duration):
                start = sim.now
                if protocol == "serve":
                    yield res.serve(duration)
                elif protocol == "hold":
                    yield from held(res, duration)
                else:
                    yield from res.use(duration)
                responses.append(sim.now - start)

            def source():
                while True:
                    yield Timeout(rng.expovariate(0.8))
                    yield Fork(customer(rng.expovariate(1.0)))

            def probe():
                while True:
                    yield Timeout(25.0)
                    queue.append(res.queue_length)

            sim.spawn(source())
            sim.spawn(probe())
            sim.run(until=1_000.0)
            res.reset_stats()
            sim.run(until=5_000.0)
            return (sim._steps, responses, queue, res.busy_time,
                    res.completions, res.utilization())

        served = run("serve")
        assert served == run("hold")
        assert served == run("grant-event")
        assert served[4] > 3_000          # completions in the window
        assert max(served[2]) > 1         # the queue did build up

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
