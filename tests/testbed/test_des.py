"""Unit tests for the discrete-event simulation kernel."""

import sys

import pytest

from repro.errors import SimulationError
from repro.model.parameters import paper_sites
from repro.model.workload import mb8
from repro.testbed.des import Fork, Simulator, Timeout, Wait
from repro.testbed.executor import ABORTED
from repro.testbed.resources import FcfsResource
from repro.testbed.system import CaratSimulation, SimulationConfig


class TestTimeouts:
    def test_time_advances(self):
        sim = Simulator()
        log = []

        def process():
            yield Timeout(5.0)
            log.append(sim.now)
            yield Timeout(2.5)
            log.append(sim.now)

        sim.spawn(process())
        sim.run()
        assert log == [5.0, 7.5]

    def test_simultaneous_events_fire_in_spawn_order(self):
        sim = Simulator()
        log = []

        def proc(name):
            yield Timeout(1.0)
            log.append(name)

        for name in ("a", "b", "c"):
            sim.spawn(proc(name))
        sim.run()
        assert log == ["a", "b", "c"]

    def test_negative_timeout_rejected(self):
        with pytest.raises(SimulationError):
            Timeout(-1.0)

    def test_run_until_horizon(self):
        sim = Simulator()
        log = []

        def proc():
            for _ in range(10):
                yield Timeout(1.0)
                log.append(sim.now)

        sim.spawn(proc())
        sim.run(until=4.5)
        assert log == [1.0, 2.0, 3.0, 4.0]
        assert sim.now == 4.5
        # Can continue afterwards.
        sim.run(until=6.0)
        assert log[-1] == 6.0

    def test_horizon_before_now_rejected(self):
        """A second run may not rewind the clock."""
        sim = Simulator()
        log = []

        def proc():
            for _ in range(20):
                yield Timeout(1.0)
                log.append(sim.now)

        sim.spawn(proc())
        sim.run(until=10.0)
        with pytest.raises(SimulationError, match="earlier than now"):
            sim.run(until=5.0)
        assert sim.now == 10.0
        sim.run(until=12.0)
        assert log[-2:] == [11.0, 12.0]

    def test_horizon_equal_to_now_is_a_no_op(self):
        sim = Simulator()

        def proc():
            yield Timeout(1.0)

        sim.spawn(proc())
        sim.run(until=0.0)
        assert sim.now == 0.0
        assert sim._steps == 1

    def test_max_steps_budget(self):
        sim = Simulator()

        def forever():
            while True:
                yield Timeout(1.0)

        sim.spawn(forever())
        with pytest.raises(SimulationError):
            sim.run(max_steps=100)


class TestEvents:
    def test_event_wakes_waiter_with_payload(self):
        sim = Simulator()
        event = sim.event()
        got = []

        def waiter():
            payload = yield Wait(event)
            got.append((sim.now, payload))

        def firer():
            yield Timeout(3.0)
            event.fire("hello")

        sim.spawn(waiter())
        sim.spawn(firer())
        sim.run()
        assert got == [(3.0, "hello")]

    def test_wait_on_fired_event_resumes_immediately(self):
        sim = Simulator()
        event = sim.event()
        event.fire(42)
        got = []

        def waiter():
            payload = yield Wait(event)
            got.append(payload)

        sim.spawn(waiter())
        sim.run()
        assert got == [42]

    def test_multiple_waiters_all_wake(self):
        sim = Simulator()
        event = sim.event()
        got = []

        def waiter(i):
            yield Wait(event)
            got.append(i)

        for i in range(3):
            sim.spawn(waiter(i))
        event.fire()
        sim.run()
        assert sorted(got) == [0, 1, 2]

    def test_double_fire_rejected(self):
        sim = Simulator()
        event = sim.event()
        event.fire()
        with pytest.raises(SimulationError):
            event.fire()


class TestServeCommand:
    def test_queued_serve_of_a_done_process_is_ignored(self):
        """The hand-over schedules the queued Serve's start; a process
        marked done is not resumed and its service never begins."""
        sim = Simulator()
        res = FcfsResource(sim, "cpu")
        log = []

        def proc(name, duration):
            yield res.serve(duration)
            log.append((name, sim.now))

        sim.spawn(proc("first", 5.0))
        queued = sim.spawn(proc("queued", 1.0))
        sim.run(until=2.0)
        assert res.queue_length == 1
        queued.done = True
        sim.run()
        assert log == [("first", 5.0)]
        assert sim.now == 5.0          # no completion was scheduled
        assert res.completions == 1
        assert res.queue_length == 0

    def test_completion_of_a_done_process_is_ignored(self):
        """A process marked done while in service is neither resumed
        nor does its completion release the server."""
        sim = Simulator()
        res = FcfsResource(sim, "cpu")
        log = []

        def proc():
            yield res.serve(5.0)
            log.append(sim.now)

        process = sim.spawn(proc())
        sim.run(until=2.0)
        process.done = True
        sim.run()
        assert log == []
        assert res.completions == 0
        assert sim.now == 5.0
        assert res.utilization() == 1.0    # still held

    def test_serve_is_one_resume_per_service(self):
        sim = Simulator()
        res = FcfsResource(sim, "cpu")
        resumes = []

        def proc():
            for _ in range(3):
                yield res.serve(2.0)
                resumes.append(sim.now)

        sim.spawn(proc())
        sim.run()
        assert resumes == [2.0, 4.0, 6.0]
        # spawn, then a start and a completion entry per service
        assert sim._steps == 7


class TestLockWaitEvents:
    def test_only_blocked_lock_requests_create_an_event(self):
        """On the seeded MB8 n=20 run with global deadlocks, the
        executor makes a lock-wait ``Event`` exactly for the requests
        that block, and the global-deadlock victims are still woken
        with ABORTED through it."""
        simulation = CaratSimulation(SimulationConfig(
            workload=mb8(20), sites=paper_sites(), seed=3,
            warmup_ms=0.0, duration_ms=60_000.0))
        make_event = simulation.sim.event
        lock_events = []

        def spy():
            event = make_event()
            if sys._getframe(1).f_code.co_name == "_acquire_lock":
                lock_events.append(event)
            return event

        simulation.sim.event = spy
        simulation.run()
        managers = [node.locks for node in simulation.nodes.values()]
        requests = sum(m.requests for m in managers)
        blocked = sum(m.blocks - m.local_deadlocks for m in managers)
        assert len(lock_events) == blocked
        assert blocked == sum(simulation.metrics.lock_waits.values())
        assert 0 < blocked < requests / 10
        payloads = [event.payload for event in lock_events if event.fired]
        assert payloads.count(ABORTED) == \
            simulation.detector.deadlocks_found == 2


class TestForkAndCompletion:
    def test_fork_returns_handle_and_runs_child(self):
        sim = Simulator()
        log = []

        def child():
            yield Timeout(2.0)
            log.append("child")
            return "result"

        def parent():
            handle = yield Fork(child())
            log.append("parent-continues")
            value = yield Wait(handle.completion)
            log.append(value)

        sim.spawn(parent())
        sim.run()
        assert log == ["parent-continues", "child", "result"]

    def test_process_result_recorded(self):
        sim = Simulator()

        def proc():
            yield Timeout(1.0)
            return 99

        handle = sim.spawn(proc())
        sim.run()
        assert handle.done
        assert handle.result == 99

    def test_invalid_yield_raises(self):
        sim = Simulator()

        def proc():
            yield "garbage"

        sim.spawn(proc())
        with pytest.raises(SimulationError):
            sim.run()

    def test_invalid_yield_names_process_and_object(self):
        sim = Simulator()

        def proc():
            yield Timeout(1.0)
            yield 42

        sim.spawn(proc(), name="clerk")
        with pytest.raises(SimulationError,
                           match=r"'clerk' yielded 42; expected Timeout, "
                                 r"Wait, or Fork"):
            sim.run()

    def test_invalid_yield_after_fork_raises(self):
        sim = Simulator()

        def child():
            yield Timeout(1.0)

        def proc():
            yield Fork(child())
            yield object()

        sim.spawn(proc(), name="parent")
        with pytest.raises(SimulationError, match="'parent' yielded"):
            sim.run()

    def test_command_subclasses_still_dispatch(self):
        """Exact-type dispatch is a fast path; subclasses of the
        commands take the isinstance fallback."""
        class Delay(Timeout):
            __slots__ = ()

        class Await(Wait):
            __slots__ = ()

        sim = Simulator()
        event = sim.event()
        log = []

        def proc():
            yield Delay(2.0)
            log.append(sim.now)
            payload = yield Await(event)
            log.append(payload)

        def firer():
            yield Timeout(3.0)
            event.fire("go")

        sim.spawn(proc())
        sim.spawn(firer())
        sim.run()
        assert log == [2.0, "go"]

    def test_commands_have_readable_reprs(self):
        sim = Simulator()
        event = sim.event()
        assert repr(Timeout(2.5)) == "Timeout(2.5)"
        assert repr(Wait(event)).startswith("Wait(<")
        assert repr(Fork(None)) == "Fork(None)"

    def test_determinism_under_replay(self):
        """Two identical simulations produce identical traces."""
        def build():
            sim = Simulator()
            log = []

            def proc(name, delay):
                for i in range(5):
                    yield Timeout(delay)
                    log.append((sim.now, name, i))

            sim.spawn(proc("x", 1.0))
            sim.spawn(proc("y", 1.5))
            sim.run()
            return log

        assert build() == build()
