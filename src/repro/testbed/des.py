"""Discrete-event simulation kernel.

A minimal, deterministic process-oriented DES (simpy is not available
offline, so this is built from scratch).  Processes are Python
generators that ``yield`` *commands*:

``Timeout(delay)``
    Suspend for ``delay`` time units.
``Wait(event)``
    Suspend until the :class:`Event` fires; the event's payload is the
    value of the ``yield`` expression.
``Fork(generator)``
    Start a child process immediately (the parent keeps running) and
    receive its :class:`Process` handle.
``Serve(resource, delay)``
    Queue FCFS for a single server, hold it for ``delay`` time units
    and release it (made by
    :meth:`~repro.testbed.resources.FcfsResource.serve`).  The kernel
    runs the whole service: the process resumes once, after the
    release.  With ``delay=None`` the server is held until the
    process releases it
    (:meth:`~repro.testbed.resources.FcfsResource.acquire`).

The kernel is deterministic: simultaneous events fire in scheduling
order.  Each heap entry is a ``(time, seq, process, payload)`` tuple
whose ``seq`` is unique and increasing, so ``(time, seq)`` orders
every entry and ties never compare the process.
"""

from __future__ import annotations

import math
from collections.abc import Generator
from heapq import heappop, heappush
from typing import TYPE_CHECKING, Any

from repro.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.testbed.resources import FcfsResource

__all__ = ["Event", "Timeout", "Wait", "Fork", "Serve", "Process",
           "Simulator"]


class Event:
    """A one-shot event processes can wait on.

    An event may be fired with an optional payload; every waiter is
    resumed with that payload.  Waiting on an already-fired event
    resumes immediately.
    """

    __slots__ = ("_sim", "fired", "payload", "_waiters")

    def __init__(self, sim: Simulator):
        self._sim = sim
        self.fired = False
        self.payload: Any = None
        self._waiters: list[Process] = []

    def fire(self, payload: Any = None) -> None:
        """Fire the event, waking every waiter at the current time."""
        if self.fired:
            raise SimulationError("event fired twice")
        self.fired = True
        self.payload = payload
        waiters, self._waiters = self._waiters, []
        for process in waiters:
            self._sim._wake(process, payload)

    def add_waiter(self, process: Process) -> None:
        if self.fired:
            self._sim._wake(process, self.payload)
        else:
            self._waiters.append(process)


class Timeout:
    """Yieldable: suspend the process for ``delay`` time units."""

    __slots__ = ("delay",)

    def __init__(self, delay: float):
        if delay < 0:
            raise SimulationError(f"negative timeout {delay}")
        self.delay = delay

    def __repr__(self) -> str:
        return f"Timeout({self.delay!r})"


class Wait:
    """Yieldable: suspend until ``event`` fires."""

    __slots__ = ("event",)

    def __init__(self, event: Event):
        self.event = event

    def __repr__(self) -> str:
        return f"Wait({self.event!r})"


class Fork:
    """Yieldable: start a child process; resumes immediately with its
    :class:`Process` handle."""

    __slots__ = ("generator",)

    def __init__(self, generator: Generator):
        self.generator = generator

    def __repr__(self) -> str:
        return f"Fork({self.generator!r})"


class Serve:
    """Yieldable: queue for *resource*, hold it for ``delay`` time units,
    release it; or, with ``delay=None``, hold it until the process
    calls ``resource.release()``.

    The kernel passes the command to ``resource._take``: on an idle
    server the kernel schedules the start at once; on a busy one the
    command waits in the resource's FIFO until ``release`` hands the
    server over and schedules its start.  A timed service takes two
    heap entries, like a request waking on a grant followed by a
    ``Timeout``: the start at the time the server is taken, then the
    completion ``delay`` later, which releases the server and resumes
    the process.  A hold takes one: its start resumes the process.
    """

    __slots__ = ("resource", "delay", "process", "started")

    def __init__(self, resource: FcfsResource, delay: float | None):
        if delay is not None and delay < 0:
            raise SimulationError(f"negative service time {delay}")
        self.resource = resource
        self.delay = delay
        #: the requester, once the command is queued or started
        self.process: Process | None = None
        #: set when the start entry has scheduled the completion
        self.started = False

    def __repr__(self) -> str:
        return f"Serve({self.resource.name!r}, {self.delay!r})"


class Process:
    """Handle for a running simulation process."""

    __slots__ = ("generator", "name", "done", "result", "completion")

    def __init__(self, sim: Simulator, generator: Generator,
                 name: str = ""):
        self.generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        self.done = False
        self.result: Any = None
        self.completion = Event(sim)


class Simulator:
    """The event loop.

    Typical use::

        sim = Simulator()
        sim.spawn(my_process(sim))
        sim.run(until=100_000.0)
    """

    def __init__(self) -> None:
        self.now = 0.0
        #: ``(time, seq, process, payload)`` entries
        self._heap: list[tuple[float, int, Process, Any]] = []
        self._seq = 0
        #: events processed so far (``benchmarks/e2e`` reports it)
        self._steps = 0

    # -- process management ------------------------------------------------

    def spawn(self, generator: Generator, name: str = "") -> Process:
        """Register a new process and schedule its first step now."""
        process = Process(self, generator, name)
        self._wake(process, None)
        return process

    def event(self) -> Event:
        """Create a fresh one-shot event."""
        return Event(self)

    def _wake(self, process: Process, payload: Any) -> None:
        """Schedule *process* to resume at the current time."""
        self._seq += 1
        heappush(self._heap, (self.now, self._seq, process, payload))

    # -- main loop ----------------------------------------------------------

    def run(self, until: float | None = None,
            max_steps: int | None = None) -> None:
        """Run until the horizon, event exhaustion, or a step budget.

        Parameters
        ----------
        until:
            Simulation-time horizon; events scheduled beyond it stay
            queued (so a subsequent ``run`` can continue).  A horizon
            earlier than ``now`` is a
            :class:`~repro.errors.SimulationError`.
        max_steps:
            Safety budget on processed events;
            :class:`~repro.errors.SimulationError` when exceeded.
        """
        if until is not None and until < self.now:
            raise SimulationError(
                f"horizon {until} is earlier than now ({self.now})"
            )
        horizon = math.inf if until is None else until
        budget = math.inf if max_steps is None else max_steps
        heap = self._heap
        step = self._step
        steps = self._steps
        try:
            while heap:
                if heap[0][0] > horizon:
                    break
                time, _, process, payload = heappop(heap)
                self.now = time
                steps += 1
                if steps > budget:
                    raise SimulationError(
                        f"simulation exceeded {max_steps} steps"
                    )
                step(process, payload)
        finally:
            self._steps = steps
        if until is not None:
            self.now = until

    def _step(self, process: Process, payload: Any) -> None:
        if process.done:
            return
        if isinstance(payload, Serve):
            if payload.started:
                # Service completion: hand the server over, then resume.
                payload.resource.release()
            elif payload.delay is not None:
                # Service start: schedule the completion; the process
                # stays suspended.
                payload.started = True
                self._seq += 1
                heappush(self._heap, (self.now + payload.delay,
                                      self._seq, process, payload))
                return
            # (A hold's start resumes the holder.)
            payload = None
        generator = process.generator
        try:
            command = generator.send(payload)
            while True:
                if isinstance(command, Serve):
                    # delay >= 0 was checked when the Serve was made.
                    command.process = process
                    command.started = False
                    if command.resource._take(command):
                        self._seq += 1
                        heappush(self._heap, (self.now, self._seq,
                                              process, command))
                    return
                if isinstance(command, Timeout):
                    # delay >= 0 was checked when the Timeout was made.
                    self._seq += 1
                    heappush(self._heap, (self.now + command.delay,
                                          self._seq, process, None))
                    return
                if isinstance(command, Wait):
                    command.event.add_waiter(process)
                    return
                if not isinstance(command, Fork):
                    raise SimulationError(
                        f"process {process.name!r} yielded {command!r}; "
                        f"expected Timeout, Wait, or Fork (or the Serve of "
                        f"FcfsResource.serve)"
                    )
                command = generator.send(self.spawn(command.generator))
        except StopIteration as stop:
            process.done = True
            process.result = stop.value
            process.completion.fire(stop.value)
