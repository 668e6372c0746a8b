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

The kernel is deterministic: simultaneous events fire in scheduling
order (a monotonically increasing sequence number breaks time ties).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from collections.abc import Generator
from typing import Any

from repro.errors import SimulationError

__all__ = ["Event", "Timeout", "Wait", "Fork", "Process", "Simulator"]


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
            self._sim._schedule(self._sim.now, process, payload)

    def add_waiter(self, process: Process) -> None:
        if self.fired:
            self._sim._schedule(self._sim.now, process, self.payload)
        else:
            self._waiters.append(process)


@dataclass(frozen=True)
class Timeout:
    """Yieldable: suspend the process for ``delay`` time units."""

    delay: float

    def __post_init__(self) -> None:
        if self.delay < 0:
            raise SimulationError(f"negative timeout {self.delay}")


@dataclass(frozen=True)
class Wait:
    """Yieldable: suspend until ``event`` fires."""

    event: Event


@dataclass(frozen=True)
class Fork:
    """Yieldable: start a child process; resumes immediately with its
    :class:`Process` handle."""

    generator: Generator


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


@dataclass(order=True)
class _Scheduled:
    time: float
    seq: int
    process: Process = field(compare=False)
    payload: Any = field(compare=False, default=None)


class Simulator:
    """The event loop.

    Typical use::

        sim = Simulator()
        sim.spawn(my_process(sim))
        sim.run(until=100_000.0)
    """

    def __init__(self) -> None:
        self.now = 0.0
        self._heap: list[_Scheduled] = []
        self._seq = 0
        self._steps = 0

    # -- process management ------------------------------------------------

    def spawn(self, generator: Generator, name: str = "") -> Process:
        """Register a new process and schedule its first step now."""
        process = Process(self, generator, name)
        self._schedule(self.now, process, None)
        return process

    def event(self) -> Event:
        """Create a fresh one-shot event."""
        return Event(self)

    def _schedule(self, time: float, process: Process,
                  payload: Any) -> None:
        if time < self.now:
            raise SimulationError(
                f"cannot schedule into the past ({time} < {self.now})"
            )
        self._seq += 1
        heapq.heappush(self._heap, _Scheduled(time, self._seq, process,
                                              payload))

    # -- main loop ----------------------------------------------------------

    def run(self, until: float | None = None,
            max_steps: int | None = None) -> None:
        """Run until the horizon, event exhaustion, or a step budget.

        Parameters
        ----------
        until:
            Simulation-time horizon; events scheduled beyond it stay
            queued (so a subsequent ``run`` can continue).
        max_steps:
            Safety budget on processed events;
            :class:`~repro.errors.SimulationError` when exceeded.
        """
        while self._heap:
            if until is not None and self._heap[0].time > until:
                self.now = until
                return
            item = heapq.heappop(self._heap)
            self.now = item.time
            self._steps += 1
            if max_steps is not None and self._steps > max_steps:
                raise SimulationError(
                    f"simulation exceeded {max_steps} steps"
                )
            self._step(item.process, item.payload)
        if until is not None:
            self.now = until

    def _step(self, process: Process, payload: Any) -> None:
        if process.done:
            return
        try:
            command = process.generator.send(payload)
        except StopIteration as stop:
            process.done = True
            process.result = stop.value
            process.completion.fire(stop.value)
            return
        while True:
            if isinstance(command, Timeout):
                self._schedule(self.now + command.delay, process, None)
                return
            if isinstance(command, Wait):
                command.event.add_waiter(process)
                return
            if isinstance(command, Fork):
                child = self.spawn(command.generator)
                try:
                    command = process.generator.send(child)
                except StopIteration as stop:
                    process.done = True
                    process.result = stop.value
                    process.completion.fire(stop.value)
                    return
                continue
            raise SimulationError(
                f"process {process.name!r} yielded {command!r}; expected "
                f"Timeout, Wait, or Fork"
            )
