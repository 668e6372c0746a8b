"""Shared-resource primitives for the testbed simulator.

:class:`FcfsResource` models a single server with a FIFO queue (the CPU
and disks of a CARAT node).  :class:`Mailbox` is an unbounded FIFO
message queue with blocking receive (the TM/DM server message loops).
Both accumulate the statistics the experiments report (busy time for
utilizations, completion counts for I/O rates).
"""

from __future__ import annotations

from collections import deque
from collections.abc import Generator
from typing import Any

from repro.errors import SimulationError
from repro.testbed.des import Event, Serve, Simulator, Timeout, Wait

__all__ = ["FcfsResource", "CountingPool", "Mailbox"]

#: Shared zero-delay step: a request granted at once still costs one
#: scheduling step at ``now``, exactly like waking on a fired event.
_NOW = Timeout(0.0)


class FcfsResource:
    """A single exponential-or-deterministic server with a FIFO queue.

    Processes ``yield resource.serve(duration)`` to queue for the
    server, hold it for ``duration`` time units and release it; the
    kernel runs the service (:class:`~repro.testbed.des.Serve`).
    Critical sections that wait on other things while holding the
    server use ``yield from resource.acquire()`` and
    :meth:`release`.  Both kinds of request are ``Serve`` commands
    and wait in the same FIFO.
    """

    def __init__(self, sim: Simulator, name: str):
        self.sim = sim
        self.name = name
        self._busy = False
        #: waiting requests (timed ``Serve`` or hold), in arrival order
        self._queue: deque[Serve] = deque()
        # Statistics.
        self.busy_time = 0.0
        self.completions = 0
        self._busy_since = 0.0
        self._stats_start = 0.0

    def reset_stats(self) -> None:
        """Restart statistics collection at the current time (used to
        discard the warm-up period)."""
        self.busy_time = 0.0
        self.completions = 0
        self._stats_start = self.sim.now
        if self._busy:
            self._busy_since = self.sim.now

    def serve(self, duration: float) -> Serve:
        """The command ``yield resource.serve(duration)``: queue for the
        server, hold it for *duration*, release it.  A negative
        *duration* is a :class:`~repro.errors.SimulationError` here."""
        return Serve(self, duration)

    def acquire(self) -> Generator:
        """Queue for the server and hold it until :meth:`release`.

        For critical sections that interleave other waits while holding
        the resource (e.g. the TM server force-writing a log record).
        """
        yield Serve(self, None)

    def _take(self, request: Serve) -> bool:
        """Take the idle server for *request* (True: the kernel starts
        it now) or queue it until :meth:`release` hands the server
        over (False)."""
        if self._busy or self._queue:
            self._queue.append(request)
            return False
        self._busy = True
        self._busy_since = self.sim.now
        return True

    def release(self) -> None:
        """Release the server: a hold taken with :meth:`acquire`, or a
        ``Serve`` at its completion (the kernel calls this)."""
        if not self._busy:
            raise SimulationError(f"release of idle resource {self.name}")
        self.completions += 1
        if self._queue:
            # Hand over directly; the server stays busy and the head
            # request starts now.
            head = self._queue.popleft()
            self.sim._wake(head.process, head)
        else:
            self._busy = False
            self.busy_time += self.sim.now - self._busy_since

    def cumulative_busy_ms(self) -> float:
        """Busy time since the last stats reset, including the
        in-progress service period (telemetry probes diff successive
        readings for windowed utilizations)."""
        busy = self.busy_time
        if self._busy:
            busy += self.sim.now - self._busy_since
        return busy

    def utilization(self, elapsed: float | None = None) -> float:
        """Fraction of time busy since the last stats reset."""
        if elapsed is None:
            elapsed = self.sim.now - self._stats_start
        if elapsed <= 0:
            return 0.0
        return self.cumulative_busy_ms() / elapsed

    @property
    def queue_length(self) -> int:
        """Customers waiting (excluding the one in service)."""
        return len(self._queue)


class CountingPool:
    """A pool of interchangeable servers (the DM server pool).

    ``acquire`` blocks while the pool is exhausted; FIFO hand-off on
    release.
    """

    def __init__(self, sim: Simulator, name: str, size: int):
        if size < 1:
            raise SimulationError(f"pool {name} needs >= 1 server")
        self.sim = sim
        self.name = name
        self.size = size
        self._in_use = 0
        self._waiters: deque[Event] = deque()
        self.peak_in_use = 0
        self.wait_count = 0

    def acquire(self) -> Generator:
        """Take one server; blocks while none are free."""
        if self._in_use < self.size and not self._waiters:
            self._grant()
            yield _NOW
            return
        self.wait_count += 1
        waiter = self.sim.event()
        self._waiters.append(waiter)
        yield Wait(waiter)

    def _grant(self) -> None:
        self._in_use += 1
        self.peak_in_use = max(self.peak_in_use, self._in_use)

    def release(self) -> None:
        """Return one server; wakes the oldest waiter, if any."""
        if self._in_use <= 0:
            raise SimulationError(f"release of empty pool {self.name}")
        self._in_use -= 1
        if self._waiters:
            self._grant()
            self._waiters.popleft().fire()

    @property
    def available(self) -> int:
        """Free servers right now."""
        return self.size - self._in_use

    @property
    def in_use(self) -> int:
        """Servers currently allocated."""
        return self._in_use


class Mailbox:
    """Unbounded FIFO message queue with blocking receive."""

    def __init__(self, sim: Simulator, name: str):
        self.sim = sim
        self.name = name
        self._messages: deque[Any] = deque()
        self._receivers: deque[Event] = deque()
        self.delivered = 0

    def put(self, message: Any) -> None:
        """Enqueue a message; wakes one blocked receiver, if any."""
        self.delivered += 1
        if self._receivers:
            receiver = self._receivers.popleft()
            receiver.fire(message)
        else:
            self._messages.append(message)

    def get(self) -> Generator:
        """Blocking receive: ``msg = yield from mailbox.get()``."""
        if self._messages:
            # Yield a zero timeout so receive always costs one
            # scheduling step; keeps FIFO fairness among receivers.
            message = self._messages.popleft()
            yield _NOW
            return message
        receiver = self.sim.event()
        self._receivers.append(receiver)
        message = yield Wait(receiver)
        return message

    def __len__(self) -> int:
        return len(self._messages)
