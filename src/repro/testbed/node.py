"""One CARAT node: CPU, disk(s), TM server, DM pool, lock manager,
storage and journal (paper §2, Figure 1).

The TM server is modelled as a *serialized* resource: every message is
processed inside the TM critical section (a CPU burst, plus a forced
log write at commit).  The analytical model deliberately ignores this
serialization (paper §5.5); keeping it in the simulator reproduces the
paper's observed model-over-measurement bias at small transaction
sizes.
"""

from __future__ import annotations

from collections.abc import Generator

from repro.model.parameters import SiteParameters
from repro.model.types import Phase
from repro.testbed.des import Simulator
from repro.testbed.locks import LockManager
from repro.testbed.metrics import Metrics
from repro.testbed.resources import CountingPool, FcfsResource
from repro.testbed.storage import BlockStorage
from repro.testbed.wal import Journal

__all__ = ["CaratNode"]


class CaratNode:
    """Hardware and server processes of one site."""

    def __init__(self, sim: Simulator, params: SiteParameters,
                 metrics: Metrics, dm_pool_size: int = 32):
        self.sim = sim
        self.params = params
        self.name = params.name
        self.metrics = metrics
        self.cpu = FcfsResource(sim, f"{self.name}.cpu")
        self.disk = FcfsResource(sim, f"{self.name}.disk")
        if params.log_on_separate_disk:
            self.log_disk = FcfsResource(sim, f"{self.name}.logdisk")
        else:
            self.log_disk = self.disk
        self.tm = FcfsResource(sim, f"{self.name}.tm")
        self.dm_pool = CountingPool(sim, f"{self.name}.dm", dm_pool_size)
        self.locks = LockManager(self.name)
        self.storage = BlockStorage(params.granules,
                                    params.records_per_granule)
        self.journal = Journal()
        #: events of transactions blocked in a lock wait here, fired
        #: with "granted" or "aborted"
        self.lock_wait_events: dict[str, object] = {}

    # -- elementary charging helpers ----------------------------------------

    def disk_read(self, count: int = 1) -> Generator:
        """Perform *count* database-disk block reads (buffer hits are
        decided by the caller)."""
        for _ in range(count):
            yield self.disk.serve(self.params.block_io_ms)
            self.metrics.disk_io(self.name)

    def disk_write(self, count: int = 1) -> Generator:
        """Perform *count* database-disk block writes."""
        for _ in range(count):
            yield self.disk.serve(self.params.block_io_ms)
            self.metrics.disk_io(self.name)

    def log_force(self, count: int = 1) -> Generator:
        """Force-write *count* journal blocks to the log device."""
        for _ in range(count):
            yield self.log_disk.serve(self.params.block_io_ms)
            self.metrics.disk_io(self.name)
            self.journal.force()

    def tm_message(self, cpu_ms: float, force_ios: int = 0,
                   clock=None) -> Generator:
        """Process one message inside the TM critical section.

        The TM server is single-threaded: it holds the TM token for the
        CPU burst and any synchronous log force-writes, serializing all
        other messages behind it.

        When a telemetry span *clock* is attached the synchronous log
        forces are attributed to the TCIO phase (the caller's mark —
        typically TC — covers the CPU burst and any TM-token queueing).
        """
        yield from self.tm.acquire()
        try:
            yield self.cpu.serve(cpu_ms)
            if force_ios:
                if clock is not None:
                    clock.mark(self.sim.now, self.name, Phase.TCIO)
                yield from self.log_force(force_ios)
        finally:
            self.tm.release()

    # -- warm-up -------------------------------------------------------------

    def reset_stats(self) -> None:
        """Restart resource statistics (warm-up discard)."""
        self.cpu.reset_stats()
        self.disk.reset_stats()
        if self.log_disk is not self.disk:
            self.log_disk.reset_stats()
        self.tm.reset_stats()
