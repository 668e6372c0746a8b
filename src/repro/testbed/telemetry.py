"""Testbed telemetry: phase spans and time-series probes.

Two instruments for looking *inside* a simulator run, mirroring the
paper's two-level validation (measurement vs. model, Tables 3-5 and
Figures 5-9):

:class:`SpanClock` / :class:`TransactionSpans`
    For every transaction commit cycle, the wall time spent in each
    paper phase (INIT, U, TM, DM, LR, DMIO, LW, RW, TC, TCIO, TA,
    TAIO, CWC/CWA, UL, UT) keyed by the site where the time was spent.
    Spans partition the cycle: they sum to the measured response time
    by construction, so the per-(site, base-type) aggregates are
    directly comparable with the model's per-chain residence times.

:class:`TimeSeriesSample`
    Periodic samples of each site's CPU/disk/log-disk queue lengths
    and windowed utilizations, lock-table occupancy, blocked-
    transaction count, WAL backlog and DM-pool usage, taken by a probe
    process at a configurable cadence.

Both feed a :class:`Telemetry` container attached to
:class:`~repro.testbed.system.SimulationConfig`.  Detached (the
default) every hook is a no-op; attached, the instrumentation only
*reads* simulator state — it draws no random numbers, fires no events
and mutates nothing the simulation can observe, so a telemetry-on run
produces bit-identical measurements to a telemetry-off run with the
same seed (guarded by ``tests/testbed/test_telemetry.py``).

Span attribution follows the *user process timeline*: at any instant
the transaction's driver generator is in exactly one (site, phase)
state.  Remote request processing executed inline (the default CARAT
semantics) is attributed to the remote site's TM/DM/LR/DMIO/LW phases
— comparable with the model's slave chains — while network latencies
and (under ``parallel_remote``) the overlap wait are attributed to RW
at the home site.  Work done by *forked* branches (2PC rounds at the
slaves, the §7 parallel remote stream) runs on other timelines and is
seen by the clock as CWC/RW wait at the coordinator, exactly like the
model's delay-center view of 2PC.

Export is JSONL, one object per line, sharing the ``time``/``kind``/
``site`` keys with :meth:`repro.testbed.tracing.Tracer.to_jsonl` so
traces, spans and probe samples can be merged and sorted together.
"""

from __future__ import annotations

import json
from collections import defaultdict, deque
from dataclasses import dataclass
from collections.abc import Iterable
from typing import TYPE_CHECKING, Any

from repro.errors import ConfigurationError
from repro.model.types import BaseType, Phase

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.testbed.system import CaratSimulation

__all__ = ["SpanClock", "TransactionSpans", "TimeSeriesSample",
           "Telemetry", "CPU_SPAN_PHASES", "DISK_SPAN_PHASES"]

#: Phases whose span time is CPU work (queueing included) at the
#: spanning site — the measured analogue of the model's CPU-center
#: residence.
CPU_SPAN_PHASES = (Phase.INIT, Phase.U, Phase.TM, Phase.DM, Phase.LR,
                   Phase.TC, Phase.TA, Phase.UL)

#: Phases whose span time is disk work (queueing included).
DISK_SPAN_PHASES = (Phase.DMIO, Phase.TCIO, Phase.TAIO)


@dataclass(frozen=True)
class TransactionSpans:
    """Phase-time breakdown of one committed transaction cycle.

    ``spans`` maps ``(site, phase)`` to the milliseconds the driver
    spent in that state; the values partition the cycle, so they sum
    to ``response_ms`` (within float addition error).  ``attempts``
    counts executions including deadlock-aborted ones; their TA/TAIO
    rollback time is part of the same cycle.
    """

    txn_id: str
    home: str
    base: BaseType
    started_at: float
    finished_at: float
    attempts: int
    spans: dict[tuple[str, Phase], float]

    @property
    def response_ms(self) -> float:
        """Cycle response time (equals the metric the commit records)."""
        return self.finished_at - self.started_at

    @property
    def time(self) -> float:
        """Window key for time filtering: the commit instant."""
        return self.finished_at

    def total_ms(self) -> float:
        """Sum of all spans (== ``response_ms`` up to float error)."""
        return sum(self.spans.values())

    def site_phase_ms(self, site: str, phase: Phase) -> float:
        """Time spent in one (site, phase) state."""
        return self.spans.get((site, phase), 0.0)

    def to_dict(self) -> dict[str, Any]:
        """JSON-serializable form (span keys become ``"site/PHASE"``)."""
        return {
            "time": self.finished_at,
            "kind": "spans",
            "txn": self.txn_id,
            "site": self.home,
            "base": self.base.value,
            "started_at": self.started_at,
            "attempts": self.attempts,
            "response_ms": self.response_ms,
            "spans": {f"{site}/{phase.value}": ms
                      for (site, phase), ms in sorted(
                          self.spans.items(),
                          key=lambda kv: (kv[0][0], kv[0][1].value))},
        }


class SpanClock:
    """Single-timeline phase clock for one transaction commit cycle.

    The executor calls :meth:`mark` at every phase transition of the
    *main* driver generator; time between consecutive marks accrues to
    the previous (site, phase) state.  Forked branches must not mark
    (they run on their own timelines); the executor passes them a
    ``None`` clock.
    """

    __slots__ = ("telemetry", "home", "base", "started_at", "txn_id",
                 "attempts", "_site", "_phase", "_since", "_sums")

    def __init__(self, telemetry: Telemetry, home: str, base: BaseType,
                 now: float):
        self.telemetry = telemetry
        self.home = home
        self.base = base
        self.started_at = now
        self.txn_id = ""
        self.attempts = 0
        self._site = home
        self._phase = Phase.INIT._name_
        self._since = now
        #: ms per (site, phase name), in first-accrual order; keyed by
        #: the name because a str caches its hash and an Enum member
        #: hashes through the Python-level ``Enum.__hash__``
        self._sums: dict[tuple[str, str], float] = {}

    def mark(self, now: float, site: str, phase: Phase) -> None:
        """Enter a new (site, phase) state at time *now*."""
        self._accrue(now)
        self._site = site
        self._phase = phase._name_

    def _accrue(self, now: float) -> None:
        elapsed = now - self._since
        if elapsed > 0.0:
            key = (self._site, self._phase)
            self._sums[key] = self._sums.get(key, 0.0) + elapsed
        self._since = now

    def close(self, now: float, collecting: bool) -> None:
        """Finish the cycle at commit time and hand the record over."""
        self._accrue(now)
        spans = {(site, Phase[name]): ms
                 for (site, name), ms in self._sums.items()}
        self.telemetry.record_cycle(
            TransactionSpans(
                txn_id=self.txn_id, home=self.home, base=self.base,
                started_at=self.started_at, finished_at=now,
                attempts=self.attempts, spans=spans),
            collecting=collecting)


@dataclass(frozen=True)
class TimeSeriesSample:
    """One probe observation of one site.

    Utilizations are *windowed*: the busy fraction since the previous
    sample of the same site (since the probe start for the first
    sample), not cumulative-from-reset — so a series of samples shows
    load dynamics, saturation onset and the warm-up transient.
    """

    time: float
    site: str
    cpu_queue: int
    cpu_utilization: float
    disk_queue: int
    disk_utilization: float
    log_disk_queue: int
    log_disk_utilization: float
    #: granules with at least one holder or waiter
    lock_granules: int
    #: transactions blocked in a lock wait at the site
    blocked_transactions: int
    #: journal records appended but not yet forced to the log device
    wal_backlog: int
    #: DM servers currently allocated from the site pool
    dm_in_use: int

    def to_dict(self) -> dict[str, Any]:
        """JSON-serializable form."""
        return {
            "time": self.time,
            "kind": "sample",
            "site": self.site,
            "cpu_queue": self.cpu_queue,
            "cpu_utilization": self.cpu_utilization,
            "disk_queue": self.disk_queue,
            "disk_utilization": self.disk_utilization,
            "log_disk_queue": self.log_disk_queue,
            "log_disk_utilization": self.log_disk_utilization,
            "lock_granules": self.lock_granules,
            "blocked_transactions": self.blocked_transactions,
            "wal_backlog": self.wal_backlog,
            "dm_in_use": self.dm_in_use,
        }


class Telemetry:
    """Bounded telemetry reservoirs for one simulator run.

    Attach via ``SimulationConfig(telemetry=Telemetry(...))``.  Spans
    and samples are kept in bounded ring buffers (oldest dropped, with
    drop counters, like :class:`~repro.testbed.tracing.Tracer`);
    per-(site, base) phase aggregates are running sums and therefore
    exact regardless of ring capacity.  Aggregates only include cycles
    that committed inside the measurement window, matching
    :class:`~repro.testbed.metrics.Metrics`.
    """

    def __init__(self, sample_interval_ms: float = 1_000.0,
                 span_capacity: int = 100_000,
                 sample_capacity: int = 100_000,
                 record_spans: bool = True,
                 record_timeseries: bool = True):
        if sample_interval_ms <= 0:
            raise ConfigurationError("sample_interval_ms must be positive")
        if span_capacity < 1 or sample_capacity < 1:
            raise ConfigurationError("telemetry capacities must be >= 1")
        self.sample_interval_ms = sample_interval_ms
        self.record_spans = record_spans
        self.record_timeseries = record_timeseries
        self._spans: deque[TransactionSpans] = deque(maxlen=span_capacity)
        self._samples: deque[TimeSeriesSample] = \
            deque(maxlen=sample_capacity)
        self.spans_recorded = 0
        self.spans_dropped = 0
        self.samples_recorded = 0
        self.samples_dropped = 0
        #: running span sums per (home, base, span-site, phase), ms
        self._phase_sums: dict[tuple[str, BaseType, str, Phase], float] \
            = defaultdict(float)
        #: committed cycles per (home, base) included in the sums
        self._cycles: dict[tuple[str, BaseType], int] = defaultdict(int)
        self._attempts: dict[tuple[str, BaseType], int] = defaultdict(int)
        # Previous cumulative busy-ms per (site, resource), for the
        # windowed utilization of successive samples.
        self._last_busy: dict[tuple[str, str], float] = {}
        self._last_sample_time: float | None = None

    # ------------------------------------------------------------------
    # span recording (called by the executor via SpanClock)
    # ------------------------------------------------------------------

    def start_cycle(self, home: str, base: BaseType,
                    now: float) -> SpanClock | None:
        """A fresh clock for one commit cycle (None when spans are off)."""
        if not self.record_spans:
            return None
        return SpanClock(self, home, base, now)

    def record_cycle(self, record: TransactionSpans,
                     collecting: bool) -> None:
        """Store one finished cycle; aggregate it when in-window."""
        if len(self._spans) == self._spans.maxlen:
            self.spans_dropped += 1
        self.spans_recorded += 1
        self._spans.append(record)
        if not collecting:
            return
        key = (record.home, record.base)
        self._cycles[key] += 1
        self._attempts[key] += record.attempts
        for (site, phase), ms in record.spans.items():
            self._phase_sums[(record.home, record.base, site, phase)] \
                += ms

    # ------------------------------------------------------------------
    # probe sampling (called by the system's probe process)
    # ------------------------------------------------------------------

    def sample(self, system: CaratSimulation) -> None:
        """Take one observation of every site (read-only)."""
        now = system.sim.now
        last = self._last_sample_time
        window = now - last if last is not None else now
        for name in sorted(system.nodes):
            node = system.nodes[name]
            cpu_util = self._windowed_utilization(
                name, "cpu", node.cpu.cumulative_busy_ms(), window)
            disk_util = self._windowed_utilization(
                name, "disk", node.disk.cumulative_busy_ms(), window)
            if node.log_disk is not node.disk:
                log_queue = node.log_disk.queue_length
                log_util = self._windowed_utilization(
                    name, "logdisk", node.log_disk.cumulative_busy_ms(),
                    window)
            else:
                log_queue = 0
                log_util = 0.0
            record = TimeSeriesSample(
                time=now, site=name,
                cpu_queue=node.cpu.queue_length,
                cpu_utilization=cpu_util,
                disk_queue=node.disk.queue_length,
                disk_utilization=disk_util,
                log_disk_queue=log_queue,
                log_disk_utilization=log_util,
                lock_granules=node.locks.lock_count(),
                blocked_transactions=node.locks.waiting_count(),
                wal_backlog=node.journal.backlog,
                dm_in_use=node.dm_pool.in_use,
            )
            if len(self._samples) == self._samples.maxlen:
                self.samples_dropped += 1
            self.samples_recorded += 1
            self._samples.append(record)
        self._last_sample_time = now

    def _windowed_utilization(self, site: str, resource: str,
                              cumulative_busy_ms: float,
                              window_ms: float) -> float:
        key = (site, resource)
        previous = self._last_busy.get(key, 0.0)
        self._last_busy[key] = cumulative_busy_ms
        if window_ms <= 0.0:
            return 0.0
        return min(1.0, max(0.0, (cumulative_busy_ms - previous)
                            / window_ms))

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    @property
    def spans(self) -> tuple[TransactionSpans, ...]:
        """Retained span records, oldest first."""
        return tuple(self._spans)

    @property
    def samples(self) -> tuple[TimeSeriesSample, ...]:
        """Retained probe samples, oldest first."""
        return tuple(self._samples)

    def committed_cycles(self, home: str, base: BaseType) -> int:
        """In-window commit cycles aggregated for one (site, base)."""
        return self._cycles.get((home, base), 0)

    def attempts_per_commit(self, home: str, base: BaseType) -> float:
        """Mean executions (including aborted ones) per commit cycle."""
        cycles = self._cycles.get((home, base), 0)
        if cycles == 0:
            return 0.0
        return self._attempts[(home, base)] / cycles

    def phase_breakdown(self, home: str,
                        base: BaseType) -> dict[tuple[str, Phase], float]:
        """Mean ms per committed cycle in each (site, phase) state.

        Keyed by the site where the time was spent; entries for sites
        other than *home* are the inline remote-request processing of
        distributed transactions (the model's slave-chain work).
        """
        cycles = self._cycles.get((home, base), 0)
        if cycles == 0:
            return {}
        return {
            (site, phase): total / cycles
            for (h, b, site, phase), total in self._phase_sums.items()
            if h == home and b == base
        }

    def mean_phase_response_ms(self, home: str, base: BaseType) -> float:
        """Mean per-cycle total of all spans (= mean response time)."""
        return sum(self.phase_breakdown(home, base).values())

    def center_breakdown(self, home: str,
                         base: BaseType) -> dict[str, float]:
        """Spans regrouped into the model's service-center view.

        Returns mean ms per committed cycle keyed by the analytical
        model's center names for the *home-site user chain*:

        * ``"cpu"`` / ``"disk"`` — home-site CPU / disk phases;
        * ``"lw"`` — home-site lock waits;
        * ``"rw"`` — network latency plus everything spent at other
          sites (the coordinator chain sees remote work as its RW
          delay center; the remote spans themselves are the slave
          chains' business);
        * ``"cw"`` — 2PC commit/abort waits;
        * ``"ut"`` — think time, including between-retry thinks.
        """
        breakdown = self.phase_breakdown(home, base)
        centers = {"cpu": 0.0, "disk": 0.0, "lw": 0.0, "rw": 0.0,
                   "cw": 0.0, "ut": 0.0}
        for (site, phase), ms in breakdown.items():
            if site != home:
                centers["rw"] += ms
            elif phase in CPU_SPAN_PHASES:
                centers["cpu"] += ms
            elif phase in DISK_SPAN_PHASES:
                centers["disk"] += ms
            elif phase is Phase.LW:
                centers["lw"] += ms
            elif phase is Phase.RW:
                centers["rw"] += ms
            elif phase in (Phase.CWC, Phase.CWA):
                centers["cw"] += ms
            elif phase is Phase.UT:
                centers["ut"] += ms
        return centers

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------

    def _window(self, records: Iterable[Any], since: float | None,
                until: float | None) -> list[Any]:
        out = []
        for record in records:
            if since is not None and record.time < since:
                continue
            if until is not None and record.time > until:
                continue
            out.append(record)
        return out

    def spans_to_jsonl(self, since: float | None = None,
                       until: float | None = None) -> str:
        """Span records as JSONL (``finished_at`` is the window key)."""
        records = self._window(self._spans, since, until)
        return "\n".join(json.dumps(r.to_dict()) for r in records)

    def samples_to_jsonl(self, since: float | None = None,
                         until: float | None = None) -> str:
        """Probe samples as JSONL."""
        records = self._window(self._samples, since, until)
        return "\n".join(json.dumps(r.to_dict()) for r in records)

    def to_jsonl(self, since: float | None = None,
                 until: float | None = None) -> str:
        """Everything, merged in time order (``kind`` disambiguates)."""
        records: list[Any] = self._window(self._samples, since, until)
        records += self._window(self._spans, since, until)
        records.sort(key=lambda r: r.time)
        return "\n".join(json.dumps(r.to_dict()) for r in records)

    def summary(self) -> dict[str, Any]:
        """Counts and capacities, for quick inspection."""
        return {
            "spans_recorded": self.spans_recorded,
            "spans_dropped": self.spans_dropped,
            "spans_retained": len(self._spans),
            "samples_recorded": self.samples_recorded,
            "samples_dropped": self.samples_dropped,
            "samples_retained": len(self._samples),
            "sample_interval_ms": self.sample_interval_ms,
            "aggregated_cycles": dict(
                (f"{home}/{base.value}", count)
                for (home, base), count in sorted(
                    self._cycles.items(),
                    key=lambda kv: (kv[0][0], kv[0][1].value))),
        }
