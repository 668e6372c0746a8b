"""Measurement collection for the testbed simulator.

Mirrors the measures the paper reports (TR-XPUT, Total-CPU, Total-DIO,
per-type throughput, response times, abort counts) with a warm-up
window that is discarded before statistics start.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

from repro.model.types import BaseType

__all__ = ["Metrics", "EventCounter", "SiteMeasurement",
           "SimulationMeasurement"]


class EventCounter:
    """One (site, base, event-name) visit count, resolved once through
    :meth:`Metrics.event_counter` and bumped with :meth:`Metrics.bump`,
    so the hot path hashes no ``(site, BaseType, name)`` key."""

    __slots__ = ("count",)

    def __init__(self) -> None:
        self.count = 0


class Metrics:
    """Mutable counters, keyed by site and base transaction type."""

    def __init__(self) -> None:
        self.window_start = 0.0
        self.commits: dict[tuple[str, BaseType], int] = defaultdict(int)
        self.aborts: dict[tuple[str, BaseType], int] = defaultdict(int)
        self.response_sum_ms: dict[tuple[str, BaseType], float] = \
            defaultdict(float)
        #: per-commit response observations, in completion order (for
        #: batch-means analysis)
        self.response_samples: dict[tuple[str, BaseType], list[float]] \
            = defaultdict(list)
        self.records_sum: dict[tuple[str, BaseType], float] = \
            defaultdict(float)
        self.disk_ios: dict[str, int] = defaultdict(int)
        self.deadlocks_local: dict[str, int] = defaultdict(int)
        self.deadlocks_global: dict[str, int] = defaultdict(int)
        self.lock_waits: dict[str, int] = defaultdict(int)
        #: generic per-(site, base, event-name) counters, used to
        #: validate the model's visit counts against the simulator
        #: (e.g. "tm_msg", "lock_request", "granule_access"); read
        #: through :attr:`events`
        self._event_counters: dict[tuple[str, BaseType, str],
                                   EventCounter] = {}
        self.collecting = False

    def start_window(self, now: float) -> None:
        """Discard everything so far; measurements start now."""
        self.window_start = now
        self.commits.clear()
        self.aborts.clear()
        self.response_sum_ms.clear()
        self.response_samples.clear()
        self.records_sum.clear()
        self.disk_ios.clear()
        self.deadlocks_local.clear()
        self.deadlocks_global.clear()
        self.lock_waits.clear()
        for counter in self._event_counters.values():
            counter.count = 0
        self.collecting = True

    # -- event hooks ---------------------------------------------------------

    def commit(self, site: str, base: BaseType, response_ms: float,
               records: float) -> None:
        if not self.collecting:
            return
        self.commits[(site, base)] += 1
        self.response_sum_ms[(site, base)] += response_ms
        self.response_samples[(site, base)].append(response_ms)
        self.records_sum[(site, base)] += records

    def abort(self, site: str, base: BaseType) -> None:
        if self.collecting:
            self.aborts[(site, base)] += 1

    def disk_io(self, site: str, count: int = 1) -> None:
        if self.collecting:
            self.disk_ios[site] += count

    def local_deadlock(self, site: str) -> None:
        if self.collecting:
            self.deadlocks_local[site] += 1

    def global_deadlock(self, site: str) -> None:
        if self.collecting:
            self.deadlocks_global[site] += 1

    def lock_wait(self, site: str) -> None:
        if self.collecting:
            self.lock_waits[site] += 1

    def event_counter(self, site: str, base: BaseType,
                      name: str) -> EventCounter:
        """The counter of one (site, base, event-name) visit, created
        on first use; resolve it once and :meth:`bump` it."""
        key = (site, base, name)
        counter = self._event_counters.get(key)
        if counter is None:
            counter = self._event_counters[key] = EventCounter()
        return counter

    def bump(self, counter: EventCounter, count: int = 1) -> None:
        """Count *count* visits on a resolved counter (in the window)."""
        if self.collecting:
            counter.count += count

    @property
    def events(self) -> dict[tuple[str, BaseType, str], int]:
        """Visits counted in the window per (site, base, event-name),
        for the events that occurred."""
        return {key: counter.count
                for key, counter in self._event_counters.items()
                if counter.count}

    def events_per_commit(self, site: str, base: BaseType,
                          name: str) -> float:
        """Observed visits per committed transaction of one type —
        directly comparable with the model's ``N_s * V_c``."""
        commits = self.commits.get((site, base), 0)
        if commits == 0:
            return 0.0
        counter = self._event_counters.get((site, base, name))
        return (counter.count if counter is not None else 0) / commits


@dataclass(frozen=True)
class SiteMeasurement:
    """Measured performance of one site over the collection window."""

    site: str
    elapsed_ms: float
    commits_by_type: dict[BaseType, int]
    aborts_by_type: dict[BaseType, int]
    mean_response_ms_by_type: dict[BaseType, float]
    #: per-commit response observations in completion order
    response_samples_by_type: dict[BaseType, list[float]]
    records_by_type: dict[BaseType, float]
    cpu_utilization: float
    disk_utilization: float
    log_disk_utilization: float
    disk_ios: int
    local_deadlocks: int
    global_deadlocks: int
    lock_waits: int
    #: observed visit counts per commit, by event name (e.g. "tm_msg",
    #: "lock_request", "granule_access") — comparable with the model's
    #: ``N_s * V_c`` visit ratios; empty for types that never committed
    events_per_commit_by_name: dict[BaseType, dict[str, float]] = \
        field(default_factory=dict)

    @property
    def elapsed_s(self) -> float:
        return self.elapsed_ms / 1e3

    @property
    def transaction_throughput_per_s(self) -> float:
        """TR-XPUT — commits/s of transactions originating at the site."""
        return sum(self.commits_by_type.values()) / self.elapsed_s

    @property
    def record_throughput_per_s(self) -> float:
        """Normalized throughput in records/s (paper Figures 5, 8)."""
        return sum(self.records_by_type.values()) / self.elapsed_s

    @property
    def dio_rate_per_s(self) -> float:
        """Total-DIO — physical disk I/Os per second at the site."""
        return self.disk_ios / self.elapsed_s

    def throughput_per_s(self, base: BaseType) -> float:
        """Per-type commit rate (paper Table 5)."""
        return self.commits_by_type.get(base, 0) / self.elapsed_s

    def response_percentile_ms(self, base: BaseType,
                               percentile: float) -> float:
        """Response-time percentile (0..100) for one type; 0 when the
        type never committed in the window."""
        if not 0.0 <= percentile <= 100.0:
            raise ValueError(f"percentile {percentile} out of range")
        samples = sorted(self.response_samples_by_type.get(base, []))
        if not samples:
            return 0.0
        rank = percentile / 100.0 * (len(samples) - 1)
        low = int(rank)
        high = min(low + 1, len(samples) - 1)
        frac = rank - low
        return samples[low] * (1.0 - frac) + samples[high] * frac

    def abort_rate(self, base: BaseType) -> float:
        """Aborted submissions per commit for one type."""
        commits = self.commits_by_type.get(base, 0)
        if commits == 0:
            return 0.0
        return self.aborts_by_type.get(base, 0) / commits


@dataclass(frozen=True)
class SimulationMeasurement:
    """Full simulator output for one run."""

    workload_name: str
    requests_per_txn: int
    seed: int
    sites: dict[str, SiteMeasurement] = field(default_factory=dict)

    def site(self, name: str) -> SiteMeasurement:
        return self.sites[name]

    def total_commits(self) -> int:
        return sum(sum(s.commits_by_type.values())
                   for s in self.sites.values())
