"""Assembly and execution of a multi-node CARAT simulation."""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError, SimulationError
from repro.model.parameters import SiteParameters
from repro.model.types import BaseType
from repro.model.workload import WorkloadSpec
from repro.testbed.deadlock import GlobalDetector
from repro.testbed.des import Simulator, Timeout
from repro.testbed.executor import ABORTED, UserProcess
from repro.testbed.metrics import Metrics, SimulationMeasurement, \
    SiteMeasurement
from repro.testbed.node import CaratNode
from repro.testbed.transactions import Transaction

__all__ = ["SimulationConfig", "CaratSimulation", "simulate"]


@dataclass(frozen=True)
class SimulationConfig:
    """Configuration of one simulator run.

    Parameters
    ----------
    workload, sites:
        Same objects that parameterize the analytical model.
    alpha_ms:
        One-way network delay per message (paper: negligible).
    seed:
        Root RNG seed; each user derives an independent stream.
    warmup_ms:
        Simulated time discarded before measurement starts.
    duration_ms:
        Measured simulated time.
    dm_pool_size:
        DM servers per node (fixed at start-up in CARAT).
    probe_interval_ms:
        Re-probe period for blocked transactions.  Probes consume CPU
        at every site they visit, so this trades detection latency
        against overhead; the one-second default matches the
        coarse-timer detectors of the testbed era.
    """

    workload: WorkloadSpec
    sites: dict[str, SiteParameters]
    alpha_ms: float = 0.1
    seed: int = 1
    warmup_ms: float = 120_000.0
    duration_ms: float = 1_200_000.0
    dm_pool_size: int = 32
    probe_interval_ms: float = 1000.0
    #: record committed access histories for serializability checking
    #: (memory grows with the run; meant for validation runs)
    record_history: bool = False
    #: paper §7 extension: let a coordinator overlap remote requests
    #: with its subsequent local work instead of waiting for each
    #: response (CARAT itself serializes: one active server per
    #: transaction)
    parallel_remote: bool = False
    #: optional event tracer (see :mod:`repro.testbed.tracing`)
    tracer: object | None = None
    #: optional telemetry collector (see
    #: :mod:`repro.testbed.telemetry`); when None every hook is a
    #: no-op and the RNG stream is untouched
    telemetry: object | None = None

    def __post_init__(self) -> None:
        missing = [s for s in self.workload.sites if s not in self.sites]
        if missing:
            raise ConfigurationError(f"no parameters for sites {missing}")
        if self.warmup_ms < 0 or self.duration_ms <= 0:
            raise ConfigurationError("invalid warmup/duration")


class CaratSimulation:
    """A runnable CARAT system: nodes, users, detector, metrics."""

    def __init__(self, config: SimulationConfig):
        self.config = config
        self.workload = config.workload
        self.alpha_ms = config.alpha_ms
        self.telemetry = config.telemetry
        self.sim = Simulator()
        self.metrics = Metrics()
        self.registry: dict[str, Transaction] = {}
        #: committed-transaction history (when record_history is set)
        self.history: list = []
        self.nodes: dict[str, CaratNode] = {
            name: CaratNode(self.sim, config.sites[name], self.metrics,
                            dm_pool_size=config.dm_pool_size)
            for name in self.workload.sites
        }
        self.detector = GlobalDetector(
            self.sim, self.nodes, self.registry,
            alpha_ms=config.alpha_ms,
            probe_interval_ms=config.probe_interval_ms,
        )
        self.users: list[UserProcess] = []
        for site in self.workload.sites:
            for base in BaseType:
                for index in range(self.workload.user_count(site, base)):
                    self.users.append(UserProcess(self, site, base, index))
        #: per-site cumulative Zipf CDF over granules (lazy; only
        #: built when the workload carries a Zipf exponent)
        self._zipf_cdfs: dict[str, list[float]] = {}

    def zipf_cdf(self, site: str) -> list[float]:
        """Cumulative granule-access distribution for Zipf workloads.

        Shared by every user process at *site*; deterministic (no RNG)
        so caching it cannot perturb replayability.
        """
        cached = self._zipf_cdfs.get(site)
        if cached is not None:
            return cached
        import math
        s = self.workload.zipf_s
        granules = self.nodes[site].storage.granules
        weights = [(i + 1) ** -s for i in range(granules)]
        total = math.fsum(weights)
        cdf: list[float] = []
        acc = 0.0
        for weight in weights:
            acc += weight / total
            cdf.append(acc)
        cdf[-1] = 1.0
        self._zipf_cdfs[site] = cdf
        return cdf

    # -- cross-cutting actions -------------------------------------------------

    def trace(self, kind, txn_id: str, site: str,
              detail: str = "") -> None:
        """Record a trace event when a tracer is attached."""
        tracer = self.config.tracer
        if tracer is not None:
            tracer.record(self.sim.now, kind, txn_id, site, detail)

    def abort_blocked(self, txn_id: str, site: str) -> None:
        """Abort a transaction blocked in a lock wait at *site* (global
        deadlock victim).  Wakes the waiting driver with ABORTED."""
        node = self.nodes[site]
        wait = node.lock_wait_events.pop(txn_id, None)
        if wait is None:
            raise SimulationError(
                f"abort of {txn_id} at {site}: not in a lock wait"
            )
        from repro.testbed.tracing import TraceEventKind
        self.trace(TraceEventKind.DEADLOCK_GLOBAL, txn_id, site)
        node.locks.cancel_wait(txn_id)
        wait.fire(ABORTED)

    # -- running -----------------------------------------------------------------

    def run(self) -> SimulationMeasurement:
        """Run warm-up plus measurement window; return the measures."""
        for user in self.users:
            self.sim.spawn(user.run(), name=f"user-{user.home}-"
                                            f"{user.base.value}"
                                            f"{user.user_index}")
        self.sim.spawn(self._warmup_marker(), name="warmup")
        self._spawn_probe()
        horizon = self.config.warmup_ms + self.config.duration_ms
        self.sim.run(until=horizon)
        return self._collect()

    def _warmup_marker(self):
        yield Timeout(self.config.warmup_ms)
        self.metrics.start_window(self.sim.now)
        for node in self.nodes.values():
            node.reset_stats()

    def _spawn_probe(self) -> None:
        """Start the telemetry sampling process, if requested.

        The probe only *reads* simulator state (queue lengths,
        cumulative busy times, lock-table and journal counters) and
        draws no random numbers, so attaching it cannot perturb the
        simulated behaviour — measurements stay bit-identical with or
        without telemetry.
        """
        tele = self.telemetry
        if tele is None or not getattr(tele, "record_timeseries", False):
            return

        def probe():
            while True:
                tele.sample(self)
                yield Timeout(tele.sample_interval_ms)

        self.sim.spawn(probe(), name="telemetry-probe")

    def _collect(self) -> SimulationMeasurement:
        elapsed = self.sim.now - self.metrics.window_start
        events = self.metrics.events
        sites: dict[str, SiteMeasurement] = {}
        for name, node in self.nodes.items():
            commits = {}
            aborts = {}
            responses = {}
            samples = {}
            records = {}
            visits = {}
            for base in BaseType:
                key = (name, base)
                commits[base] = self.metrics.commits.get(key, 0)
                aborts[base] = self.metrics.aborts.get(key, 0)
                total = self.metrics.response_sum_ms.get(key, 0.0)
                responses[base] = (total / commits[base]
                                   if commits[base] else 0.0)
                samples[base] = list(
                    self.metrics.response_samples.get(key, []))
                records[base] = self.metrics.records_sum.get(key, 0.0)
                event_names = sorted(
                    n for (s, b, n) in events
                    if s == name and b is base)
                if event_names and commits[base]:
                    visits[base] = {
                        n: self.metrics.events_per_commit(name, base, n)
                        for n in event_names}
            sites[name] = SiteMeasurement(
                site=name,
                elapsed_ms=elapsed,
                commits_by_type=commits,
                aborts_by_type=aborts,
                mean_response_ms_by_type=responses,
                response_samples_by_type=samples,
                records_by_type=records,
                cpu_utilization=node.cpu.utilization(elapsed),
                disk_utilization=node.disk.utilization(elapsed),
                log_disk_utilization=(
                    node.log_disk.utilization(elapsed)
                    if node.log_disk is not node.disk else 0.0),
                disk_ios=self.metrics.disk_ios.get(name, 0),
                local_deadlocks=self.metrics.deadlocks_local.get(name, 0),
                global_deadlocks=self.metrics.deadlocks_global.get(name, 0),
                lock_waits=self.metrics.lock_waits.get(name, 0),
                events_per_commit_by_name=visits,
            )
        return SimulationMeasurement(
            workload_name=self.workload.name,
            requests_per_txn=self.workload.requests_per_txn,
            seed=self.config.seed,
            sites=sites,
        )


def simulate(workload: WorkloadSpec, sites: dict[str, SiteParameters],
             **kwargs) -> SimulationMeasurement:
    """Convenience one-call API: configure and run the simulator."""
    return CaratSimulation(SimulationConfig(workload=workload,
                                            sites=sites, **kwargs)).run()


class OpenCaratSimulation(CaratSimulation):
    """Open-arrival variant: Poisson transaction sources instead of a
    fixed terminal population (validates
    :mod:`repro.model.open_solver`).

    The ``users`` populations of the workload are ignored; instead
    each (site, type) with a positive rate gets a source process that
    spawns one-shot transactions at exponential interarrival times.
    Each spawned transaction retries until commit, like the open
    model's ``N_s`` accounting.

    ``burstiness`` is the squared coefficient of variation of the
    interarrival times: 1 (the default) keeps the Poisson sources,
    larger values draw from a balanced two-phase hyperexponential
    with the same mean — the scenario DSL's knob for bursty arrivals.
    """

    def __init__(self, config: SimulationConfig,
                 arrivals_per_s: dict[str, dict[BaseType, float]],
                 burstiness: float = 1.0):
        super().__init__(config)
        if burstiness < 1.0:
            raise ConfigurationError(
                "burstiness (squared CV) must be >= 1")
        self.arrivals_per_s = arrivals_per_s
        self.burstiness = burstiness
        self.users = []        # closed terminals disabled

    def run(self) -> SimulationMeasurement:
        import random as _random
        import zlib as _zlib
        from repro.testbed.des import Fork, Timeout
        from repro.testbed.executor import UserProcess

        def source(site: str, base: BaseType, rate_per_ms: float):
            seed = _zlib.crc32(
                f"open:{self.config.seed}:{site}:{base.value}"
                .encode("ascii"))
            rng = _random.Random(seed)
            index = 0
            draw = self._interarrival_sampler(rng, rate_per_ms)

            def body():
                nonlocal index
                while True:
                    yield Timeout(draw())
                    user = UserProcess(self, site, base, index)
                    index += 1
                    yield Fork(user.run_one())

            return body()

        for site, rates in self.arrivals_per_s.items():
            for base, rate in rates.items():
                if rate > 0.0:
                    self.sim.spawn(source(site, base, rate / 1e3),
                                   name=f"src-{site}-{base.value}")
        self.sim.spawn(self._warmup_marker(), name="warmup")
        self._spawn_probe()
        horizon = self.config.warmup_ms + self.config.duration_ms
        self.sim.run(until=horizon)
        return self._collect()

    def _interarrival_sampler(self, rng, rate_per_ms: float):
        """Interarrival draw with the configured burstiness.

        ``burstiness == 1`` keeps the exponential source untouched
        (bit-identical to pre-burstiness runs).  Beyond 1 a balanced
        two-phase hyperexponential matches the mean ``1/rate`` and
        squared CV exactly: branch ``i`` has probability ``p_i`` and
        rate ``2 p_i * rate``, with ``p_1`` chosen so the second
        moment hits ``(c2 + 1) / rate^2``.
        """
        if self.burstiness == 1.0:
            return lambda: rng.expovariate(rate_per_ms)
        import math
        c2 = self.burstiness
        p1 = 0.5 * (1.0 + math.sqrt((c2 - 1.0) / (c2 + 1.0)))
        rate1 = 2.0 * p1 * rate_per_ms
        rate2 = 2.0 * (1.0 - p1) * rate_per_ms

        def draw() -> float:
            branch = rate1 if rng.random() < p1 else rate2
            return rng.expovariate(branch)

        return draw
