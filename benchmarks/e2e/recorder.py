"""The benchmark's own span recorder.

Layers are timed from outside the program: :meth:`Recorder.install`
replaces public functions and methods with timing wrappers at run time,
rebinding a function wherever a loaded ``repro`` module holds it, and
:meth:`Recorder.uninstall` puts every original back.  Spans stay in this
recorder, not in ``repro.obs``, so that a change to the program's own
observability cannot move the benchmark.

Boundaries that fire per simulated event (lock calls, telemetry hooks)
are *hot*: they are timed and counted but keep no span of their own.
A wrapper's duration is charged to the enclosing frame, which gives
each boundary a self time (its duration minus its children's).
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import Counter, defaultdict
from collections.abc import Callable
from dataclasses import dataclass
from typing import Any


@dataclass(frozen=True)
class Boundary:
    """One wrapped function or method.

    ``target`` is ``"module:function"`` or ``"module:Class.method"``;
    ``group`` is the layer whose inclusive time the boundary adds to;
    ``on_exit(recorder, args, result)`` reads exact counts off the
    arguments and the return value.
    """

    name: str
    target: str
    group: str
    hot: bool = False
    on_exit: Callable[[Recorder, tuple, Any], None] | None = None


def _sim_counts(rec: Recorder, args: tuple, measurement) -> None:
    system = args[0]
    config = system.config
    rec.count("testbed.des_events", system.sim._steps)
    rec.count("testbed.simulated_ms", config.warmup_ms + config.duration_ms)
    for site in measurement.sites.values():
        rec.count("testbed.commits", sum(site.commits_by_type.values()))
        rec.count("testbed.aborts", sum(site.aborts_by_type.values()))
        rec.count("testbed.lock_waits", site.lock_waits)
        rec.count("testbed.deadlocks_local", site.local_deadlocks)
        rec.count("testbed.deadlocks_global", site.global_deadlocks)
        rec.count("testbed.disk_ios", site.disk_ios)


def _outer_counts(rec: Recorder, args: tuple, solutions) -> None:
    rec.count("model.outer_points", len(solutions))
    rec.count("model.outer_iterations",
              sum(solution.iterations for solution in solutions))


def _open_counts(rec: Recorder, args: tuple, solution) -> None:
    rec.count("model.open_iterations", solution.iterations)


def _plan_counts(rec: Recorder, args: tuple, result) -> None:
    rec.count("planner.solves", result.optimum.solves)
    rec.count("planner.total_iterations", result.optimum.total_iterations)


def _compare_counts(rec: Recorder, args: tuple, report) -> None:
    from repro.experiments.compare import flagged_rows
    rec.count("experiments.compare_rows",
              sum(1 for row in report["rows"] if row["comparable"]))
    rec.count("experiments.compare_flagged_30",
              len(flagged_rows(report, 0.30)))


_SIM = "repro.testbed.system"
_TELEMETRY = "repro.testbed.telemetry"

#: Every layer boundary the traced run wraps.
BOUNDARIES = (
    Boundary("testbed.sim", f"{_SIM}:CaratSimulation.run", "testbed.sim",
             on_exit=_sim_counts),
    Boundary("testbed.sim", f"{_SIM}:OpenCaratSimulation.run",
             "testbed.sim", on_exit=_sim_counts),
    Boundary("testbed.lock_request", "repro.testbed.locks:LockManager.request",
             "testbed.lock", hot=True),
    Boundary("testbed.lock_release",
             "repro.testbed.locks:LockManager.release_all",
             "testbed.lock", hot=True),
    *(Boundary("testbed.telemetry", f"{_TELEMETRY}:{method}",
               "testbed.telemetry", hot=True)
      for method in ("Telemetry.start_cycle", "Telemetry.record_cycle",
                     "Telemetry.sample", "SpanClock.mark",
                     "SpanClock.close")),
    Boundary("model.outer", "repro.model.outer:solve_outer_batch",
             "model.outer", on_exit=_outer_counts),
    Boundary("model.open", "repro.model.open_solver:solve_open_model",
             "model.open", on_exit=_open_counts),
    Boundary("queueing.exact", "repro.queueing.kernels:solve_exact_batch",
             "queueing.exact"),
    Boundary("queueing.schweitzer",
             "repro.queueing.kernels:solve_schweitzer_batch",
             "queueing.schweitzer"),
    Boundary("planner.plan", "repro.planner:plan", "planner.plan",
             on_exit=_plan_counts),
    Boundary("planner.find_optimum", "repro.planner.search:find_optimum",
             "planner.find_optimum"),
    Boundary("planner.slo_mpl", "repro.planner.search:slo_max_mpl",
             "planner.slo_mpl"),
    Boundary("planner.slo_arrival",
             "repro.planner.search:slo_max_arrival_per_s",
             "planner.slo_arrival"),
    Boundary("planner.whatif", "repro.planner.whatif:run_whatif",
             "planner.whatif"),
    Boundary("experiments.fetch",
             "repro.experiments.cache:fetch_or_run_many",
             "experiments.fetch"),
    Boundary("experiments.compare", "repro.experiments.compare:compare_spec",
             "experiments.compare", on_exit=_compare_counts),
    Boundary("scenarios.compile", "repro.scenarios.compile:compile_workload",
             "scenarios.compile"),
    Boundary("scenarios.sample", "repro.scenarios.generator:sample_family",
             "scenarios.sample"),
)


class Recorder:
    """Spans and counts of one traced run, kept in memory.

    ``phase`` ("setup" or "request") and ``request`` (the index of the
    request in flight) are set by the harness; totals and counts are
    kept per phase so set-up work never enters the per-request layer
    metrics.
    """

    def __init__(self) -> None:
        self.phase = "setup"
        self.request: int | None = None
        #: (name, group, start_ns, end_ns, request) of non-hot calls
        self.spans: list[tuple[str, str, int, int, int | None]] = []
        #: (phase, name) -> [calls, total_ns, self_ns]
        self.totals: dict[tuple[str, str], list[int]] = defaultdict(
            lambda: [0, 0, 0])
        #: (phase, group) -> ns spent in the group's outermost frames
        self.group_ns: Counter = Counter()
        #: (phase, name) -> exact count
        self.counts: Counter = Counter()
        self._stack: list[list[int]] = []      # [child_ns] per frame
        self._depth: Counter = Counter()       # group -> open frames
        self._patches: list[tuple[Any, str, Any]] = []

    def count(self, name: str, value: float = 1) -> None:
        self.counts[(self.phase, name)] += value

    # -- the wrappers ----------------------------------------------------------

    def _wrap(self, boundary: Boundary, original: Callable) -> Callable:
        clock = time.perf_counter_ns
        stack = self._stack
        depth = self._depth
        name, group, hot = boundary.name, boundary.group, boundary.hot
        on_exit = boundary.on_exit

        def wrapper(*args, **kwargs):
            frame = [0]
            stack.append(frame)
            depth[group] += 1
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                depth[group] -= 1
                elapsed = end - start
                if stack:
                    stack[-1][0] += elapsed
                total = self.totals[(self.phase, name)]
                total[0] += 1
                total[1] += elapsed
                total[2] += elapsed - frame[0]
                if not depth[group]:
                    self.group_ns[(self.phase, group)] += elapsed
                if not hot:
                    self.spans.append((name, group, start, end,
                                       self.request))
            if on_exit is not None:
                on_exit(self, args, result)
            return result

        wrapper.__wrapped__ = original
        return wrapper

    def install(self) -> None:
        """Wrap every boundary; the program must already be imported."""
        for boundary in BOUNDARIES:
            module_name, _, path = boundary.target.partition(":")
            owner: Any = importlib.import_module(module_name)
            *classes, attr = path.split(".")
            for cls in classes:
                owner = getattr(owner, cls)
            original = owner.__dict__[attr]
            wrapper = self._wrap(boundary, original)
            self._patch(owner, attr, wrapper)
            if not classes:
                self._rebind(original, wrapper)

    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _rebind(self, original: Callable, wrapper: Callable) -> None:
        """Replace *original* in every loaded module of the program that
        imported it by name."""
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "repro"
                                      or module_name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, attr, wrapper)

    def uninstall(self) -> None:
        """Restore every original, newest patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reports ---------------------------------------------------------------

    def phase_counts(self, phase: str) -> dict[str, float]:
        """Exact counts of *phase*, with ``<boundary>_calls`` for every
        boundary entered."""
        counts = {name: value for (p, name), value in self.counts.items()
                  if p == phase}
        counts.update({f"{name}_calls": calls
                       for (p, name), (calls, _, _) in self.totals.items()
                       if p == phase})
        return counts

    def group_seconds(self, phase: str) -> dict[str, float]:
        return {group: ns / 1e9 for (p, group), ns in self.group_ns.items()
                if p == phase}

    def self_time_table(self) -> list[dict[str, Any]]:
        """Per (phase, boundary): calls, inclusive and self seconds,
        largest self time first."""
        rows = [{"phase": phase, "name": name, "calls": calls,
                 "total_s": total / 1e9, "self_s": own / 1e9}
                for (phase, name), (calls, total, own) in self.totals.items()]
        return sorted(rows, key=lambda row: -row["self_s"])

    def write_chrome_trace(self, path: str,
                           extra: list[tuple] = ()) -> None:
        """Chrome trace-event JSON (``chrome://tracing``, Perfetto).

        *extra* spans come from the harness (its request and set-up
        spans), in the recorder's ``(name, group, start_ns, end_ns,
        request)`` form.
        """
        spans = sorted([*self.spans, *extra], key=lambda span: span[2])
        origin = spans[0][2] if spans else 0
        events = [{"name": name, "cat": group, "ph": "X", "pid": 1,
                   "tid": 1, "ts": (start - origin) / 1e3,
                   "dur": (end - start) / 1e3,
                   "args": {"request": request}}
                  for name, group, start, end, request in spans]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events,
                       "displayTimeUnit": "ms"}, handle)


def render_self_times(rows: list[dict[str, Any]]) -> str:
    """The self-time table as aligned text."""
    lines = [f"{'phase':<8} {'boundary':<24} {'calls':>9} "
             f"{'total_s':>10} {'self_s':>10}"]
    lines += [f"{row['phase']:<8} {row['name']:<24} {row['calls']:>9} "
              f"{row['total_s']:>10.4f} {row['self_s']:>10.4f}"
              for row in rows]
    return "\n".join(lines) + "\n"
