"""One child interpreter of the end-to-end benchmark: a closed-loop client.

``run.py`` starts this script in a fresh interpreter per measurement;
it is not meant to be run by hand.  The child imports ``repro.cli``,
builds the workload's inputs from the seed, prints ``READY`` and then,
depending on ``--mode``:

* ``setup``    exits (the parent timed spawn to ``READY``);
* ``e2e``      issues requests one at a time, back to back, in passes:
  the request list is cut into passes of ``pass_requests`` requests
  of the same composition, taken in turn (cycling), and another pass
  starts only while it still fits in ``--seconds``;
* ``trace``    runs the first pass untraced, then again under the
  span recorder;
* ``counters`` runs every request once under the recorder, for the
  exact per-request counters.

The result is one JSON object on the last line of standard output.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from typing import Any

#: Per-layer metrics read straight off the recorder's exact counts.
COUNT_METRICS = (
    "testbed.sim_calls", "testbed.des_events", "testbed.commits",
    "testbed.aborts", "testbed.lock_waits", "testbed.deadlocks_local",
    "testbed.deadlocks_global", "testbed.disk_ios",
    "testbed.lock_request_calls", "model.outer_calls",
    "model.outer_points", "model.outer_iterations", "model.open_calls",
    "model.open_iterations", "queueing.exact_calls",
    "queueing.schweitzer_calls", "planner.solves",
    "planner.total_iterations", "experiments.compare_rows",
    "experiments.compare_flagged_30",
)
#: Layers reported as a share of the traced pass's wall time.
SHARE_GROUPS = (
    "testbed.sim", "testbed.lock", "testbed.telemetry", "model.outer",
    "model.open", "queueing.exact", "queueing.schweitzer",
    "planner.find_optimum", "planner.slo_mpl", "planner.slo_arrival",
    "planner.whatif", "scenarios.compile",
)


@dataclass
class PassResult:
    """Latency of every request of one pass, the failures, and the
    accuracy samples of the correct outputs (when asked for)."""

    latencies: list[float] = field(default_factory=list)
    errors: list[tuple[int, str]] = field(default_factory=list)
    samples: dict[str, list[float]] = field(default_factory=dict)
    #: exact counter deltas per request (traced passes only)
    counts: list[dict[str, float]] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(self.latencies)


def run_pass(requests, keep_samples: bool = False,
             recorder=None) -> PassResult:
    """Issue every request once, in order, and check each output.

    A request fails when it raises or its check reports a problem; a
    failure is recorded and the pass goes on.  Checks are not timed,
    and no output outlives its check.
    """
    result = PassResult()
    for index, request in enumerate(requests):
        if recorder is not None:
            recorder.request = index
            before = Counter(recorder.phase_counts("request"))
        start_ns = time.perf_counter_ns()
        try:
            output = request.call()
        except Exception as exc:  # counted as a failed request
            output = None
            problem = f"{type(exc).__name__}: {exc}"
            traceback.print_exc(file=sys.stderr)
        else:
            problem = None
        end_ns = time.perf_counter_ns()
        result.latencies.append((end_ns - start_ns) / 1e9)
        if problem is None:
            problem = request.check(output)
        if problem is not None:
            result.errors.append((index, f"{request.label}: {problem}"))
        elif keep_samples:
            for name, values in request.samples(output).items():
                result.samples.setdefault(name, []).extend(values)
        del output
        if recorder is not None:
            delta = Counter(recorder.phase_counts("request"))
            delta.subtract(before)
            result.counts.append({name: value for name, value
                                  in delta.items() if value})
            recorder.spans.append(("request", "harness", start_ns, end_ns,
                                   index))
            recorder.request = None
    return result


def layer_metrics(recorder, traced_s: float) -> dict[str, float]:
    """The per-layer metrics of one traced pass of *traced_s* seconds."""
    counts = recorder.phase_counts("request")
    seconds = recorder.group_seconds("request")
    metrics = {name: counts.get(name, 0) for name in COUNT_METRICS}
    metrics["testbed.lock_requests"] = metrics.pop(
        "testbed.lock_request_calls")
    for group in SHARE_GROUPS:
        metrics[f"{group}_share"] = seconds.get(group, 0.0) / traced_s
    sim_s = seconds.get("testbed.sim", 0.0)
    outer_s = seconds.get("model.outer", 0.0)
    done = metrics["testbed.commits"] + metrics["testbed.aborts"]
    metrics["testbed.des_events_per_s"] = (
        metrics["testbed.des_events"] / sim_s if sim_s else 0.0)
    metrics["testbed.simulated_s_per_wall_s"] = (
        counts.get("testbed.simulated_ms", 0.0) / 1e3 / sim_s
        if sim_s else 0.0)
    metrics["testbed.commit_ratio"] = (
        metrics["testbed.commits"] / done if done else 0.0)
    metrics["model.outer_ms_per_point"] = (
        outer_s * 1e3 / metrics["model.outer_points"]
        if metrics["model.outer_points"] else 0.0)
    return metrics


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _traced_pass(recorder, requests) -> PassResult:
    recorder.phase = "request"
    recorder.install()
    try:
        return run_pass(requests, recorder=recorder)
    finally:
        recorder.uninstall()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", required=True,
                        choices=("setup", "e2e", "trace", "counters"))
    parser.add_argument("--limit", type=int, default=None,
                        help="issue only the first N requests")
    parser.add_argument("--spec", required=True,
                        help="the benchmark's spec.json")
    parser.add_argument("--out", default=None,
                        help="path prefix for the Chrome trace and the "
                             "self-time table of a traced run")
    args = parser.parse_args(argv)

    import repro.cli  # noqa: F401  (the start-up every CLI call pays)

    import recorder as recording
    import workloads

    with open(args.spec, encoding="utf-8") as handle:
        cfg = json.load(handle)["workloads"][args.workload]
    count = args.limit if args.limit is not None else int(cfg["requests"])
    traced = args.mode in ("trace", "counters")
    recorder = recording.Recorder() if traced else None
    setup_start = time.perf_counter_ns()
    if recorder is not None:
        recorder.install()
    try:
        requests = workloads.BUILDERS[args.workload](cfg, args.seed, count)
    finally:
        if recorder is not None:
            recorder.uninstall()
    setup_end = time.perf_counter_ns()
    print("READY", flush=True)
    if args.mode == "setup":
        return 0

    size = min(int(cfg["pass_requests"]), len(requests))
    chunks = [requests[i:i + size] for i in range(0, len(requests), size)]
    report: dict[str, Any] = {"labels": [r.label for r in requests]}
    passes: list[PassResult] = []
    if args.mode == "e2e":
        started = time.perf_counter()
        while True:
            passes.append(run_pass(chunks[len(passes) % len(chunks)],
                                   keep_samples=not passes))
            elapsed = time.perf_counter() - started
            if elapsed + passes[-1].wall_s > args.seconds:
                break
        report["accuracy"] = {name: statistics.median(values)
                              for name, values in passes[0].samples.items()
                              if values}
    else:
        measured = requests if args.mode == "counters" else chunks[0]
        if args.mode == "trace":
            # Warm up on the first request, so that first-call costs
            # fall in neither pass and the overhead compares like
            # with like.
            run_pass(measured[:1])
            untraced_s = run_pass(measured).wall_s
        passes.append(_traced_pass(recorder, measured))
        traced_s = passes[0].wall_s
        report["counts_per_request"] = passes[0].counts
        if args.mode == "trace":
            layers = layer_metrics(recorder, traced_s)
            layers["trace.overhead_frac"] = traced_s / untraced_s - 1.0
            report["layers"] = layers
            report["self_times"] = recorder.self_time_table()
            if args.out is not None:
                setup_span = ("setup", "harness", setup_start, setup_end,
                              None)
                recorder.write_chrome_trace(f"{args.out}-chrome.json",
                                            [setup_span])
                with open(f"{args.out}-selftime.txt", "w",
                          encoding="utf-8") as handle:
                    handle.write(recording.render_self_times(
                        report["self_times"]))
    report["latencies_s"] = [p.latencies for p in passes]
    report["errors"] = [error for p in passes for error in p.errors]
    report["peak_rss_mb"] = _peak_rss_mb()
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
