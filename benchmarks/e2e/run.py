"""End-to-end benchmark of the reproduction, measured from outside.

Each workload runs in fresh child interpreters (``worker.py``), one
closed-loop client at a time: one request in flight, ``jobs=1``, one
thread, ``PYTHONHASHSEED=0``.  Run from the repository root::

    python3 benchmarks/e2e/run.py --workload plan-slo --seed 3 \\
        --seconds 20 --trace 0
    python3 benchmarks/e2e/run.py --seed 3 --out /tmp/e2e   # every workload
    python3 benchmarks/e2e/run.py --seed 3 --trace          # per-layer run
    python3 benchmarks/e2e/run.py --check-determinism

The untraced run prints the end-to-end metrics, the traced run the
per-layer ones, each as ``METRIC <workload> <name> <value> <unit>``.
One JSON record per workload goes to ``--out``, and the last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SPEC_PATH = HERE / "spec.json"
#: Longest one workload's measurement may take; a child still running
#: then is killed and the run fails.
RUN_TIMEOUT_S = 170.0
#: Requests whose counters ``--check-determinism`` compares.
DETERMINISM_REQUESTS = 10
#: Fresh children whose spawn-to-ready median is ``setup_s``.
SETUP_SAMPLES = 5
#: Fresh ``-X importtime`` interpreters behind the start-up metrics.
IMPORTTIME_SAMPLES = 3


class HarnessError(RuntimeError):
    """A child interpreter failed, timed out or printed no result."""


def load_config() -> tuple[dict, dict]:
    """``BENCHMARK.json`` (metric names, units, bounds) and ``spec.json``
    (workload parameters)."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        bench = json.load(handle)
    with open(SPEC_PATH, encoding="utf-8") as handle:
        spec = json.load(handle)
    return bench, spec


def metric_units(bench: dict, spec: dict) -> dict[str, str]:
    """Unit of every metric the harness can print."""
    units = {m["name"]: m["unit"]
             for m in bench["end_to_end"] + bench["per_layer"]
             + spec["extra_metrics"]}
    units["requests"] = "count"
    return units


def child_env(spec: dict, hash_seed: str | None = None) -> dict[str, str]:
    env = dict(os.environ)
    env.update(spec["child_env"])
    if hash_seed is not None:
        env["PYTHONHASHSEED"] = hash_seed
    src = str(ROOT / "src")
    env["PYTHONPATH"] = (src + os.pathsep + env["PYTHONPATH"]
                         if env.get("PYTHONPATH") else src)
    return env


def run_child(workload: str, seed: int, seconds: float, mode: str,
              env: dict[str, str], deadline: float, limit: int | None = None,
              out_prefix: Path | None = None) -> tuple[float, dict | None]:
    """Start one worker; return (seconds from spawn to READY, result).

    The worker is killed at *deadline* (``time.monotonic()``).  The
    result is ``None`` for a set-up-only child.
    """
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--mode", mode,
           "--spec", str(SPEC_PATH)]
    if limit is not None:
        cmd += ["--limit", str(limit)]
    if out_prefix is not None:
        cmd += ["--out", str(out_prefix)]
    ready_s = None
    last = ""
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                          env=env) as proc:
        watchdog = threading.Timer(max(0.0, deadline - time.monotonic()),
                                   proc.kill)
        watchdog.start()
        try:
            for line in proc.stdout:
                if ready_s is None and line.strip() == "READY":
                    ready_s = time.perf_counter() - start
                elif line.strip():
                    last = line
            proc.wait()
        finally:
            watchdog.cancel()
    if proc.returncode != 0 or ready_s is None:
        raise HarnessError(f"{workload} {mode} child exited with "
                           f"{proc.returncode}")
    if mode == "setup":
        return ready_s, None
    try:
        return ready_s, json.loads(last)
    except json.JSONDecodeError as exc:
        raise HarnessError(f"{workload} {mode} child printed no "
                           f"result: {last!r}") from exc


def e2e_metrics(passes: list[list[float]], failed: int,
                setup_s: list[float], peak_rss_mb: float,
                accuracy: dict[str, float],
                p90_min_samples: int) -> dict[str, float]:
    """End-to-end metrics of one untraced run.

    *passes* holds the request latencies of each pass.  The p90 is
    reported only with at least *p90_min_samples* latencies, so that
    ten or more samples lie beyond it.
    """
    latencies = [latency for one in passes for latency in one]
    metrics = {
        "setup_s": statistics.median(setup_s),
        "wall_s": statistics.median(sum(one) for one in passes),
        "request_s_p50": statistics.median(latencies),
        "peak_rss_mb": peak_rss_mb,
        "failed_frac": failed / len(latencies),
        "requests": len(latencies),
    }
    if len(latencies) >= p90_min_samples:
        metrics["request_s_p90"] = statistics.quantiles(latencies, n=10)[8]
    metrics.update(accuracy)
    return metrics


def parse_importtime(text: str) -> dict[str, float]:
    """Start-up metrics from ``python -X importtime`` output: all
    import work, and the self time of each heavy top-level package.

    PyYAML is absent: ``import repro.cli`` does not load it.
    """
    packages = {"scipy": "startup.scipy_ms", "numpy": "startup.numpy_ms",
                "repro": "startup.repro_self_ms"}
    metrics = dict.fromkeys(["startup.import_ms", *packages.values()], 0.0)
    for line in text.splitlines():
        if not line.startswith("import time:") or "[us]" in line:
            continue
        own, _, name = line[len("import time:"):].split("|")
        ms = int(own) / 1e3
        metrics["startup.import_ms"] += ms
        key = packages.get(name.strip().split(".")[0])
        if key is not None:
            metrics[key] += ms
    return metrics


def startup_metrics(env: dict[str, str], samples: int,
                    deadline: float) -> dict[str, float]:
    """Median start-up metrics over *samples* fresh interpreters."""
    runs = []
    for _ in range(samples):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import repro.cli"],
            env=env, capture_output=True, text=True,
            timeout=max(0.0, deadline - time.monotonic()), check=True)
        runs.append(parse_importtime(proc.stderr))
    return {key: statistics.median(run[key] for run in runs)
            for key in runs[0]}


def _next_stem(out_dir: Path, stem: str) -> Path:
    index = 0
    while (out_dir / f"{stem}-{index:03d}.json").exists():
        index += 1
    return out_dir / f"{stem}-{index:03d}"


def measure(workload: str, seed: int, seconds: float, traced: bool,
            smoke: bool, out_dir: Path, spec: dict,
            p90_min_samples: int) -> dict[str, Any]:
    """Run one workload (untraced: end-to-end; traced: per-layer) and
    return its record."""
    cfg = spec["workloads"][workload]
    limit = int(cfg["smoke_requests"]) if smoke else None
    env = child_env(spec)
    deadline = time.monotonic() + RUN_TIMEOUT_S
    stem = _next_stem(out_dir, f"{workload}-seed{seed}-"
                               f"{'trace' if traced else 'e2e'}")
    record: dict[str, Any] = {"workload": workload, "seed": seed,
                              "trace": traced, "seconds": seconds,
                              "smoke": smoke}
    if traced:
        _, report = run_child(workload, seed, seconds, "trace", env,
                              deadline, limit=limit, out_prefix=stem)
        metrics = dict(report["layers"])
        metrics.update(startup_metrics(env, IMPORTTIME_SAMPLES, deadline))
        record["counts_per_request"] = report["counts_per_request"]
        record["self_times"] = report["self_times"]
    else:
        # The measuring child is the last of the set-up samples.
        setup_s = [run_child(workload, seed, seconds, "setup", env,
                             deadline, limit=limit)[0]
                   for _ in range(0 if smoke else SETUP_SAMPLES - 1)]
        ready_s, report = run_child(workload, seed, seconds, "e2e", env,
                                    deadline, limit=limit)
        setup_s.append(ready_s)
        metrics = e2e_metrics(report["latencies_s"], len(report["errors"]),
                              setup_s, report["peak_rss_mb"],
                              report["accuracy"], p90_min_samples)
        record["setup_s_samples"] = setup_s
    record.update(labels=report["labels"],
                  latencies_s=report["latencies_s"],
                  attempted=sum(map(len, report["latencies_s"])),
                  failed=len(report["errors"]),
                  errors=report["errors"], metrics=metrics)
    with open(f"{stem}.json", "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    return record


def check_determinism(seed: int, seconds: float, spec: dict,
                      out_dir: Path) -> int:
    """Run the first requests of the simulating workloads under hash
    seeds 0 and 1 and list every exact counter that diverges.

    Reports only: divergence is a known program bug, not a harness
    failure.
    """
    diverged = []
    for workload in ("paper-sweep", "scenario-compare"):
        runs = [run_child(workload, seed, seconds, "counters",
                          child_env(spec, hash_seed),
                          time.monotonic() + RUN_TIMEOUT_S,
                          limit=DETERMINISM_REQUESTS)[1]
                for hash_seed in ("0", "1")]
        for label, first, second in zip(runs[0]["labels"],
                                        runs[0]["counts_per_request"],
                                        runs[1]["counts_per_request"]):
            for counter in sorted(set(first) | set(second)):
                a, b = first.get(counter, 0), second.get(counter, 0)
                if a != b:
                    diverged.append({"workload": workload, "request": label,
                                     "counter": counter, "hash_seed_0": a,
                                     "hash_seed_1": b})
                    print(f"DIVERGE {workload} {label} {counter} {a} {b}")
    with open(out_dir / f"determinism-seed{seed}.json", "w",
              encoding="utf-8") as handle:
        json.dump(diverged, handle, indent=1)
    print(f"determinism: {len(diverged)} exact counters diverge between "
          f"PYTHONHASHSEED=0 and 1 (reported, not failed)")
    return 0


def _print_metrics(workload: str, metrics: dict[str, float],
                   units: dict[str, str]) -> None:
    for name, value in metrics.items():
        print(f"METRIC {workload} {name} {value!r} {units[name]}")


def main(argv: list[str] | None = None) -> int:
    bench, spec = load_config()
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(spec["workloads"]),
                        help="one workload (default: every workload)")
    parser.add_argument("--seed", type=int, default=spec["default_seed"])
    parser.add_argument("--seconds", type=float,
                        default=float(bench["run_seconds"]),
                        help="time budget of the measured phase; whole "
                             "passes of the request list run while they fit")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?",
                        const=1, default=0,
                        help="1: the per-layer run instead of end-to-end")
    parser.add_argument("--out", type=Path,
                        default=ROOT / ".bench_out" / "e2e",
                        help="directory for the JSON records and traces")
    parser.add_argument("--smoke", action="store_true",
                        help="the first 1-2 requests and one set-up "
                             "sample per workload (self-tests)")
    parser.add_argument("--check-determinism", action="store_true",
                        help="compare exact counters under two hash seeds")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure: {ROOT / 'src' / 'repro'} "
              f"is missing", file=sys.stderr)
        return 2
    args.out.mkdir(parents=True, exist_ok=True)
    if args.check_determinism:
        return check_determinism(args.seed, args.seconds, spec, args.out)

    units = metric_units(bench, spec)
    p90 = next(m for m in spec["extra_metrics"]
               if m["name"] == "request_s_p90")["min_samples"]
    declared = [m["name"] for m in
                bench["per_layer" if args.trace else "end_to_end"]]
    workloads = [args.workload] if args.workload else list(spec["workloads"])
    records = []
    for workload in workloads:
        try:
            record = measure(workload, args.seed, args.seconds,
                             bool(args.trace), args.smoke, args.out, spec,
                             p90)
        except (HarnessError, subprocess.SubprocessError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        for index, problem in record["errors"]:
            print(f"FAILED {workload} request {index}: {problem}",
                  file=sys.stderr)
        _print_metrics(workload, record["metrics"], units)
        records.append(record)

    def result(name: str, record: dict) -> dict[str, Any]:
        return {"value": record["metrics"][name], "unit": units[name]}

    if len(records) == 1:
        metrics = {name: result(name, records[0]) for name in declared}
    else:
        metrics = {f"{r['workload']}.{name}": result(name, r)
                   for r in records for name in declared}
    failed = sum(r["failed"] for r in records)
    print(json.dumps({"correct": failed == 0,
                      "attempted": sum(r["attempted"] for r in records),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
