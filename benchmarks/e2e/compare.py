"""Compare two sets of end-to-end benchmark runs.

    python3 benchmarks/e2e/compare.py A/ B/ [--json summary.json]

A and B are ``run.py --out`` directories (A is the parent commit, B the
change).  For each (workload, end-to-end metric) pair the untraced runs
of each side give a median and quartiles, and a verdict:

* ``unresolved``: a timed metric's spread on either side (quartile
  distance as a share of the median) is wider than its bound, and not
  every B run reads better than every A run;
* ``worse`` / ``better``: the medians differ by more than the bound;
* ``unchanged``: otherwise.

Bounds come from ``BENCHMARK.json`` (shares of the A median) and from
``spec.json`` (``extra_metrics``).  The absolute bounds there belong
to outputs that are exact for a given seed, so both sides must use
the same seeds and no spread applies to them.  Exact counters
(the ``count`` per-layer metrics of traced runs) must match exactly
for every (workload, seed) both sides traced.  Exits 1 on any
``worse``, one-sided metric or counter mismatch.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent


def load_records(directory: Path) -> list[dict[str, Any]]:
    """Every run record in *directory* (traces and other files skipped)."""
    records = []
    for path in sorted(directory.glob("*.json")):
        if path.name.endswith("-chrome.json"):
            continue
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
        if isinstance(data, dict) and "workload" in data \
                and "metrics" in data:
            records.append(data)
    return records


def load_bounds() -> tuple[list[dict], list[str]]:
    """End-to-end metrics with bounds, and the exact-counter names."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        bench = json.load(handle)
    with open(HERE / "spec.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    metrics = [dict(m, bound_kind="share") for m in bench["end_to_end"]]
    metrics += spec["extra_metrics"]
    exact = [m["name"] for m in bench["per_layer"] if m["unit"] == "count"]
    return metrics, exact


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3); a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(a: list[float], b: list[float], better: str, bound: float,
            bound_kind: str) -> tuple[str, float]:
    """Verdict of B against A, and the change (positive is worse; a
    share of A's median for share bounds)."""
    sign = 1.0 if better == "lower" else -1.0
    (a1, a_med, a3), (b1, b_med, b3) = quartiles(a), quartiles(b)
    if bound_kind == "share":
        change = sign * (b_med - a_med) / (abs(a_med) or 1.0)
        spread = max((a3 - a1) / (abs(a_med) or 1.0),
                     (b3 - b1) / (abs(b_med) or 1.0))
    else:
        # Absolute bounds belong to outputs that are exact for a given
        # seed: their spread is the seeds', not noise.
        change = sign * (b_med - a_med)
        spread = 0.0
    if all(sign * (y - x) < 0 for x in a for y in b):
        return "better", change
    if spread > bound:
        return "unresolved", change
    if change > bound:
        return "worse", change
    if change < -bound:
        return "better", change
    return "unchanged", change


def compare(a_records: list[dict], b_records: list[dict],
            metrics: list[dict], exact: list[str]) -> dict[str, Any]:
    """The full comparison as a JSON-ready summary."""
    rows = []
    workloads = sorted({r["workload"] for r in a_records + b_records})
    for workload in workloads:
        for metric in metrics:
            name = metric["name"]
            sides = [[r["metrics"][name] for r in records
                      if r["workload"] == workload and not r["trace"]
                      and name in r["metrics"]]
                     for records in (a_records, b_records)]
            if not sides[0] and not sides[1]:
                continue
            row: dict[str, Any] = {"workload": workload, "metric": name,
                                   "bound": metric["bound"],
                                   "bound_kind": metric["bound_kind"]}
            for label, values in zip("ab", sides):
                if values:
                    row[label] = dict(zip(("q1", "median", "q3"),
                                          quartiles(values)), n=len(values))
            if sides[0] and sides[1]:
                row["verdict"], row["change"] = verdict(
                    sides[0], sides[1], metric["better"], metric["bound"],
                    metric["bound_kind"])
            else:
                row["verdict"] = "missing"
            rows.append(row)
    return {"rows": rows,
            "counter_mismatches": counter_mismatches(a_records, b_records,
                                                     exact)}


def counter_mismatches(a_records: list[dict], b_records: list[dict],
                       exact: list[str]) -> list[dict[str, Any]]:
    """Exact counters that differ for a (workload, seed) both sides
    traced, within a side or across sides."""
    def traced(records):
        grouped: dict[tuple, list[dict]] = {}
        for r in records:
            if r["trace"]:
                grouped.setdefault((r["workload"], r["seed"]),
                                   []).append(r["metrics"])
        return grouped

    a_runs, b_runs = traced(a_records), traced(b_records)
    mismatches = []
    for key in sorted(set(a_runs) & set(b_runs)):
        for name in exact:
            seen = {run.get(name) for run in a_runs[key] + b_runs[key]}
            if len(seen) > 1:
                mismatches.append({
                    "workload": key[0], "seed": key[1], "counter": name,
                    "a": [run.get(name) for run in a_runs[key]],
                    "b": [run.get(name) for run in b_runs[key]]})
    return mismatches


def render(summary: dict[str, Any]) -> str:
    def side(row, label):
        if label not in row:
            return f"{'-':>30}"
        s = row[label]
        return (f"{s['median']:>10.4g} [{s['q1']:.4g}, {s['q3']:.4g}]"
                f" n={s['n']}").rjust(30)

    lines = [f"{'workload':<17} {'metric':<14} {'A median [q1, q3]':>30} "
             f"{'B median [q1, q3]':>30} {'change':>8} {'bound':>7}  verdict"]
    for row in summary["rows"]:
        change = row.get("change")
        shown = "-" if change is None else (
            f"{100 * change:+.1f}%" if row["bound_kind"] == "share"
            else f"{change:+.4f}")
        bound = (f"{100 * row['bound']:.0f}%" if row["bound_kind"] == "share"
                 else f"+{row['bound']:g}")
        lines.append(f"{row['workload']:<17} {row['metric']:<14} "
                     f"{side(row, 'a')} {side(row, 'b')} {shown:>8} "
                     f"{bound:>7}  {row['verdict']}")
    mismatches = summary["counter_mismatches"]
    lines.append(f"exact counters: {len(mismatches)} mismatches")
    lines += [f"  {m['workload']} seed {m['seed']} {m['counter']}: "
              f"A={m['a']} B={m['b']}" for m in mismatches]
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", type=Path, help="runs of the parent commit")
    parser.add_argument("b", type=Path, help="runs of the change")
    parser.add_argument("--json", type=Path, default=None,
                        help="also write the summary here")
    args = parser.parse_args(argv)
    metrics, exact = load_bounds()
    summary = compare(load_records(args.a), load_records(args.b),
                      metrics, exact)
    print(render(summary))
    if args.json is not None:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(summary, handle, indent=1)
    failing = [row for row in summary["rows"]
               if row["verdict"] in ("worse", "missing")]
    return 1 if failing or summary["counter_mismatches"] else 0


if __name__ == "__main__":
    sys.exit(main())
