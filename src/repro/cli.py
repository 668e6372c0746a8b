"""Command-line interface: ``python -m repro`` / ``carat-qnm``.

Subcommands
-----------
``model``
    Solve the analytical model for one workload and print the site
    measures.
``simulate``
    Run the CARAT testbed simulator for one workload, optionally with
    event tracing (``--trace``).
``compare``
    Run model and simulator on the same workload and print the
    residual report (docs/diagnostics.md).
``experiment``
    Reproduce one of the paper's tables/figures (model + simulator)
    and print the comparison table.
``diagnose``
    Solve a workload or an experiment's model sweep with convergence
    tracing attached and emit an iteration-by-iteration JSON report
    (docs/diagnostics.md).
``perf``
    Run the perf-baseline suite, emit ``BENCH_*.json`` records, and
    optionally gate against a committed baseline (docs/diagnostics.md).
``plan``
    Capacity planner: search the throughput-optimal MPL, check SLOs
    and evaluate hardware what-ifs over the analytic model
    (docs/planner.md).
``stats``
    Run experiments / a plan / the perf suite under the run-level
    observability substrate and print per-stage and per-worker
    summaries, with optional Chrome-trace and Prometheus dumps
    (docs/observability.md).
``list``
    List the available experiments and workloads, with the
    operational-bounds pre-screen per workload.
"""

from __future__ import annotations

import argparse
import sys

from repro.experiments import (EXPERIMENTS, experiment,
                               render_figure_series, render_per_type_table,
                               render_summary_table)
from repro.model.parameters import paper_sites
from repro.model.solver import solve_model
from repro.model.workload import STANDARD_WORKLOADS
from repro.testbed.system import simulate

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="carat-qnm",
        description="Queueing network model and simulator for the CARAT "
                    "distributed database testbed (Jenq/Kohler/Towsley, "
                    "ICDE 1987).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    model = sub.add_parser("model", help="solve the analytical model")
    _workload_args(model)

    sim = sub.add_parser("simulate", help="run the testbed simulator")
    _workload_args(sim)
    sim.add_argument("--seed", type=int, default=7)
    sim.add_argument("--duration-s", type=float, default=600.0,
                     help="measured simulated seconds")
    sim.add_argument("--warmup-s", type=float, default=60.0)
    sim.add_argument("--trace", action="store_true",
                     help="record lifecycle events and dump them after "
                          "the run (docs/diagnostics.md)")
    sim.add_argument("--trace-limit", type=int, default=50,
                     help="events shown on stdout (most recent first "
                          "dropped; files always get every retained "
                          "event)")
    sim.add_argument("--trace-txn", default=None, metavar="SUBSTRING",
                     help="only events whose transaction id contains "
                          "SUBSTRING")
    sim.add_argument("--trace-site", default=None,
                     help="only events at one site")
    sim.add_argument("--trace-file", default=None,
                     help="write the filtered trace to a file instead "
                          "of stdout")
    sim.add_argument("--trace-format", choices=["text", "jsonl"],
                     default="text")

    compare = sub.add_parser(
        "compare",
        help="run model + simulator and print the residual report "
             "(docs/diagnostics.md)")
    _workload_args(compare)
    compare.add_argument("--seed", type=int, default=7)
    compare.add_argument("--duration-s", type=float, default=600.0,
                         help="measured simulated seconds")
    compare.add_argument("--warmup-s", type=float, default=60.0)
    compare.add_argument("--quick", action="store_true",
                         help="short window (60s measured; noisier "
                              "residuals)")
    compare.add_argument("--max-residual", type=float, default=None,
                         metavar="FRACTION",
                         help="exit 1 when any comparable |residual| "
                              "exceeds FRACTION (e.g. 0.3 = 30%%)")
    compare.add_argument("--json", action="store_true",
                         help="emit the full report as JSON")
    compare.add_argument("--output", default="-",
                         help="file path or '-' for stdout")

    exp = sub.add_parser("experiment",
                         help="reproduce tables/figures of the paper")
    exp.add_argument("exp_id", nargs="+", choices=sorted(EXPERIMENTS),
                     help="one or more experiment ids; their sweep "
                          "points share one --jobs fan-out batch")
    exp.add_argument("--quick", action="store_true",
                     help="short simulation window (smoke test)")
    exp.add_argument("--model-only", action="store_true",
                     help="skip the simulator")
    exp.add_argument("--bounds", action="store_true",
                     help="append operational-bounds columns (X-ub, "
                          "N-sat) to summary tables (docs/planner.md)")
    _sweep_args(exp)

    report = sub.add_parser(
        "report", help="regenerate EXPERIMENTS.md (all artifacts)")
    report.add_argument("--quick", action="store_true")
    report.add_argument("--output", default="EXPERIMENTS.md")
    report.add_argument("--jobs", type=int, default=1,
                        help="worker processes per sweep "
                             "(docs/parallel.md)")

    calibrate = sub.add_parser(
        "calibrate",
        help="re-fit the protocol cost constants (DESIGN.md §4.3)")
    calibrate.add_argument("--evaluations", type=int, default=60)

    sensitivity = sub.add_parser(
        "sensitivity",
        help="sweep one site parameter and report the elasticity")
    _workload_args(sensitivity)
    sensitivity.add_argument(
        "--field", default="block_io_ms",
        choices=["block_io_ms", "granules", "records_per_granule"])
    sensitivity.add_argument("--values", type=float, nargs="+",
                             default=None,
                             help="sweep values (default: 0.7x/1x/1.5x "
                                  "of the paper's setting)")

    diagnose = sub.add_parser(
        "diagnose",
        help="emit a JSON convergence report for a workload or an "
             "experiment's model sweep (docs/diagnostics.md)")
    diagnose.add_argument(
        "target",
        help="experiment id (e.g. fig5) or workload name (e.g. MB8)")
    diagnose.add_argument("-n", "--requests", type=int, default=8,
                          help="requests per transaction (workload "
                               "targets only)")
    diagnose.add_argument("--quick", action="store_true",
                          help="solve only the first and last sweep "
                               "points of an experiment target")
    diagnose.add_argument("--warm-start", action="store_true",
                          help="chain the sweep solves (experiment "
                               "targets only)")
    diagnose.add_argument("--summary-only", action="store_true",
                          help="omit the per-iteration records and "
                               "emit only the per-solve summaries")
    diagnose.add_argument("--output", default="-",
                          help="file path or '-' for stdout")

    from repro.experiments.perf import add_arguments as add_perf_arguments
    add_perf_arguments(sub.add_parser(
        "perf",
        help="run the perf-baseline suite and emit/check BENCH_*.json "
             "(docs/diagnostics.md)"))

    export = sub.add_parser(
        "export", help="export one experiment's sweep as CSV")
    export.add_argument("exp_id", choices=sorted(EXPERIMENTS))
    export.add_argument("--output", default="-",
                        help="file path or '-' for stdout")
    export.add_argument("--model-only", action="store_true")
    export.add_argument("--quick", action="store_true")
    _sweep_args(export)

    plan = sub.add_parser(
        "plan",
        help="capacity plan: optimal MPL, thrashing knee, SLO "
             "verdicts, bottlenecks and what-ifs (docs/planner.md)")
    plan.add_argument("--workload", type=str.upper,
                      choices=sorted(STANDARD_WORKLOADS),
                      default="MB8",
                      help="workload mix (case-insensitive)")
    plan.add_argument("-n", "--requests", type=int, default=8,
                      help="requests per transaction (paper: 4..20)")
    plan.add_argument("--mpl-max", type=int, default=24,
                      help="per-site MPL search ceiling")
    plan.add_argument("--slo-response", type=float, default=None,
                      metavar="SECONDS",
                      help="mean commit-cycle response-time target")
    plan.add_argument("--slo-abort", type=float, default=None,
                      metavar="FRACTION",
                      help="mean per-execution abort-probability "
                           "target")
    plan.add_argument("--whatif", action="append", default=None,
                      metavar="KIND[=FACTOR]",
                      help="candidate to evaluate (cpu, disk, "
                           "granules, log-split; repeatable); "
                           "'standard' expands the default menu")
    plan.add_argument("--tolerance", type=float, default=1e-4,
                      help="solver convergence tolerance per point")
    plan.add_argument("--max-iterations", type=int, default=600,
                      help="solver iteration budget per point")
    plan.add_argument("--jobs", type=int, default=1,
                      help="worker processes for the what-if fan-out "
                           "(docs/parallel.md); 0 means one per CPU")
    plan.add_argument("--cached", action="store_true",
                      help="memoize solves in the on-disk result "
                           "cache ($CARAT_CACHE_DIR)")
    plan.add_argument("--json", action="store_true",
                      help="emit the plan as JSON")
    plan.add_argument("--output", default="-",
                      help="file path or '-' for stdout")

    stats = sub.add_parser(
        "stats",
        help="run a sweep/plan/perf target under the observability "
             "substrate and print stage/worker summaries "
             "(docs/observability.md)")
    stats.add_argument(
        "targets", nargs="+",
        choices=sorted(EXPERIMENTS) + ["plan", "perf"],
        help="experiment ids (share one sweep batch), 'plan' (capacity "
             "plan with the standard what-if menu) or 'perf' (one "
             "perf-suite experiment)")
    stats.add_argument("--quick", action="store_true",
                       help="short simulation window (smoke test)")
    stats.add_argument("--model-only", action="store_true",
                       help="skip the simulator (experiment targets)")
    stats.add_argument("--workload", type=str.upper,
                       choices=sorted(STANDARD_WORKLOADS), default="MB8",
                       help="workload mix for the 'plan' target")
    stats.add_argument("-n", "--requests", type=int, default=8,
                       help="requests per transaction ('plan' target)")
    stats.add_argument("--mpl-max", type=int, default=24,
                       help="per-site MPL ceiling ('plan' target)")
    stats.add_argument("--trace-out", default=None, metavar="FILE",
                       help="write the merged Chrome trace_event JSON "
                            "(load in Perfetto / chrome://tracing)")
    stats.add_argument("--metrics-out", default=None, metavar="FILE",
                       help="write the metrics dump in Prometheus "
                            "textfile format")
    _sweep_args(stats)

    lint = sub.add_parser(
        "lint",
        help="run caratlint, the domain-invariant static analyzer "
             "(docs/static-analysis.md)")
    lint.add_argument("paths", nargs="*", default=["src"],
                      help="files or directories to lint "
                           "(default: src)")
    lint.add_argument("--format", choices=("text", "json"),
                      default="text",
                      help="report format (default: text)")
    lint.add_argument("--output", metavar="FILE", default=None,
                      help="write the report to FILE instead of "
                           "stdout")
    lint.add_argument("--list-rules", action="store_true",
                      help="print the registered rule catalog and "
                           "exit")

    from repro.scenarios.cli import add_scenario_parser
    add_scenario_parser(sub)

    sub.add_parser("list", help="list experiments, workloads and "
                                "scenarios")
    return parser


def _workload_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--workload", choices=sorted(STANDARD_WORKLOADS),
                        default="MB8")
    parser.add_argument("-n", "--requests", type=int, default=8,
                        help="requests per transaction (paper: 4..20)")


def _sweep_args(parser: argparse.ArgumentParser) -> None:
    """Flags shared by the sweep-running subcommands."""
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes for the sweep points "
                             "(docs/parallel.md); 0 means one per CPU")
    parser.add_argument("--cached", action="store_true",
                        help="serve/store results via the on-disk "
                             "content-addressed cache "
                             "($CARAT_CACHE_DIR, docs/parallel.md)")
    parser.add_argument("--warm-start", action="store_true",
                        help="seed each model solve from the previous "
                             "sweep point's converged state")
    parser.add_argument("--trace", action="store_true",
                        help="record per-solve convergence traces "
                             "(attached to cached results; "
                             "docs/diagnostics.md)")


def _run_specs(specs, args, duration: float):
    """Run experiment specs honoring --jobs/--cached/--warm-start."""
    from repro.experiments.cache import fetch_or_run_many
    jobs = args.jobs if args.jobs > 0 else None
    return fetch_or_run_many(
        specs, sim_duration_ms=duration, sim_warmup_ms=duration / 10,
        run_simulation=not args.model_only, jobs=jobs,
        warm_start=args.warm_start, use_cache=args.cached,
        trace=getattr(args, "trace", False))


def _cmd_model(args) -> int:
    workload = STANDARD_WORKLOADS[args.workload](args.requests)
    solution = solve_model(workload, paper_sites(), max_iterations=1000)
    print(f"workload {workload.name}, n={args.requests} "
          f"(converged in {solution.iterations} iterations)")
    for name, site in sorted(solution.sites.items()):
        print(f"  node {name}: TR-XPUT={site.transaction_throughput_per_s:.3f}/s "
              f"Total-CPU={site.cpu_utilization:.3f} "
              f"Total-DIO={site.dio_rate_per_s:.1f}/s "
              f"records/s={site.record_throughput_per_s:.1f}")
    return 0


def _cmd_simulate(args) -> int:
    workload = STANDARD_WORKLOADS[args.workload](args.requests)
    tracer = None
    if args.trace:
        from repro.testbed.tracing import Tracer
        tracer = Tracer()
    measurement = simulate(
        workload, paper_sites(), seed=args.seed,
        warmup_ms=args.warmup_s * 1e3,
        duration_ms=args.duration_s * 1e3,
        tracer=tracer)
    print(f"workload {workload.name}, n={args.requests}, "
          f"seed={args.seed}")
    for name, site in sorted(measurement.sites.items()):
        aborts = sum(site.aborts_by_type.values())
        print(f"  node {name}: TR-XPUT={site.transaction_throughput_per_s:.3f}/s "
              f"Total-CPU={site.cpu_utilization:.3f} "
              f"Total-DIO={site.dio_rate_per_s:.1f}/s "
              f"aborts={aborts} "
              f"deadlocks={site.local_deadlocks}L+{site.global_deadlocks}G")
    if tracer is not None:
        _dump_trace(tracer, args)
    return 0


def _dump_trace(tracer, args) -> None:
    """Render the run's trace per the --trace-* flags."""
    events = tracer.events(site=args.trace_site)
    if args.trace_txn is not None:
        events = [e for e in events if args.trace_txn in e.txn]
    render = (tracer.to_jsonl if args.trace_format == "jsonl"
              else tracer.dump)
    if args.trace_file:
        with open(args.trace_file, "w", encoding="utf-8") as handle:
            handle.write(render(events) + "\n")
        print(f"trace: {tracer.recorded} events recorded "
              f"({tracer.dropped} dropped), {len(events)} matched, "
              f"wrote {args.trace_file}")
        return
    shown = events[-args.trace_limit:] if args.trace_limit > 0 else events
    print(f"trace: {tracer.recorded} events recorded "
          f"({tracer.dropped} dropped), {len(events)} matched, "
          f"showing {len(shown)}")
    if shown:
        print(render(shown))


def _cmd_compare(args) -> int:
    from repro.experiments.compare import (compare_workload,
                                           flagged_rows, render_json,
                                           render_table)
    report = compare_workload(
        args.workload, requests=args.requests, seed=args.seed,
        duration_ms=args.duration_s * 1e3,
        warmup_ms=args.warmup_s * 1e3, quick=args.quick)
    text = (render_json(report) if args.json
            else render_table(report, max_residual=args.max_residual))
    if args.output == "-":
        print(text)
    else:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        print(f"wrote {args.output}")
    if args.max_residual is not None \
            and flagged_rows(report, args.max_residual):
        return 1
    return 0


def _cmd_experiment(args) -> int:
    from repro.experiments.catalog import experiment_specs
    specs = experiment_specs(args.exp_id)
    duration = 120_000.0 if args.quick else 600_000.0
    results = _run_specs(specs, args, duration)
    for spec, result in zip(specs, results):
        if len(specs) > 1:
            print(f"== {spec.title} ({spec.exp_id}) ==")
        if spec.exp_id == "tab5":
            print(render_per_type_table(result))
        elif spec.exp_id.startswith("fig"):
            from repro.experiments.plots import figure_chart
            metric = {"fig5": "record_xput", "fig6": "cpu",
                      "fig7": "dio", "fig8": "record_xput",
                      "fig9": "cpu", "fig10": "dio"}[spec.exp_id]
            for site in spec.sites_of_interest:
                print(render_figure_series(result, site, metric, metric))
                print()
                print(figure_chart(result, site, metric,
                                   spec.title).text)
                print()
        else:
            print(render_summary_table(result, bounds=args.bounds))
        if args.trace:
            _print_trace_summaries(result)
    return 0


def _print_trace_summaries(result) -> None:
    """One convergence line per sweep point (--trace)."""
    print("model convergence:")
    seen = set()
    for point in result.points:
        if point.n in seen or not point.model_trace:
            continue
        seen.add(point.n)
        summary = point.model_trace["summary"]
        print(f"  n={point.n}: {summary['diagnosis']}")


def _cmd_diagnose(args) -> int:
    from repro.experiments.diagnose import diagnose_report, render_json
    report = diagnose_report(
        args.target, requests=args.requests, quick=args.quick,
        warm_start=args.warm_start)
    text = render_json(report, include_iterations=not args.summary_only)
    if args.output == "-":
        print(text)
    else:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        print(f"wrote {args.output}")
    return 0 if all(p["summary"]["converged"]
                    for p in report["points"]) else 1


def _cmd_perf(args) -> int:
    from repro.experiments.perf import run
    return run(args)


def _cmd_report(args) -> int:
    from repro.experiments.emit import main as emit_main
    argv = ["--output", args.output, "--jobs", str(args.jobs)]
    if args.quick:
        argv.append("--quick")
    return emit_main(argv)


def _cmd_calibrate(args) -> int:
    from repro.model.calibration import calibrate_protocol
    result = calibrate_protocol(max_evaluations=args.evaluations)
    print(f"objective {result.objective:.4f} after "
          f"{result.iterations} model solves")
    protocol = result.protocol
    print(f"  tbegin_cpu          = {protocol.tbegin_cpu:.1f} ms")
    print(f"  dbopen_cpu_per_site = {protocol.dbopen_cpu_per_site:.1f} ms")
    print(f"  commit_cpu          = {protocol.commit_cpu:.1f} ms")
    for site, (xput_r, cpu_r, dio_r) in result.residuals.items():
        print(f"  node {site}: XPUT {100 * xput_r:+.1f}%  "
              f"CPU {100 * cpu_r:+.1f}%  DIO {100 * dio_r:+.1f}%")
    return 0


def _cmd_export(args) -> int:
    from repro.experiments.export import experiment_to_csv
    spec = experiment(args.exp_id)
    duration = 120_000.0 if args.quick else 600_000.0
    result = _run_specs([spec], args, duration)[0]
    text = experiment_to_csv(result, per_type=args.exp_id == "tab5")
    if args.output == "-":
        print(text, end="")
    else:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"wrote {args.output}")
    return 0


def _cmd_sensitivity(args) -> int:
    from repro.experiments.sensitivity import (elasticity,
                                               sweep_site_field)
    workload = STANDARD_WORKLOADS[args.workload](args.requests)
    sites = paper_sites()
    values = args.values
    if values is None:
        baseline = getattr(sites["A"], args.field)
        values = [0.7 * baseline, float(baseline), 1.5 * baseline]
    result = sweep_site_field(workload, sites, args.field, values)
    print(f"sensitivity of {workload.name} (n={args.requests}) to "
          f"site.{args.field}:")
    for point in result.points:
        xput = ", ".join(f"{s}={x:.3f}"
                         for s, x in sorted(
                             point.throughput_per_s.items()))
        print(f"  {args.field}={point.value:g}: XPUT {xput}")
    print(f"  elasticity (node A): {elasticity(result, 'A'):+.3f}")
    return 0


def _parse_whatif(values: list[str] | None):
    """Translate ``--whatif`` tokens into candidates."""
    from repro.planner import WhatIfCandidate, standard_candidates
    if not values:
        return ()
    kinds = {"cpu": "cpu_speed", "disk": "disk_speed",
             "granules": "granules", "log-split": "log_split",
             "log_split": "log_split"}
    candidates = []
    for token in values:
        if token == "standard":
            candidates.extend(standard_candidates())
            continue
        name, _, factor = token.partition("=")
        if name not in kinds:
            raise SystemExit(
                f"unknown --whatif {token!r}; expected one of "
                f"{sorted(kinds)} or 'standard'")
        candidates.append(WhatIfCandidate(
            kind=kinds[name], factor=float(factor) if factor else 2.0))
    return tuple(candidates)


def _cmd_plan(args) -> int:
    from repro.planner import (PlanSpec, SloSpec, plan,
                               render_plan_json, render_plan_text)
    workload = STANDARD_WORKLOADS[args.workload](args.requests)
    spec = PlanSpec(
        workload=workload,
        mpl_max=args.mpl_max,
        slo=SloSpec(
            response_ms=(None if args.slo_response is None
                         else args.slo_response * 1e3),
            abort_probability=args.slo_abort),
        whatif=_parse_whatif(args.whatif),
        tolerance=args.tolerance,
        max_iterations=args.max_iterations,
    )
    result = plan(spec, jobs=args.jobs if args.jobs > 0 else None,
                  use_cache=args.cached)
    text = (render_plan_json(result) if args.json
            else render_plan_text(result))
    if args.output == "-":
        print(text)
    else:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        print(f"wrote {args.output}")
    return 0


def _run_stats_targets(args) -> None:
    """Dispatch the ``stats`` targets under the active registry."""
    from repro.experiments.catalog import experiment_specs
    exp_ids = [t for t in args.targets if t in EXPERIMENTS]
    if exp_ids:
        specs = experiment_specs(exp_ids)
        duration = 120_000.0 if args.quick else 600_000.0
        _run_specs(specs, args, duration)
    if "plan" in args.targets:
        from repro.planner import PlanSpec, plan, standard_candidates
        workload = STANDARD_WORKLOADS[args.workload](args.requests)
        spec = PlanSpec(workload=workload, mpl_max=args.mpl_max,
                        whatif=standard_candidates())
        plan(spec, jobs=args.jobs if args.jobs > 0 else None,
             use_cache=args.cached)
    if "perf" in args.targets:
        from repro.experiments.perf import run_suite
        run_suite(("tab3",))


def _cmd_stats(args) -> int:
    from repro.model.diagnostics import trace_clock
    from repro.obs import MetricsRegistry, recording, span
    from repro.obs.export import to_chrome_trace, to_prometheus
    from repro.obs.report import render_stats_report

    registry = MetricsRegistry()
    clock = trace_clock()
    start = clock()
    with recording(registry), \
            span("stats.run", targets=" ".join(args.targets),
                 jobs=args.jobs):
        _run_stats_targets(args)
    wall_ms = (clock() - start) * 1e3
    print(render_stats_report(registry, wall_ms))
    if args.trace_out:
        with open(args.trace_out, "w", encoding="utf-8") as handle:
            handle.write(to_chrome_trace(registry) + "\n")
        print(f"wrote {args.trace_out}")
    if args.metrics_out:
        with open(args.metrics_out, "w", encoding="utf-8") as handle:
            handle.write(to_prometheus(registry))
        print(f"wrote {args.metrics_out}")
    return 0


def _cmd_lint(args) -> int:
    from repro.analysis.cli import main as lint_main
    argv = list(args.paths)
    argv += ["--format", args.format]
    if args.output:
        argv += ["--output", args.output]
    if args.list_rules:
        argv.append("--list-rules")
    return lint_main(argv)


def _cmd_list(_args) -> int:
    from repro.planner.report import render_workload_bounds
    from repro.scenarios.generator import standard_families
    from repro.scenarios.spec import BUILTIN_NAMES
    print("experiments:")
    for exp_id, spec in sorted(EXPERIMENTS.items()):
        print(f"  {exp_id:>6}  {spec.title}")
    print("workloads:", ", ".join(sorted(STANDARD_WORKLOADS)))
    print("scenario specs:",
          ", ".join(name.lower() for name in BUILTIN_NAMES))
    print("scenario families "
          "(repro scenario sample --family NAME):")
    for name, fam in sorted(standard_families().items()):
        print(f"  {name:<14} {fam.description}")
    print(render_workload_bounds())
    return 0


def _cmd_scenario(args) -> int:
    from repro.scenarios.cli import cmd_scenario
    return cmd_scenario(args)


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    handlers = {
        "model": _cmd_model,
        "simulate": _cmd_simulate,
        "compare": _cmd_compare,
        "experiment": _cmd_experiment,
        "diagnose": _cmd_diagnose,
        "perf": _cmd_perf,
        "report": _cmd_report,
        "calibrate": _cmd_calibrate,
        "sensitivity": _cmd_sensitivity,
        "export": _cmd_export,
        "plan": _cmd_plan,
        "stats": _cmd_stats,
        "lint": _cmd_lint,
        "list": _cmd_list,
        "scenario": _cmd_scenario,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
