"""The batched engine owns the model's iterate: no scalar rebuild runs.

Production builds every chain's phase costs once, when the engine is
set up, takes the chain's ``q(t)`` and lock count from that build, and
assembles visits and demands as arrays from then on.  The scalar
per-chain assembly (``phases.transition_matrix`` ->
``phases.visit_counts`` -> ``demands.aggregate_demands``) belongs to
the oracle in ``repro.model.solver_reference``, which neither the
planner nor the sweep runner may load.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

from repro.model import demands, phases
from repro.model.open_solver import OpenWorkload, solve_open_batch
from repro.model.outer import solve_outer_batch
from repro.model.solver import CaratModel, ModelConfig
from repro.model.types import BaseType
from repro.model.workload import lb8, mb8

SRC = Path(__file__).resolve().parents[2] / "src"


def _count_calls(monkeypatch, func):
    """Count calls of *func* through every loaded ``repro`` module
    that binds it, however it was imported."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return func(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if (name.startswith("repro.")
                and getattr(module, func.__name__, None) is func):
            monkeypatch.setattr(module, func.__name__, counting)
    return calls


def test_production_runs_no_scalar_demand_assembly(monkeypatch, sites):
    costs = _count_calls(monkeypatch, demands.build_phase_costs)
    ios = _count_calls(monkeypatch, demands.ios_per_request)
    aggregates = _count_calls(monkeypatch, demands.aggregate_demands)
    visits = _count_calls(monkeypatch, phases.visit_counts)
    matrices = _count_calls(monkeypatch, phases.transition_matrix)

    models = [CaratModel(ModelConfig(workload=mb8(n), sites=sites,
                                     max_iterations=1000))
              for n in (4, 8, 12)]
    solutions = solve_outer_batch(models)
    presolve = CaratModel(ModelConfig(workload=lb8(8), sites=sites))
    networks = [presolve.site_network(site)
                for site in presolve.workload.sites]
    rates = {BaseType.LRO: 0.3, BaseType.LU: 0.1, BaseType.DRO: 0.1,
             BaseType.DU: 0.05}
    open_batch = solve_open_batch(
        OpenWorkload(template=mb8(8),
                     arrivals_per_s={"A": dict(rates), "B": dict(rates)}),
        sites, [0.5, 1.0])

    chains = (sum(len(site.chains) for solution in solutions
                  for site in solution.sites.values())
              + sum(len(network.populations) for network in networks)
              + len(open_batch.keys))
    assert len(costs) == chains
    # q(t) (Yao's formula) and N_lk(t) come from that one build.
    assert len(ios) == chains
    assert aggregates == []
    assert visits == []
    assert matrices == []


def test_planner_and_sweeps_never_load_the_oracle():
    script = textwrap.dedent("""
        import sys
        from repro.experiments import runner
        from repro.model.parameters import paper_sites
        from repro.model.workload import mb4, mb8
        from repro.planner import PlanSpec, SloSpec, plan
        from repro.planner.spec import WhatIfCandidate

        plan(PlanSpec(workload=mb4(4), mpl_max=8,
                      slo=SloSpec(response_ms=60_000.0),
                      whatif=(WhatIfCandidate(kind="disk_speed",
                                              factor=2.0),),
                      tolerance=1e-3, max_iterations=300))
        runner.solve_sweep_models([mb8(4), mb8(8)], paper_sites())
        runner.solve_sweep_models([mb8(4), mb8(8)], paper_sites(),
                                  warm_start=True)
        print(sorted(name for name in ("repro.model.solver_reference",
                                       "repro.model.remote")
                     if name in sys.modules))
    """)
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=f"{SRC}{os.pathsep}{path}" if path else str(SRC))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
