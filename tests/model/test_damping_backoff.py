"""The §6 fixed point's damping backoff.

``ModelConfig.damping`` is the starting damping.  From the third
iteration on, a solve whose residual did not shrink multiplies its
damping by 0.9, never below 0.3, and a start below that floor is never
raised.  The batched engine (:mod:`repro.model.outer`) and the scalar
oracle (:class:`~repro.model.solver_reference.ReferenceCaratModel`)
each run the rule in their own loop.  The open engine
(:func:`~repro.model.open_solver.solve_open_batch`) runs it per row
through the same helper, from the same 0.8 start.
"""

import numpy as np
import pytest

import repro.model.outer as outer
from repro.errors import ConvergenceError
from repro.experiments.runner import solve_sweep_models
from repro.model.diagnostics import ConvergenceTrace
from repro.model.open_solver import OpenWorkload, solve_open_batch
from repro.model.solver import ModelConfig, solve_model
from repro.model.solver_reference import ReferenceCaratModel
from repro.model.workload import STANDARD_WORKLOADS, lb8, mb8
from repro.planner.search import scale_to_mpl

# The fixed damping 0.5 that the backoff replaced stood this far
# (largest relative throughput distance) from a tolerance-1e-11 solve
# on the grid below.
DISTANCE = 5.6e-6


@pytest.mark.parametrize("mpl", [26, 36])
def test_backoff_converges_where_fixed_damping_diverges(sites, monkeypatch,
                                                        mpl):
    workload = scale_to_mpl(lb8(16), mpl)
    assert solve_model(workload, sites).converged
    # Without the backoff the start damping 0.8 oscillates here.
    monkeypatch.setattr(outer, "_DAMPING_BACKOFF", 1.0)
    fixed = solve_model(workload, sites, raise_on_nonconvergence=False)
    assert not fixed.converged


def _dampings(sites, workload, damping):
    trace = ConvergenceTrace()
    solve_model(workload, sites, damping=damping, diagnostics=trace)
    return [record.damping for record in trace]


def test_default_start_backs_off_to_the_floor_at_most(sites):
    used = _dampings(sites, scale_to_mpl(lb8(16), 36), 0.8)
    assert used[:3] == [0.8] * 3
    assert min(used) < 0.8
    assert min(used) >= 0.3
    assert all(b <= a for a, b in zip(used, used[1:]))


def test_start_below_floor_is_never_raised(sites):
    # LB8 n=8's residual grows at iterations 3-7 at damping 0.2, so the
    # rule fires and must leave the damping where it started.
    trace = ConvergenceTrace()
    solve_model(lb8(8), sites, damping=0.2, diagnostics=trace)
    assert any(r.contraction >= 1.0 for r in trace.records[2:])
    assert {record.damping for record in trace} == {0.2}


class _TracedReference(ReferenceCaratModel):
    """The oracle, recording the damping each iteration's updates use."""

    def __init__(self, config):
        super().__init__(config)
        self.used: list[float] = []

    def _update_abort_probabilities(self) -> None:
        self.used.append(self._damping)
        super()._update_abort_probabilities()


def test_engine_and_oracle_back_off_in_the_same_iterations(sites):
    workload = scale_to_mpl(lb8(16), 26)
    trace = ConvergenceTrace()
    solution = solve_model(workload, sites, diagnostics=trace)
    reference = _TracedReference(ModelConfig(workload=workload, sites=sites))
    assert reference.solve().iterations == solution.iterations
    engine_used = [record.damping for record in trace]
    assert engine_used == reference.used
    assert len(set(engine_used)) > 2


def test_default_solve_is_near_the_tight_fixed_point(sites):
    """The backoff start 0.8 stands no farther from the fixed point than
    the fixed damping 0.5 did."""
    workloads = [factory(n) for factory in (mb8, lb8) for n in range(2, 41)]
    default = solve_sweep_models(workloads, sites)
    tight = solve_sweep_models(workloads, sites,
                               model_kwargs={"tolerance": 1e-11})
    worst = 0.0
    for got, ref in zip(default, tight):
        assert got.converged and ref.converged
        for name, site in ref.sites.items():
            for chain, expected in site.chains.items():
                x = got.sites[name].chains[chain].throughput_per_s
                y = expected.throughput_per_s
                if y > 0.0:
                    worst = max(worst, abs(x - y) / y)
    assert worst <= DISTANCE


#: Per-user arrival rates on an eighth-octave ladder, from a vanishing
#: load to past every open workload's saturation point below.
OPEN_LADDER = 1e-3 * 2.0 ** (np.arange(96) / 8)


def _open_holes(sites, template):
    """Ladder rows that ran out of budget below a converged row: rates
    a capacity search would call infeasible under a feasible one."""
    workload = OpenWorkload(template=template, arrivals_per_s={
        site: {base: float(count) for base, count in bases.items()
               if count > 0}
        for site, bases in template.users.items()})
    batch = solve_open_batch(workload, sites, OPEN_LADDER)
    top = np.nonzero(batch.converged)[0].max()
    return [k for k, error in enumerate(batch.errors)
            if isinstance(error, ConvergenceError) and k < top]


@pytest.mark.parametrize("mix", ["LB8", "MB4", "MB8", "UB6"])
def test_open_ladder_has_no_feasibility_holes(sites, mix):
    holes = {n: _open_holes(sites, STANDARD_WORKLOADS[mix](n))
             for n in (2, 4, 8, 12, 16, 24, 32)}
    assert holes == {n: [] for n in holes}


def test_open_fixed_start_damping_leaves_holes(sites, monkeypatch):
    # Without the backoff the 0.8 start leaves LB8 n=16's rows 33-34
    # out of budget under a converged row.
    monkeypatch.setattr(outer, "_DAMPING_BACKOFF", 1.0)
    assert _open_holes(sites, lb8(16)) == [33, 34]
