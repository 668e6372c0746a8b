"""The batched open solver vs. the scalar open oracle.

:func:`repro.model.open_solver.solve_open_batch` solves one open
workload at many arrival scales as one array program; the dict-based
loop it replaced lives on as
:func:`tests.oracles.open_reference.solve_open_reference`.  These tests
pin their equivalence row by row — identical iteration counts and
outcomes (converged, saturated, not converged), measures within 1e-9 —
over the paper's workloads and a rate ladder that crosses saturation.
"""

import numpy as np
import pytest

from repro.errors import ConfigurationError, ConvergenceError
from repro.model.open_solver import (OpenWorkload, solve_open_batch,
                                     solve_open_model)
from repro.model.workload import STANDARD_WORKLOADS, mb4
from repro.planner.search import slo_max_arrival_per_s
from tests.oracles.open_reference import solve_open_reference

REL = 1e-9

#: Per-user arrival rates (transactions/s): 26 half-octave steps from
#: a vanishing load to well past every workload's saturation point.
LADDER = 1e-3 * 2.0 ** np.arange(0.0, 13.0, 0.5)


def _rel(a, b):
    """Mixed relative/absolute error, as in the closed engine's suite:
    a near-zero probability differing by 1e-17 is agreement."""
    return abs(a - b) / max(abs(a), abs(b), 1.0)


def _per_user(template, rate=1.0):
    """Open workload with *rate* arrivals/s per closed-mix user."""
    return OpenWorkload(template=template, arrivals_per_s={
        site: {base: rate * count for base, count in bases.items()
               if count > 0}
        for site, bases in template.users.items()})


def _reference(template, sites, rate, **kwargs):
    try:
        return solve_open_reference(_per_user(template, rate), sites,
                                    **kwargs), None
    except (ConfigurationError, ConvergenceError) as exc:
        return None, exc


def _assert_rows_match(template, sites, rates, **kwargs):
    batch = solve_open_batch(_per_user(template), sites, rates, **kwargs)
    outcomes = set()
    for row, rate in enumerate(rates):
        reference, error = _reference(template, sites, rate, **kwargs)
        if reference is None:
            assert type(batch.errors[row]) is type(error)
            with pytest.raises(type(error)):
                batch.solution(row)
            if isinstance(error, ConvergenceError):
                assert batch.iterations[row] == error.iterations
            outcomes.add(type(error).__name__)
            continue
        outcomes.add("converged")
        solution = batch.solution(row)
        assert solution.iterations == reference.iterations
        for name, ref_util in reference.cpu_utilization.items():
            assert _rel(solution.cpu_utilization[name], ref_util) < REL
            assert _rel(solution.disk_utilization[name],
                        reference.disk_utilization[name]) < REL
        assert set(solution.sites) == set(reference.sites)
        for name, chains in reference.sites.items():
            assert set(solution.sites[name]) == set(chains)
            for chain, want in chains.items():
                got = solution.sites[name][chain]
                assert _rel(got.response_ms, want.response_ms) < REL
                assert _rel(got.abort_probability,
                            want.abort_probability) < REL
                assert _rel(got.n_submissions, want.n_submissions) < REL
                assert _rel(got.concurrency, want.concurrency) < REL
    return outcomes


@pytest.mark.parametrize("n", [4, 8])
@pytest.mark.parametrize("mix", ["LB8", "MB4", "MB8", "UB6"])
def test_batch_rows_match_oracle(sites, mix, n):
    outcomes = _assert_rows_match(STANDARD_WORKLOADS[mix](n), sites,
                                  LADDER)
    assert {"converged", "ConfigurationError"} <= outcomes


def test_iteration_budget_outcomes_match_oracle(sites):
    """A tight budget leaves the near-saturation rows unconverged in
    both solvers, at the same iteration."""
    outcomes = _assert_rows_match(mb4(8), sites, LADDER[8:16],
                                  max_iterations=20)
    assert "ConvergenceError" in outcomes


def test_seeded_rows_match_seeded_oracle(sites):
    """A warm batch, every row started from one converged row's final
    iterate, matches the oracle started from the same iterate; the
    seed's own rate is already at its fixed point."""
    seed = solve_open_batch(_per_user(mb4(8)), sites,
                            LADDER[8:16]).seed(2)
    outcomes = _assert_rows_match(mb4(8), sites, LADDER[8:16], seed=seed)
    assert {"converged", "ConfigurationError"} <= outcomes
    warm = solve_open_batch(_per_user(mb4(8)), sites, LADDER[10:11],
                            seed=seed)
    assert warm.iterations[0] == 1


@pytest.mark.parametrize("defect", ["short", "missing"])
def test_malformed_seed_rejected(sites, defect):
    seed = solve_open_batch(_per_user(mb4(4)), sites, [0.01]).seed(0)
    if defect == "short":
        seed["pb"] = seed["pb"][:-1]
    else:
        del seed["ey"]
    with pytest.raises(ConfigurationError, match="seed"):
        solve_open_batch(_per_user(mb4(4)), sites, [0.01], seed=seed)


def test_single_row_call_is_the_first_batch_row(sites):
    workload = _per_user(mb4(4), 0.05)
    single = solve_open_model(workload, sites)
    row = solve_open_batch(workload, sites, [1.0, 2.0]).solution(0)
    assert single == row


def test_saturation_error_names_the_site(sites):
    with pytest.raises(ConfigurationError, match="saturated"):
        solve_open_model(_per_user(mb4(4), 50.0), sites)


@pytest.mark.parametrize("scales", [[], [0.0], [1.0, -2.0],
                                    [float("nan")]])
def test_invalid_scales_rejected(sites, scales):
    with pytest.raises(ConfigurationError):
        solve_open_batch(_per_user(mb4(4)), sites, scales)


def test_no_traffic_rejected(sites):
    empty = OpenWorkload(template=mb4(4), arrivals_per_s={})
    with pytest.raises(ConfigurationError, match="no traffic"):
        solve_open_batch(empty, sites, [1.0])


class TestAccessSkew:
    """The open lock model divides by the skew-adjusted granule count,
    as the closed engine does."""

    RATE = 0.1

    def test_hotspot_raises_blocking(self, sites):
        uniform = solve_open_batch(_per_user(mb4(8)), sites, [self.RATE])
        hot = solve_open_batch(_per_user(mb4(8).with_hotspot(0.8, 0.2)),
                               sites, [self.RATE])
        assert uniform.keys == hot.keys
        assert np.all(hot.blocking[0] > uniform.blocking[0])

    def test_hotspot_lowers_capacity(self, sites):
        uniform = slo_max_arrival_per_s(mb4(8), sites, 13_900.0,
                                        bisections=10)
        hot = slo_max_arrival_per_s(mb4(8).with_hotspot(0.8, 0.2),
                                    sites, 13_900.0, bisections=10)
        assert uniform is not None and hot is not None
        assert hot < uniform

    def test_oracle_applies_the_same_skew(self, sites):
        _assert_rows_match(mb4(8).with_hotspot(0.8, 0.2), sites,
                           LADDER[4:12:2])
