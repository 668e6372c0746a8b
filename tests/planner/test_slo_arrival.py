"""The batched arrival-rate SLO search vs. serial doubling + bisection.

:func:`repro.planner.search.slo_max_arrival_per_s` evaluates a whole
doubling ladder in one batched open solve, then refines the bracket
with 16 rates per solve.  The serial search it replaced is kept here
as the reference: its answer and the batched one must agree within
one bisection step of the bracket.

The ``plan-slo`` capacities are also held to a tight-tolerance search
(``slo_reference.json``, re-recorded with ``python
tests/planner/test_slo_arrival.py`` after a change to the model's
equations): how the open solver iterates may move an answer, but
not away from the fixed point.
"""

import functools
import json
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import repro.planner.search as search
from repro.errors import ConfigurationError, ConvergenceError
from repro.model.open_solver import (OpenWorkload, solve_open_batch,
                                     solve_open_model)
from repro.model.parameters import paper_sites
from repro.model.workload import STANDARD_WORKLOADS, lb8, mb4
from repro.obs import metrics as obs
from repro.planner.search import slo_max_arrival_per_s

#: The capacity-planning queries of the ``plan-slo`` benchmark
#: workload: (mix, n, response target in ms).
PLAN_SLO = [("LB8", 4, 8500.0), ("LB8", 8, 13200.0),
            ("MB4", 4, 10600.0), ("MB4", 8, 13900.0),
            ("UB6", 4, 10400.0), ("UB6", 8, 10300.0)]

REFERENCE_PATH = Path(__file__).with_name("slo_reference.json")

#: Tolerance of every open solve behind the reference capacities.  At
#: 1e-13 rows stall at round-off (a relative change near 1e-12) and
#: the search raises ``ConvergenceError`` instead of answering.
REFERENCE_TOLERANCE = 1e-11

#: Largest relative distance of a default-settings capacity from its
#: reference.
REFERENCE_DISTANCE = 2e-7


def _arrivals(workload, per_user_rate):
    return {site: {base: per_user_rate * count
                   for base, count in bases.items() if count > 0}
            for site, bases in workload.users.items()}


def serial_max_arrival_per_s(workload, sites, response_target_ms,
                             max_doublings=24, bisections=24):
    """Reference search: one open solve per probe, doubling from a
    vanishing load until the target breaks, then bisecting.  Returns
    ``(capacity, width of the final bracket in total arrivals/s)``."""
    total_users = sum(count for bases in workload.users.values()
                      for count in bases.values() if count > 0)

    def feasible(rate):
        try:
            solution = solve_open_model(
                OpenWorkload(template=workload,
                             arrivals_per_s=_arrivals(workload, rate)),
                sites)
        except (ConfigurationError, ConvergenceError):
            return False
        weight = acc = 0.0
        for chains in solution.sites.values():
            for result in chains.values():
                weight += result.arrival_rate_per_s
                acc += result.arrival_rate_per_s * result.response_ms
        return acc / weight <= response_target_ms

    rate = 1e-3
    if not feasible(rate):
        return None, 0.0
    for _ in range(max_doublings):
        if not feasible(rate * 2.0):
            break
        rate *= 2.0
    else:
        return rate * total_users, 0.0
    lo, hi = rate, rate * 2.0
    for _ in range(bisections):
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            lo = mid
        else:
            hi = mid
    return lo * total_users, (hi - lo) * total_users


def _batched(workload, sites, target, **kwargs):
    """Batched answer and the number of batched solver calls made."""
    with obs.recording() as registry:
        answer = slo_max_arrival_per_s(workload, sites, target, **kwargs)
    return answer, int(registry.counters.get("model.open_calls", 0))


@pytest.mark.parametrize("mix,n,target", PLAN_SLO)
def test_matches_serial_search_on_plan_slo(sites, mix, n, target):
    workload = STANDARD_WORKLOADS[mix](n)
    want, step = serial_max_arrival_per_s(workload, sites, target)
    got, calls = _batched(workload, sites, target)
    assert want is not None and got is not None
    assert step > 0.0
    assert abs(got - want) <= step
    assert calls == 7


def reference_capacities(sites):
    """``float.hex`` of each ``PLAN_SLO`` capacity, every open solve at
    :data:`REFERENCE_TOLERANCE`: the contents of ``slo_reference.json``."""
    tight = functools.partial(solve_open_batch,
                              tolerance=REFERENCE_TOLERANCE)
    with mock.patch.object(search, "solve_open_batch", tight):
        return {f"{mix}-n{n}": slo_max_arrival_per_s(
                    STANDARD_WORKLOADS[mix](n), sites, target).hex()
                for mix, n, target in PLAN_SLO}


@pytest.mark.parametrize("mix,n,target", PLAN_SLO)
def test_capacity_is_near_the_tight_search(sites, mix, n, target):
    references = json.loads(REFERENCE_PATH.read_text())
    want = float.fromhex(references[f"{mix}-n{n}"])
    got = slo_max_arrival_per_s(STANDARD_WORKLOADS[mix](n), sites, target)
    assert abs(got - want) <= REFERENCE_DISTANCE * want


def test_rounds_start_from_the_bracket_low_end(sites, monkeypatch):
    """The ladder starts cold; each refinement round starts from the
    final iterate of the row that last became the bracket's low end."""
    calls = []

    def spy(*args, **kwargs):
        batch = solve_open_batch(*args, **kwargs)
        calls.append((kwargs["seed"], batch))
        return batch

    monkeypatch.setattr(search, "solve_open_batch", spy)
    slo_max_arrival_per_s(mb4(8), sites, 13_900.0)
    assert calls[0][0] is None
    want = None
    for (_, batch), (seed, _) in zip(calls, calls[1:]):
        lo = int(np.argmin(np.append(batch.meets_target(13_900.0), False)))
        if lo:
            want = batch.seed(lo - 1)
        assert want is not None and seed.keys() == want.keys()
        assert all(np.array_equal(seed[name], want[name]) for name in want)


def test_stalled_row_within_target_raises(sites, monkeypatch):
    """At tolerance 1e-13 LB8 n=4's rows stall at round-off within the
    target; read as misses they would put the capacity far too low."""
    monkeypatch.setattr(search, "solve_open_batch", functools.partial(
        solve_open_batch, tolerance=1e-13))
    with pytest.raises(ConvergenceError, match="within the 8500.0 ms"):
        slo_max_arrival_per_s(lb8(4), sites, 8500.0)


def test_target_never_broken_returns_ladder_top(sites):
    want, _ = serial_max_arrival_per_s(mb4(4), sites, 1e9,
                                       max_doublings=3)
    got, calls = _batched(mb4(4), sites, 1e9, max_doublings=3)
    assert got == want == 1e-3 * 2 ** 3 * 4 * 2
    assert calls == 1


def test_first_rung_infeasible_returns_none(sites):
    assert serial_max_arrival_per_s(mb4(4), sites, 0.01)[0] is None
    got, calls = _batched(mb4(4), sites, 0.01)
    assert got is None
    assert calls == 1


def test_break_at_rung_one(sites):
    """A target between the first two rungs' responses brackets the
    capacity in [1e-3, 2e-3] per user."""
    workload = mb4(4)
    unit = OpenWorkload(template=workload,
                        arrivals_per_s=_arrivals(workload, 1.0))
    low, high = solve_open_batch(unit, sites,
                                 [1e-3, 2e-3]).mean_response_ms
    target = 0.5 * (low + high)
    want, step = serial_max_arrival_per_s(workload, sites, target,
                                          bisections=12)
    got, calls = _batched(workload, sites, target, bisections=12)
    assert 1e-3 * 8 <= got < 2e-3 * 8
    assert abs(got - want) <= step
    assert calls <= 8


def test_open_counters(sites):
    with obs.recording() as registry:
        batch = solve_open_batch(
            OpenWorkload(template=mb4(4),
                         arrivals_per_s=_arrivals(mb4(4), 1.0)),
            sites, np.array([0.01, 0.02, 100.0]))
    assert registry.counters["model.open_calls"] == 1
    assert registry.counters["model.open_points"] == 3
    assert registry.counters["model.open_iterations"] \
        == batch.iterations.sum()
    assert batch.iterations[2] == 1  # saturated at the first iterate


if __name__ == "__main__":
    REFERENCE_PATH.write_text(
        json.dumps(reference_capacities(paper_sites()), indent=1,
                   sort_keys=True) + "\n")
