"""Unit tests for the planner's search machinery (stub evaluators; one
real-model check of the SLO bisection's probes)."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.model.workload import (STANDARD_WORKLOADS, WorkloadSpec, lb8,
                                  mb4, mb8, ub6)
from repro.planner.search import (_ternary_argmax, mix_quantum, mpl_grid,
                                  scale_to_mpl, slo_max_mpl)


class TestMixQuantum:
    @pytest.mark.parametrize("factory, expected",
                             [(lb8, 2), (mb4, 4), (mb8, 4), (ub6, 6)])
    def test_catalog_quanta(self, factory, expected):
        assert mix_quantum(factory(8)) == expected

    def test_scaling_preserves_mix(self):
        workload = ub6(8)
        scaled = scale_to_mpl(workload, 18)
        for site, counts in workload.users.items():
            total = sum(counts.values())
            for base, count in counts.items():
                assert scaled.users[site][base] * total == 18 * count

    def test_scaled_site_totals_equal_mpl(self):
        scaled = scale_to_mpl(mb8(8), 12)
        for site in scaled.sites:
            assert scaled.total_users(site) == 12

    def test_rejects_off_grid_mpl(self):
        with pytest.raises(ConfigurationError):
            scale_to_mpl(mb8(8), 6)  # quantum is 4

    def test_rejects_nonpositive_mpl(self):
        with pytest.raises(ConfigurationError):
            scale_to_mpl(mb8(8), 0)

    def test_rejects_empty_site(self):
        workload = WorkloadSpec(
            name="weird", users={"A": {}, "B": {}},
            requests_per_txn=4)
        with pytest.raises(ConfigurationError):
            mix_quantum(workload)

    @pytest.mark.parametrize("name", sorted(STANDARD_WORKLOADS))
    def test_grid_is_quantum_multiples(self, name):
        workload = STANDARD_WORKLOADS[name](8)
        quantum = mix_quantum(workload)
        grid = mpl_grid(workload, 24)
        assert grid[0] == quantum
        assert all(m % quantum == 0 for m in grid)
        assert grid[-1] <= 24

    def test_grid_never_empty(self):
        workload = ub6(8)  # quantum 6 > cap
        assert mpl_grid(workload, 2) == (6,)


class TestTernarySearch:
    @pytest.mark.parametrize("peak", range(8))
    def test_finds_peak_everywhere(self, peak):
        grid = tuple(range(8))
        values = {m: -abs(m - peak) for m in grid}
        assert _ternary_argmax(values.__getitem__, grid) == peak

    def test_plateau(self):
        grid = tuple(range(10))
        values = {m: min(m, 4) for m in grid}  # rises then flat
        best = _ternary_argmax(values.__getitem__, grid)
        assert values[grid[best]] == 4

    def test_fewer_distinct_evaluations_than_grid(self):
        grid = tuple(range(64))
        seen = set()

        def f(m):
            seen.add(m)
            return -abs(m - 17)

        assert _ternary_argmax(f, grid) == 17
        assert len(seen) < len(grid) / 2


class _StubEvaluator:
    """Evaluator double whose response time is 100*mpl ms; records the
    MPLs it is asked for, in order."""

    def __init__(self):
        self.calls = 0
        self.asked = []

    def point(self, mpl):
        from repro.planner.spec import MplPoint
        self.calls += 1
        self.asked.append(mpl)
        return MplPoint(mpl=mpl, site_populations={"A": mpl},
                        throughput_per_s=1.0,
                        response_ms=100.0 * mpl,
                        abort_probability=0.0, converged=True)


class TestSloBisection:
    GRID = tuple(range(2, 33, 2))

    def test_finds_boundary(self):
        stub = _StubEvaluator()
        mpl, point = slo_max_mpl(stub, self.GRID,
                                 lambda p: p.response_ms <= 1700.0)
        assert mpl == 16
        assert point.response_ms == 1600.0

    def test_infeasible(self):
        stub = _StubEvaluator()
        mpl, point = slo_max_mpl(stub, self.GRID,
                                 lambda p: p.response_ms <= 100.0)
        assert mpl is None and point is None

    def test_everything_feasible(self):
        stub = _StubEvaluator()
        mpl, _point = slo_max_mpl(stub, self.GRID,
                                  lambda p: p.response_ms <= 1e9)
        assert mpl == self.GRID[-1]

    def test_logarithmic_evaluations(self):
        stub = _StubEvaluator()
        slo_max_mpl(stub, self.GRID,
                    lambda p: p.response_ms <= 1700.0)
        assert stub.calls <= 8  # 16 points: 2 endpoints + ~4 bisections

    def test_top_not_probed_below_the_boundary(self):
        """The most expensive point, ``grid[-1]``, is not solved once
        a lower probe has missed the target."""
        stub = _StubEvaluator()
        slo_max_mpl(stub, self.GRID, lambda p: p.response_ms <= 1700.0)
        assert stub.asked[0] == self.GRID[0]
        assert self.GRID[-1] not in stub.asked

    @pytest.mark.parametrize("length", range(1, 25))
    def test_matches_linear_scan_at_every_threshold(self, length):
        """Every boundary position of a monotone predicate, from none
        feasible to all feasible, gives the linear scan's answer."""
        grid = tuple(range(2, 2 * length + 1, 2))
        for feasible in range(length + 1):
            stub = _StubEvaluator()
            target = 100.0 * grid[feasible - 1] if feasible else 0.0
            mpl, point = slo_max_mpl(stub, grid,
                                     lambda p, t=target: p.response_ms <= t)
            scan = [m for m in grid if 100.0 * m <= target]
            assert mpl == (scan[-1] if scan else None)
            assert (point is None) == (mpl is None)
            if point is not None:
                assert point.mpl == mpl
            # The top is solved exactly when the boundary sits at one
            # of the last two points, and then after feasible probes.
            top = grid[-1] in stub.asked
            assert top == (length == 1 or feasible >= length - 1)
            if top:
                before = stub.asked[:stub.asked.index(grid[-1])]
                assert all(100.0 * m <= target for m in before)
            assert len(set(stub.asked)) <= 1 + length.bit_length()


def test_plan_slo_bisection_skips_the_top_mpl(sites):
    """MB4 at n=4 with a 10,600 ms response SLO: the bisection keeps
    max MPL 8 without solving MPL 24, the grid's costliest point."""
    from repro.planner.search import PlanEvaluator, find_optimum
    evaluator = PlanEvaluator(mb4(4), sites)
    optimum = find_optimum(evaluator, 24)
    assert optimum.grid[-1] == 24
    mpl, point = slo_max_mpl(evaluator, optimum.grid,
                             lambda p: p.response_ms <= 10_600.0)
    assert mpl == 8
    assert point.response_ms <= 10_600.0
    assert 24 not in evaluator.evaluated()
