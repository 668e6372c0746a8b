"""Integration tests for the capacity planner (real model solves).

Solver knobs are loosened (tolerance 1e-3, capped iterations) so the
whole module stays affordable; the searches under test are exactly the
ones the CLI runs, just on smaller grids.
"""

from __future__ import annotations

import pytest

from repro.experiments.cache import ResultCache, clear_memory
from repro.model.workload import mb4, mb8
from repro.planner import (PlanEvaluator, PlanSpec, SloSpec,
                           WhatIfCandidate, apply_candidate,
                           bottleneck_table, brute_force_optimum,
                           find_optimum, mix_quantum, mpl_grid, plan,
                           run_whatif, slo_max_arrival_per_s,
                           slo_max_mpl, standard_candidates)

KW = {"tolerance": 1e-3, "max_iterations": 300,
      "raise_on_nonconvergence": False}


@pytest.fixture(scope="module")
def mb4_search(sites):
    """MB4 n=4: brute-force curve plus ternary search, mpl_max=20."""
    workload = mb4(4)
    brute_ev = PlanEvaluator(workload, sites, model_kwargs=KW)
    brute = brute_force_optimum(brute_ev, 20)
    ternary_ev = PlanEvaluator(workload, sites, model_kwargs=KW)
    ternary = find_optimum(ternary_ev, 20)
    return {"workload": workload, "brute": brute, "brute_ev": brute_ev,
            "ternary": ternary, "ternary_ev": ternary_ev}


@pytest.fixture(scope="module")
def mb4_n8_search(sites):
    """MB4 n=8: brute-force curve to mpl_max=28, where exact MVA reads
    the curve 6% below its peak (MPL 28 is an 8^6-point lattice)."""
    evaluator = PlanEvaluator(mb4(8), sites, model_kwargs=KW)
    return {"brute": brute_force_optimum(evaluator, 28),
            "brute_ev": evaluator}


@pytest.fixture(scope="module")
def mb8_search(sites):
    """MB8 n=8: ternary search only, mpl_max=16."""
    workload = mb8(8)
    evaluator = PlanEvaluator(workload, sites, model_kwargs=KW)
    return {"workload": workload,
            "ternary": find_optimum(evaluator, 16),
            "ternary_ev": evaluator}


class TestOptimumSearch:
    def test_agrees_with_brute_force(self, mb4_search):
        quantum = mix_quantum(mb4_search["workload"])
        delta = abs(mb4_search["ternary"].point.mpl
                    - mb4_search["brute"].point.mpl)
        assert delta <= quantum

    def test_fewer_solves_than_brute_force(self, mb4_search):
        brute, ternary = mb4_search["brute"], mb4_search["ternary"]
        assert brute.solves == len(brute.grid)
        assert ternary.solves < brute.solves
        assert ternary.cache_hits == 0
        assert ternary.total_iterations > 0

    def test_optimum_point_is_converged_peak(self, mb4_search):
        brute = mb4_search["brute"]
        ev = mb4_search["brute_ev"]
        assert brute.point.converged
        peak = max(ev.point(m).throughput_per_s for m in brute.grid)
        assert brute.point.throughput_per_s == pytest.approx(peak)

    @pytest.mark.parametrize("fixture", ["mb4_search", "mb4_n8_search"])
    def test_knee_drops_below_peak(self, fixture, request):
        search = request.getfixturevalue(fixture)
        brute = search["brute"]
        if brute.knee_mpl is None:
            pytest.skip("curve never dropped 5% within the grid")
        ev = search["brute_ev"]
        assert brute.knee_mpl > brute.point.mpl
        assert ev.point(brute.knee_mpl).throughput_per_s \
            < 0.95 * brute.point.throughput_per_s

    @pytest.mark.parametrize("fixture", ["mb4_search", "mb8_search"])
    def test_binding_window_sandwiches_optimum(self, fixture, request):
        """Satellite property: at the optimum, the binding site's
        converged-network saturation window (widened by one grid step
        in site customers) contains the site's population."""
        search = request.getfixturevalue(fixture)
        optimum = search["ternary"]
        quantum = mix_quantum(search["workload"])
        binding = max(optimum.windows, key=lambda w: w.lower)
        step = binding.population * quantum // optimum.point.mpl
        assert binding.lower - step <= binding.population
        assert binding.population <= binding.upper + step

    @pytest.mark.parametrize("fixture", ["mb4_search", "mb8_search"])
    def test_windows_are_ordered(self, fixture, request):
        optimum = request.getfixturevalue(fixture)["ternary"]
        for window in optimum.windows:
            assert 0 < window.lower <= window.upper
            assert window.binding in ("bottleneck", "population")


class TestBottleneckTable:
    def test_table_is_sane(self, mb4_search):
        ev = mb4_search["brute_ev"]
        table = bottleneck_table(
            ev.solution(mb4_search["brute"].point.mpl))
        assert table
        shares = [entry.residence_share for entry in table]
        assert shares == sorted(shares, reverse=True)
        assert all(0.0 <= s <= 1.0 for s in shares)
        # Per site the shares partition the user cycle (minus think).
        for site in ("A", "B"):
            total = sum(e.residence_share for e in table
                        if e.site == site)
            assert total <= 1.0 + 1e-6
        physical = {e.center for e in table
                    if e.utilization is not None}
        assert physical <= {"cpu", "disk", "logdisk"}
        assert all(0.0 <= e.utilization <= 1.0 + 1e-6 for e in table
                   if e.utilization is not None)


class TestSloSearch:
    def test_slo_max_mpl_matches_scan(self, mb4_search):
        """Bisection agrees with a linear scan over the memoized
        points and costs no additional solves."""
        ev = mb4_search["brute_ev"]
        grid = mb4_search["brute"].grid
        target = ev.point(grid[len(grid) // 2]).response_ms
        expected = max(m for m in grid
                       if ev.point(m).response_ms <= target)
        solves_before = ev.solves
        found, point = slo_max_mpl(
            ev, grid, lambda p: p.response_ms <= target)
        assert found == expected
        assert point.response_ms <= target
        assert ev.solves == solves_before

    def test_arrival_capacity_positive_and_monotone(self, sites):
        workload = mb4(4)
        generous = slo_max_arrival_per_s(workload, sites, 60_000.0)
        tight = slo_max_arrival_per_s(workload, sites, 2_000.0)
        assert generous is not None and generous > 0
        if tight is not None:
            assert tight <= generous + 1e-9

    def test_arrival_capacity_infeasible_target(self, sites):
        assert slo_max_arrival_per_s(mb4(4), sites, 0.01) is None


class TestWhatIf:
    def test_cpu_speedup_halves_cpu_costs(self, sites):
        changed = apply_candidate(
            sites, WhatIfCandidate(kind="cpu_speed", factor=2.0))
        for name, site in sites.items():
            for base, cost in site.costs.items():
                assert changed[name].costs[base].u_cpu \
                    == pytest.approx(cost.u_cpu / 2.0)
                assert changed[name].costs[base].dmio_disk \
                    == cost.dmio_disk
            assert changed[name].protocol.commit_cpu \
                == pytest.approx(site.protocol.commit_cpu / 2.0)
            assert changed[name].block_io_ms == site.block_io_ms

    def test_disk_speedup_halves_block_io(self, sites):
        changed = apply_candidate(
            sites, WhatIfCandidate(kind="disk_speed", factor=2.0))
        for name, site in sites.items():
            assert changed[name].block_io_ms \
                == pytest.approx(site.block_io_ms / 2.0)

    def test_granules_doubled(self, sites):
        changed = apply_candidate(
            sites, WhatIfCandidate(kind="granules", factor=2.0))
        for name, site in sites.items():
            assert changed[name].granules == 2 * site.granules

    def test_log_split_sets_flag(self, sites):
        changed = apply_candidate(sites,
                                  WhatIfCandidate(kind="log_split"))
        assert all(s.log_on_separate_disk
                   for s in changed.values())

    def test_standard_candidates_are_valid(self):
        kinds = [c.kind for c in standard_candidates()]
        assert kinds == ["cpu_speed", "disk_speed", "granules",
                         "log_split"]
        assert all(c.label for c in standard_candidates())

    def test_run_whatif_speedups(self, sites, mb4_search):
        ev = mb4_search["brute_ev"]
        baseline = ev.point(4)
        candidates = (WhatIfCandidate(kind="cpu_speed", factor=2.0),
                      WhatIfCandidate(kind="granules", factor=2.0))
        outcomes = run_whatif(candidates, mb4_search["workload"],
                              sites, baseline, KW)
        assert [o.candidate for o in outcomes] == list(candidates)
        for outcome in outcomes:
            assert outcome.throughput_per_s > 0
            assert outcome.speedup == pytest.approx(
                outcome.throughput_per_s / baseline.throughput_per_s)
            assert outcome.bottleneck != "none"

    def test_run_whatif_empty(self, sites, mb4_search):
        assert run_whatif((), mb4_search["workload"], sites,
                          mb4_search["brute"].point, KW) == ()


class TestEvaluatorCache:
    def test_second_evaluator_hits_disk_cache(self, sites, tmp_path):
        """A fresh process-equivalent evaluator (memory layer cleared)
        serves the identical evaluation from disk without solving."""
        workload = mb4(4)
        # Unique solver kwargs => digests unique to this test.
        kwargs = dict(KW, tolerance=1.5e-3)
        cache = ResultCache(tmp_path)
        first = PlanEvaluator(workload, sites, model_kwargs=kwargs,
                              use_cache=True, cache=cache)
        point = first.point(4)
        assert first.solves == 1 and first.cache_hits == 0
        clear_memory()
        try:
            second = PlanEvaluator(workload, sites,
                                   model_kwargs=kwargs,
                                   use_cache=True, cache=cache)
            again = second.point(4)
            assert second.solves == 0 and second.cache_hits == 1
            assert again == point
            assert second.windows(4) == first.windows(4)
        finally:
            clear_memory()


class TestPlanEndToEnd:
    def test_plan_small_mb4(self, sites):
        spec = PlanSpec(
            workload=mb4(4), mpl_max=8,
            slo=SloSpec(response_ms=60_000.0),
            whatif=(WhatIfCandidate(kind="disk_speed", factor=2.0),),
            tolerance=1e-3, max_iterations=300)
        result = plan(spec, sites=sites)
        assert result.workload == "MB4"
        assert result.requests_per_txn == 4
        assert result.quantum == 4
        assert result.optimum.grid == (4, 8)
        assert result.optimum.point.mpl in result.optimum.grid
        assert len(result.slo) == 1
        verdict = result.slo[0]
        assert verdict.kind == "response_ms"
        assert verdict.max_mpl in result.optimum.grid
        assert verdict.max_arrival_per_s is not None
        assert result.bottlenecks
        assert len(result.whatif) == 1
        payload = result.to_dict()
        assert payload["optimum"]["point"]["mpl"] \
            == result.optimum.point.mpl
        assert payload["whatif"][0]["candidate"]["kind"] \
            == "disk_speed"


class TestZeroConflictCurve:
    def test_curve_is_monotone_and_bounded(self, sites):
        """Zero-conflict bottleneck utilization rises with MPL and
        saturates at (just about) one."""
        workload = mb4(4)
        evaluator = PlanEvaluator(workload, sites, model_kwargs=KW)
        grid = mpl_grid(workload, 24)
        curve = evaluator.zero_conflict_curve(grid)
        assert set(curve) == set(grid)
        values = [curve[m] for m in grid]
        assert all(0.0 < v <= 1.0 + 1e-6 for v in values)
        assert all(later >= earlier - 1e-9
                   for earlier, later in zip(values, values[1:]))
        assert evaluator.solves == 0  # the pre-screen is solve-free

    def test_floor_does_not_trim_past_the_optimum(self, mb4_search):
        """The batched pre-screen floor must stay at or below the
        brute-force optimum (it only prunes the rising edge)."""
        from repro.planner.search import _zero_conflict_floor
        grid = mpl_grid(mb4_search["workload"], 20)
        floor = _zero_conflict_floor(mb4_search["brute_ev"], grid)
        assert floor is not None
        assert floor <= mb4_search["brute"].point.mpl
