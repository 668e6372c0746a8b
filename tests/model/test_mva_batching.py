"""Tests for the batched per-site MVA path inside the model solver.

The solver stacks same-layout site networks into single kernel calls
and carries the Schweitzer queue iterate across outer iterations (and
across solves, via snapshots).  None of that may move the fixed point:
these tests pin the warm-start plumbing and the solution's invariance
to it.
"""

import pytest

from repro.model.diagnostics import ConvergenceTrace
from repro.model.outer import solve_outer_batch
from repro.model.parameters import paper_sites
from repro.model.solver import (CaratModel, ModelConfig,
                                _MVA_QUEUE_SITE)
from repro.model.workload import STANDARD_WORKLOADS
from repro.queueing.kernels import NetworkArrays, exact_cost


def _config(name="MB4", **kwargs):
    return ModelConfig(workload=STANDARD_WORKLOADS[name](),
                       sites=paper_sites(), **kwargs)


def _config_n(name, n, **kwargs):
    return ModelConfig(workload=STANDARD_WORKLOADS[name](n),
                       sites=paper_sites(), **kwargs)


def _throughputs(solution):
    return {name: site.transaction_throughput_per_s
            for name, site in solution.sites.items()}


class TestQueueSnapshot:
    def test_approx_snapshot_carries_queue_seeds(self):
        model = CaratModel(_config(mva="approx"))
        model.solve()
        snap = model.snapshot()
        tagged = {site for (tag, site) in snap
                  if tag == _MVA_QUEUE_SITE}
        assert tagged == set(model.workload.sites)
        seeds = snap[(_MVA_QUEUE_SITE, next(iter(tagged)))]
        assert seeds
        for key, value in seeds.items():
            center, _, chain = key.partition("|")
            assert center and chain
            assert value >= 0.0

    def test_exact_snapshot_has_no_queue_seeds(self):
        model = CaratModel(_config(mva="exact"))
        model.solve()
        assert all(tag != _MVA_QUEUE_SITE for (tag, _) in model.snapshot())

    def test_queue_seeds_invisible_to_chain_warm_start(self):
        """The pseudo-site tag must never be mistaken for a chain
        entry: warm-starting from a queue-bearing snapshot still seeds
        every real chain and converges to the same fixed point."""
        model = CaratModel(_config(mva="approx"))
        cold = model.solve()
        warm_model = CaratModel(_config(mva="approx"),
                                warm_start=model.snapshot())
        warm = warm_model.solve()
        assert warm.iterations <= cold.iterations
        for site, value in _throughputs(cold).items():
            assert _throughputs(warm)[site] == pytest.approx(value,
                                                             rel=1e-5)


class TestWarmStartedInnerIterations:
    def test_warm_queue_seed_cuts_inner_iterations(self):
        """A warm-started nearby solve should spend no more Schweitzer
        iterations than the cold solve of the same point."""
        def inner_total(warm_start):
            trace = ConvergenceTrace()
            model = CaratModel(_config(mva="approx"),
                               warm_start=warm_start,
                               diagnostics=trace)
            model.solve()
            total = trace.summary()["mva_inner_iterations_total"]
            return total, model.snapshot()

        cold_inner, snapshot = inner_total(None)
        warm_inner, _ = inner_total(snapshot)
        assert warm_inner <= cold_inner

    def test_traced_stats_count_batched_solves(self):
        trace = ConvergenceTrace()
        model = CaratModel(_config(mva="approx"), diagnostics=trace)
        model.solve()
        sites = len(model.workload.sites)
        for record in trace.records:
            assert record.mva_solves == sites
            assert record.mva_inner_iterations > 0
            assert record.mva_coefficients == 0

    def test_traced_stats_count_exact_coefficients(self):
        trace = ConvergenceTrace()
        model = CaratModel(_config(mva="exact"), diagnostics=trace)
        model.solve()
        per_solve = 0
        for name in model.workload.sites:
            arrays = NetworkArrays.from_network(model.site_network(name))
            per_solve += exact_cost(arrays.populations.tolist(),
                                    int((~arrays.delay).sum()))
        assert per_solve > 0
        for record in trace.records:
            assert record.mva_coefficients == per_solve
            assert record.mva_inner_iterations == 0


class TestBatchedRoundTrip:
    """The whole-solve batch (:func:`solve_outer_batch`) must
    round-trip everything the scalar path exposes: per-grid-point
    iteration counts, snapshots, warm-start seeds, and traces."""

    GRID = (4, 12, 20)

    def _batch(self, mva, warm_starts=None, diagnostics=None):
        models = [
            CaratModel(
                _config_n("MB8", n, mva=mva, max_iterations=1000),
                warm_start=(warm_starts[i] if warm_starts else None),
                diagnostics=(diagnostics[i] if diagnostics else None))
            for i, n in enumerate(self.GRID)
        ]
        return models, solve_outer_batch(models)

    def _singles(self, mva):
        models = [CaratModel(_config_n("MB8", n, mva=mva,
                                       max_iterations=1000))
                  for n in self.GRID]
        return models, [m.solve() for m in models]

    @pytest.mark.parametrize("mva", ["exact", "approx"])
    def test_per_point_iterations_match_scalar(self, mva):
        _, batched = self._batch(mva)
        _, singles = self._singles(mva)
        assert [s.iterations for s in batched] == \
            [s.iterations for s in singles]
        for got, want in zip(batched, singles):
            assert got.converged and want.converged
            assert _throughputs(got) == _throughputs(want)

    @pytest.mark.parametrize("mva", ["exact", "approx"])
    def test_snapshots_match_scalar(self, mva):
        """``snapshot()`` after a batched solve is *identical* to the
        standalone solve's — including the Schweitzer queue seeds."""
        batch_models, _ = self._batch(mva)
        single_models, _ = self._singles(mva)
        for got, want in zip(batch_models, single_models):
            assert got.snapshot() == want.snapshot()

    def test_warm_start_round_trips_through_batch(self):
        """Snapshots from a batched solve warm-start the next batched
        solve, cutting iterations without moving the fixed point."""
        cold_models, cold = self._batch("approx")
        seeds = [m.snapshot() for m in cold_models]
        _, warm = self._batch("approx", warm_starts=seeds)
        for hot, ref in zip(warm, cold):
            assert hot.iterations <= ref.iterations
            for site, value in _throughputs(ref).items():
                assert _throughputs(hot)[site] == \
                    pytest.approx(value, rel=1e-5)

    def test_traces_round_trip_through_batch(self):
        """Each batch element's trace matches its scalar solve's:
        same record count, same per-iteration MVA accounting."""
        traces = [ConvergenceTrace() for _ in self.GRID]
        self._batch("approx", diagnostics=traces)
        for n, trace in zip(self.GRID, traces):
            single_trace = ConvergenceTrace()
            CaratModel(_config_n("MB8", n, mva="approx",
                                 max_iterations=1000),
                       diagnostics=single_trace).solve()
            got = trace.summary()
            want = single_trace.summary()
            assert len(trace.records) == len(single_trace.records)
            assert got["iterations"] == want["iterations"]
            assert got["mva_inner_iterations_total"] == \
                want["mva_inner_iterations_total"]
            sites = 2
            for record in trace.records:
                assert record.mva_solves == sites
                assert record.mva_inner_iterations > 0


class TestModeAgreement:
    @pytest.mark.parametrize("name", ["LB8", "MB8"])
    def test_exact_and_approx_fixed_points_agree(self, name):
        """Schweitzer sites vs exact sites: same outer fixed point to
        within the approximation's usual few-percent accuracy (compounded by the outer loop)."""
        exact = CaratModel(_config(name, mva="exact")).solve()
        approx = CaratModel(_config(name, mva="approx")).solve()
        for site, value in _throughputs(exact).items():
            assert _throughputs(approx)[site] == pytest.approx(value,
                                                               rel=0.10)
