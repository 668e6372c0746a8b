"""Tests for CaratModel warm-start snapshots (sweep chaining)."""

import pytest

from repro.errors import ConfigurationError
from repro.model.solver import CaratModel, ModelConfig, solve_model
from repro.model.workload import mb8


def _solve(sites, n, warm_start=None):
    model = CaratModel(
        ModelConfig(workload=mb8(n), sites=sites, max_iterations=1000),
        warm_start=warm_start)
    return model, model.solve()


class TestWarmStart:
    def test_snapshot_covers_every_chain(self, sites):
        model, solution = _solve(sites, 8)
        snapshot = model.snapshot()
        assert set(snapshot) == {(name, chain.value)
                                 for name, site in solution.sites.items()
                                 for chain in site.chains}
        for values in snapshot.values():
            assert values["pb"] >= 0.0
            assert values["throughput_per_ms"] > 0.0

    def test_warm_start_same_fixed_point(self, sites):
        model_4, _ = _solve(sites, 4)
        _, cold = _solve(sites, 8)
        _, warm = _solve(sites, 8, warm_start=model_4.snapshot())
        for site in ("A", "B"):
            assert (warm.site(site).transaction_throughput_per_s
                    == pytest.approx(
                        cold.site(site).transaction_throughput_per_s,
                        rel=1e-3))

    def test_self_warm_start_converges_fast(self, sites):
        """Re-solving from one's own converged state is near-instant."""
        model, cold = _solve(sites, 8)
        _, warm = _solve(sites, 8, warm_start=model.snapshot())
        assert warm.iterations < cold.iterations
        assert warm.iterations <= 3

    def test_unknown_chains_in_snapshot_are_ignored(self, sites):
        snapshot = {("Z", "LRO"): {"pb": 0.5},
                    ("A", "not-a-chain"): {"pb": 0.5}}
        _, solution = _solve(sites, 8, warm_start=snapshot)
        assert solution.converged

    def test_solve_model_accepts_warm_start(self, sites):
        model, _ = _solve(sites, 4)
        solution = solve_model(mb8(8), sites, max_iterations=1000,
                               warm_start=model.snapshot())
        assert solution.converged

    def test_negative_blocking_seed_is_rejected(self, sites):
        """A seed whose Pb is negative makes a negative LW visit count,
        which the visit kernel rejects rather than solving on."""
        snapshot = {("A", "LU"): {"pb": -0.5, "pd": 1.0}}
        with pytest.raises(ConfigurationError, match="negative visit"):
            _solve(sites, 8, warm_start=snapshot)
