"""Integration tests for the fixed-point model solver (paper §6).

These run the analytical model only (no simulation), so they are fast
enough to exercise every workload and several transaction sizes.
"""

import pytest

from repro.errors import ConfigurationError
from repro.model.results import USER_CHAINS
from repro.model.solver import ModelConfig, solve_model
from repro.model.types import ChainType
from repro.model.workload import lb8, mb4, mb8, ub6


@pytest.fixture(scope="module")
def mb8_solution(sites):
    return solve_model(mb8(8), sites, max_iterations=1000)


class TestSolverBasics:
    def test_converges(self, mb8_solution):
        assert mb8_solution.converged
        assert mb8_solution.iterations < 1000

    def test_every_workload_solves(self, any_workload, sites):
        solution = solve_model(any_workload, sites, max_iterations=1000)
        assert solution.converged
        for site in solution.sites.values():
            assert site.transaction_throughput_per_s > 0.0

    def test_utilizations_are_physical(self, mb8_solution):
        for site in mb8_solution.sites.values():
            assert 0.0 < site.cpu_utilization < 1.0
            assert 0.0 < site.disk_utilization <= 1.0

    def test_missing_site_parameters_rejected(self, sites):
        with pytest.raises(ConfigurationError):
            ModelConfig(workload=mb8(8), sites={"A": sites["A"]})

    def test_invalid_mva_mode_rejected(self, sites):
        with pytest.raises(ConfigurationError):
            ModelConfig(workload=mb8(8), sites=sites, mva="magic")

    @pytest.mark.parametrize("option", [
        {"alpha_ms": float("nan")},
        {"alpha_ms": float("inf")},
        {"alpha_ms": -50.0},
        {"blocking_ratio_override": float("nan")},
        {"blocking_ratio_override": float("inf")},
        {"blocking_ratio_override": -0.1},
        {"blocking_ratio_override": 5.0},
    ], ids=lambda option: "-".join(f"{k}={v}" for k, v in option.items()))
    def test_non_finite_or_out_of_range_option_rejected(self, sites,
                                                         option):
        # Unchecked, NaN solves "converge" to NaN waits and zero
        # throughput, a negative delay fails deep in the network
        # validator, and a ratio of 5 burns the whole iteration budget.
        with pytest.raises(ConfigurationError):
            ModelConfig(workload=mb8(8), sites=sites,
                        raise_on_nonconvergence=False, **option)


class TestStructuralProperties:
    def test_read_transactions_faster_than_updates(self, mb8_solution):
        """LRO does a third of LU's disk work: it must commit faster."""
        for site in mb8_solution.sites.values():
            lro = site.chains[ChainType.LRO].throughput_per_s
            lu = site.chains[ChainType.LU].throughput_per_s
            assert lro > lu

    def test_node_a_outperforms_node_b(self, mb8_solution):
        """Node A's disk is 30% faster (28 vs 40 ms): strictly more
        throughput for the same workload."""
        a = mb8_solution.site("A")
        b = mb8_solution.site("B")
        assert (a.transaction_throughput_per_s
                > b.transaction_throughput_per_s)

    def test_slave_rate_tracks_coordinator(self, mb8_solution):
        """Flow balance: each DUS commit at B corresponds to one DUC
        commit at A (within the fixed point's tolerance)."""
        duc_a = mb8_solution.site("A").chains[ChainType.DUC]
        dus_b = mb8_solution.site("B").chains[ChainType.DUS]
        assert dus_b.throughput_per_s == pytest.approx(
            duc_a.throughput_per_s, rel=0.15)

    def test_distributed_slower_than_local_update(self, mb8_solution):
        """DU pays 2PC and remote waits; LU does not (both update the
        same number of records)."""
        a = mb8_solution.site("A")
        assert (a.chains[ChainType.LU].throughput_per_s
                > a.chains[ChainType.DUC].throughput_per_s)

    def test_dio_consistent_with_disk_utilization(self, mb8_solution,
                                                  sites):
        """Total-DIO * block time ~= disk utilization."""
        for name, site in mb8_solution.sites.items():
            block_s = sites[name].block_io_ms / 1e3
            implied = site.dio_rate_per_s * block_s
            assert implied == pytest.approx(site.disk_utilization,
                                            rel=0.05)

    def test_user_chain_partition(self, mb8_solution):
        assert set(USER_CHAINS) == {ChainType.LRO, ChainType.LU,
                                    ChainType.DROC, ChainType.DUC}


class TestContentionTrends:
    @pytest.mark.parametrize("factory", [lb8, mb4, mb8, ub6])
    def test_throughput_decreases_with_transaction_size(self, factory,
                                                        sites):
        sizes = (4, 12, 20)
        xputs = []
        for n in sizes:
            solution = solve_model(factory(n), sites,
                                   max_iterations=1000)
            xputs.append(
                solution.site("A").transaction_throughput_per_s)
        assert xputs[0] > xputs[1] > xputs[2]

    def test_abort_probability_grows_with_n(self, sites):
        pa = []
        for n in (4, 12, 20):
            solution = solve_model(mb8(n), sites, max_iterations=1000)
            pa.append(solution.site("A")
                      .chains[ChainType.LU].abort_probability)
        assert pa[0] < pa[1] < pa[2]
        assert pa[2] > 0.05

    def test_normalized_throughput_knee(self, sites):
        """Paper §6: record throughput declines beyond n ~= 8 because
        deadlock rollback dominates."""
        records = {}
        for n in (8, 20):
            solution = solve_model(mb8(n), sites, max_iterations=1000)
            records[n] = solution.site("A").record_throughput_per_s
        assert records[20] < records[8]

    def test_readonly_never_aborts_in_read_only_workload(self, sites):
        """A workload with no update transactions has no lock conflicts
        at all (shared locks are compatible)."""
        from repro.model.types import BaseType
        from repro.model.workload import WorkloadSpec
        workload = WorkloadSpec(
            "RO", {"A": {BaseType.LRO: 8}, "B": {BaseType.LRO: 8}},
            requests_per_txn=8)
        solution = solve_model(workload, sites, max_iterations=1000)
        chain = solution.site("A").chains[ChainType.LRO]
        assert chain.abort_probability == 0.0
        assert chain.lock_state.blocking == 0.0


class TestThinkTimeAndOptions:
    def test_think_time_lowers_throughput(self, sites):
        busy = solve_model(mb4(8), sites, max_iterations=1000)
        from dataclasses import replace
        lazy_workload = replace(mb4(8), think_time_ms=10_000.0)
        lazy = solve_model(lazy_workload, sites, max_iterations=1000)
        assert (lazy.site("A").transaction_throughput_per_s
                < busy.site("A").transaction_throughput_per_s)

    def test_approximate_mva_close_to_exact(self, sites):
        exact = solve_model(mb8(8), sites, mva="exact",
                            max_iterations=1000)
        approx = solve_model(mb8(8), sites, mva="approx",
                             max_iterations=1000)
        assert (approx.site("A").transaction_throughput_per_s
                == pytest.approx(
                    exact.site("A").transaction_throughput_per_s,
                    rel=0.1))

    def test_blocking_ratio_override(self, sites):
        base = solve_model(mb8(12), sites, max_iterations=1000)
        heavy = solve_model(mb8(12), sites, max_iterations=1000,
                            blocking_ratio_override=1.0)
        # Tripling every blocker's effective holding time must hurt.
        assert (heavy.site("A").transaction_throughput_per_s
                < base.site("A").transaction_throughput_per_s)

    def test_separate_log_disk_helps_update_throughput(self, sites):
        shared = solve_model(mb8(8), sites, max_iterations=1000)
        split_sites = {name: site.with_overrides(
            log_on_separate_disk=True) for name, site in sites.items()}
        split = solve_model(mb8(8), split_sites, max_iterations=1000)
        assert (split.site("A").transaction_throughput_per_s
                >= shared.site("A").transaction_throughput_per_s)
        assert split.site("A").log_disk_utilization > 0.0

    def test_buffer_raises_throughput(self, sites):
        cold = solve_model(mb8(8), sites, max_iterations=1000)
        warm_sites = {name: site.with_overrides(
            buffer_hit_probability=0.8) for name, site in sites.items()}
        warm = solve_model(mb8(8), warm_sites, max_iterations=1000)
        assert (warm.site("A").transaction_throughput_per_s
                > cold.site("A").transaction_throughput_per_s)
