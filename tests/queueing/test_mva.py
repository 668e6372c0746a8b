"""Tests for the exact and approximate MVA solvers.

Cross-validates exact MVA against textbook closed forms, the
convolution algorithm, and the brute-force CTMC oracle.
"""

import pytest

from repro.errors import ConfigurationError
from repro.queueing.centers import CenterKind, ServiceCenter
from repro.queueing.kernels import MAX_EXACT_COST
from repro.queueing.mva_approx import solve_mva_approx
from repro.queueing.mva_exact import mva_cost, solve_mva_exact
from repro.queueing.network import ClosedNetwork
from tests.oracles.convolution import solve_convolution
from tests.oracles.ctmc import solve_ctmc


def single_chain(demand_cpu=1.0, demand_disk=2.0, think=0.0, n=3):
    centers = [
        ServiceCenter("cpu", CenterKind.QUEUEING, {"t": demand_cpu}),
        ServiceCenter("disk", CenterKind.QUEUEING, {"t": demand_disk}),
    ]
    if think > 0:
        centers.append(ServiceCenter("think", CenterKind.DELAY,
                                     {"t": think}))
    return ClosedNetwork(centers=tuple(centers), populations={"t": n})


class TestExactMvaSingleChain:
    def test_population_one_is_zero_load(self):
        """With one customer there is no queueing: X = 1 / sum(D)."""
        net = single_chain(1.0, 2.0, n=1)
        sol = solve_mva_exact(net)
        assert sol.throughput["t"] == pytest.approx(1.0 / 3.0)
        assert sol.response_time["t"] == pytest.approx(3.0)

    def test_delay_only_network(self):
        """Pure delay network: X = N / Z, no contention ever."""
        net = ClosedNetwork(
            centers=(ServiceCenter("z", CenterKind.DELAY, {"t": 4.0}),),
            populations={"t": 5},
        )
        sol = solve_mva_exact(net)
        assert sol.throughput["t"] == pytest.approx(5.0 / 4.0)

    def test_bottleneck_asymptote(self):
        """X(N) -> 1 / D_max as N grows."""
        net = single_chain(1.0, 2.0, n=50)
        sol = solve_mva_exact(net)
        assert sol.throughput["t"] == pytest.approx(0.5, rel=1e-3)
        assert sol.utilization[("disk", "t")] == pytest.approx(1.0,
                                                               rel=1e-3)

    def test_two_balanced_centers_closed_form(self):
        """Balanced network of m=2 centers: X(N) = N / (D (N + m - 1))."""
        for n in (1, 2, 5, 10):
            net = single_chain(1.0, 1.0, n=n)
            sol = solve_mva_exact(net)
            assert sol.throughput["t"] == pytest.approx(n / (n + 1.0))

    def test_littles_law_at_each_center(self):
        net = single_chain(1.0, 2.0, think=3.0, n=4)
        sol = solve_mva_exact(net)
        x = sol.throughput["t"]
        for center in ("cpu", "disk", "think"):
            q = sol.queue_length[(center, "t")]
            r = sol.residence_time[(center, "t")]
            assert q == pytest.approx(x * r)

    def test_total_population_conserved(self):
        net = single_chain(1.0, 2.0, think=3.0, n=4)
        sol = solve_mva_exact(net)
        total = sum(sol.queue_length[(c, "t")]
                    for c in ("cpu", "disk", "think"))
        assert total == pytest.approx(4.0)

    def test_matches_convolution(self):
        net = single_chain(1.3, 0.7, think=2.0, n=6)
        mva = solve_mva_exact(net)
        conv = solve_convolution(net)
        assert mva.throughput["t"] == pytest.approx(conv.throughput["t"])
        for center in ("cpu", "disk"):
            assert mva.queue_length[(center, "t")] == pytest.approx(
                conv.queue_length[(center, "t")], rel=1e-9)

    def test_matches_ctmc(self):
        net = single_chain(1.0, 2.0, n=3)
        mva = solve_mva_exact(net)
        ctmc = solve_ctmc(net)
        assert mva.throughput["t"] == pytest.approx(ctmc.throughput["t"],
                                                    rel=1e-6)


class TestExactMvaMultiChain:
    def _net(self, n1=2, n2=2):
        return ClosedNetwork(
            centers=(
                ServiceCenter("cpu", CenterKind.QUEUEING,
                              {"a": 1.0, "b": 0.5}),
                ServiceCenter("disk", CenterKind.QUEUEING,
                              {"a": 0.5, "b": 2.0}),
                ServiceCenter("z", CenterKind.DELAY,
                              {"a": 1.0, "b": 1.0}),
            ),
            populations={"a": n1, "b": n2},
        )

    def test_matches_ctmc_two_chains(self):
        net = self._net(2, 2)
        mva = solve_mva_exact(net)
        ctmc = solve_ctmc(net)
        for chain in ("a", "b"):
            assert mva.throughput[chain] == pytest.approx(
                ctmc.throughput[chain], rel=1e-5)

    def test_utilizations_below_one(self):
        sol = solve_mva_exact(self._net(4, 4))
        assert sol.center_utilization("cpu") < 1.0
        assert sol.center_utilization("disk") < 1.0

    def test_zero_population_chain_reported_as_zero(self):
        sol = solve_mva_exact(self._net(2, 0))
        assert sol.throughput["b"] == 0.0
        assert sol.throughput["a"] > 0.0

    def test_throughput_monotone_in_population(self):
        x1 = solve_mva_exact(self._net(1, 1)).throughput["a"]
        x2 = solve_mva_exact(self._net(2, 1)).throughput["a"]
        assert x2 > x1

    def test_cross_chain_interference(self):
        """Adding chain-b customers slows chain a."""
        alone = solve_mva_exact(self._net(2, 0)).throughput["a"]
        shared = solve_mva_exact(self._net(2, 4)).throughput["a"]
        assert shared < alone

    def test_ten_chains_at_nine_solve(self):
        """A 10^10-point lattice, but a small polynomial: one
        saturated queue serves the ten symmetric chains alike."""
        net = ClosedNetwork(
            centers=(ServiceCenter("cpu", CenterKind.QUEUEING,
                                   {str(i): 1.0 for i in range(10)}),),
            populations={str(i): 9 for i in range(10)},
        )
        assert mva_cost(net) == 22_120
        sol = solve_mva_exact(net)
        for chain in net.chains:
            assert sol.throughput[chain] == pytest.approx(0.1, rel=1e-12)
            assert sol.residence_time[("cpu", chain)] == pytest.approx(
                90.0, rel=1e-12)

    def test_cost_cap_enforced(self):
        net = ClosedNetwork(
            centers=tuple(
                ServiceCenter(name, CenterKind.QUEUEING,
                              {str(i): 1.0 for i in range(6)})
                for name in ("cpu", "disk", "log")),
            populations={str(i): 60 for i in range(6)},
        )
        assert mva_cost(net) > MAX_EXACT_COST
        with pytest.raises(ConfigurationError, match="coefficient reads"):
            solve_mva_exact(net)


class TestApproximateMva:
    def test_close_to_exact_single_chain(self):
        net = single_chain(1.0, 2.0, think=1.0, n=5)
        exact = solve_mva_exact(net)
        approx = solve_mva_approx(net)
        assert approx.throughput["t"] == pytest.approx(
            exact.throughput["t"], rel=0.05)

    def test_close_to_exact_multi_chain(self):
        net = ClosedNetwork(
            centers=(
                ServiceCenter("cpu", CenterKind.QUEUEING,
                              {"a": 1.0, "b": 0.5}),
                ServiceCenter("disk", CenterKind.QUEUEING,
                              {"a": 0.5, "b": 2.0}),
            ),
            populations={"a": 3, "b": 3},
        )
        exact = solve_mva_exact(net)
        approx = solve_mva_approx(net)
        for chain in ("a", "b"):
            assert approx.throughput[chain] == pytest.approx(
                exact.throughput[chain], rel=0.10)

    def test_exact_for_single_customer(self):
        """With N=1 the Schweitzer correction vanishes: results exact."""
        net = single_chain(1.0, 2.0, n=1)
        exact = solve_mva_exact(net)
        approx = solve_mva_approx(net)
        assert approx.throughput["t"] == pytest.approx(
            exact.throughput["t"], rel=1e-6)

    def test_handles_large_population(self):
        net = single_chain(1.0, 2.0, n=500)
        sol = solve_mva_approx(net)
        assert sol.throughput["t"] == pytest.approx(0.5, rel=1e-2)
