"""Property-based tests of the queueing substrate (hypothesis).

Operational laws that must hold for *any* valid closed network:
utilization law, Little's law, population conservation, throughput
bounds, and exact-vs-approximate agreement trends.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.queueing.centers import CenterKind, ServiceCenter
from repro.queueing.mva_exact import solve_mva_exact
from repro.queueing.network import ClosedNetwork
from tests.oracles.convolution import solve_convolution

demand = st.floats(min_value=0.01, max_value=10.0,
                   allow_nan=False, allow_infinity=False)


@st.composite
def small_networks(draw):
    """Random 2-chain networks with 2 queueing + 1 delay center."""
    chains = ["a", "b"]
    pops = {k: draw(st.integers(0, 3)) for k in chains}
    if sum(pops.values()) == 0:
        pops["a"] = 1
    centers = []
    for name in ("c1", "c2"):
        centers.append(ServiceCenter(
            name, CenterKind.QUEUEING,
            {k: draw(demand) for k in chains}))
    centers.append(ServiceCenter(
        "z", CenterKind.DELAY, {k: draw(demand) for k in chains}))
    return ClosedNetwork(centers=tuple(centers), populations=pops)


class TestOperationalLaws:
    @given(small_networks())
    @settings(max_examples=60, deadline=None)
    def test_utilization_law(self, net):
        sol = solve_mva_exact(net)
        for center in net.queueing_centers():
            for chain in net.active_chains:
                expected = sol.throughput[chain] * center.demand(chain)
                assert sol.utilization[(center.name, chain)] == \
                    pytest.approx(expected, rel=1e-9)

    @given(small_networks())
    @settings(max_examples=60, deadline=None)
    def test_total_utilization_below_one(self, net):
        sol = solve_mva_exact(net)
        for center in net.queueing_centers():
            assert sol.center_utilization(center.name) <= 1.0 + 1e-9

    @given(small_networks())
    @settings(max_examples=60, deadline=None)
    def test_littles_law_network_level(self, net):
        sol = solve_mva_exact(net)
        for chain in net.active_chains:
            n = net.populations[chain]
            assert sol.throughput[chain] * sol.response_time[chain] == \
                pytest.approx(n, rel=1e-9)

    @given(small_networks())
    @settings(max_examples=60, deadline=None)
    def test_population_conserved_per_chain(self, net):
        sol = solve_mva_exact(net)
        for chain in net.active_chains:
            total = sum(sol.queue_length.get((c.name, chain), 0.0)
                        for c in net.centers)
            assert total == pytest.approx(net.populations[chain],
                                          rel=1e-6)

    @given(small_networks())
    @settings(max_examples=60, deadline=None)
    def test_throughput_bounds(self, net):
        """X(k) <= min over centers of 1/D_ck, and X <= N / sum(D)
        never *exceeds* the zero-load bound."""
        sol = solve_mva_exact(net)
        for chain in net.active_chains:
            x = sol.throughput[chain]
            assert x > 0.0
            for center in net.queueing_centers():
                d = center.demand(chain)
                if d > 0:
                    assert x <= 1.0 / d + 1e-9
            assert x <= (net.populations[chain]
                         / net.total_demand(chain)) + 1e-9

    @given(
        d1=demand, d2=demand, z=demand,
        n=st.integers(1, 6),
    )
    @settings(max_examples=60, deadline=None)
    def test_mva_equals_convolution_single_chain(self, d1, d2, z, n):
        net = ClosedNetwork(
            centers=(
                ServiceCenter("c1", CenterKind.QUEUEING, {"t": d1}),
                ServiceCenter("c2", CenterKind.QUEUEING, {"t": d2}),
                ServiceCenter("z", CenterKind.DELAY, {"t": z}),
            ),
            populations={"t": n},
        )
        mva = solve_mva_exact(net)
        conv = solve_convolution(net)
        assert mva.throughput["t"] == pytest.approx(conv.throughput["t"],
                                                    rel=1e-6)
