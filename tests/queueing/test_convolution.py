"""Tests for the Buzen convolution solver."""

import pytest

from repro.errors import ConfigurationError
from repro.queueing.centers import CenterKind, ServiceCenter
from repro.queueing.network import ClosedNetwork
from tests.oracles.convolution import solve_convolution


def _single(demands, populations, kinds=None):
    kinds = kinds or {}
    centers = tuple(
        ServiceCenter(name, kinds.get(name, CenterKind.QUEUEING),
                      {"t": d})
        for name, d in demands.items()
    )
    return ClosedNetwork(centers=centers, populations=populations)


class TestConvolution:
    def test_single_center_machine_repair(self):
        """One queueing center: X(N) = 1/D for every N >= 1."""
        for n in (1, 2, 5):
            net = _single({"cpu": 2.0}, {"t": n})
            sol = solve_convolution(net)
            assert sol.throughput["t"] == pytest.approx(0.5)
            assert sol.queue_length[("cpu", "t")] == pytest.approx(n)

    def test_two_center_n2_closed_form(self):
        """N=2, demands D1, D2: X = (D1 + D2) / (D1^2 + D1 D2 + D2^2)."""
        d1, d2 = 1.0, 3.0
        net = _single({"c1": d1, "c2": d2}, {"t": 2})
        sol = solve_convolution(net)
        expected = (d1 + d2) / (d1 * d1 + d1 * d2 + d2 * d2)
        assert sol.throughput["t"] == pytest.approx(expected)

    def test_delay_center_machine_repair_model(self):
        """Classic machine-repair: N machines (think Z), one repairman
        (service D).  Check against direct computation for N=2."""
        z, d = 4.0, 1.0
        net = _single({"think": z, "repair": d}, {"t": 2},
                      kinds={"think": CenterKind.DELAY})
        sol = solve_convolution(net)
        # G-based oracle: G(n) for centers think (IS) then repair (Q).
        # G(0)=1, G(1)=Z+D, G(2)=Z^2/2 + D Z + D^2.
        g1 = z + d
        g2 = z * z / 2 + d * z + d * d
        assert sol.throughput["t"] == pytest.approx(g1 / g2)

    def test_rejects_multi_chain(self):
        net = ClosedNetwork(
            centers=(ServiceCenter("cpu", CenterKind.QUEUEING,
                                   {"a": 1.0, "b": 1.0}),),
            populations={"a": 1, "b": 1},
        )
        with pytest.raises(ConfigurationError):
            solve_convolution(net)

    def test_population_conservation(self):
        net = _single({"c1": 1.0, "c2": 2.0, "z": 3.0}, {"t": 4},
                      kinds={"z": CenterKind.DELAY})
        sol = solve_convolution(net)
        total = sum(sol.queue_length[(c, "t")] for c in ("c1", "c2", "z"))
        assert total == pytest.approx(4.0, rel=1e-9)
