"""The generating-function exact-MVA kernel against the lattice oracle,
and past the lattice's reach.

:func:`repro.queueing.kernels.solve_exact_batch` must agree with the
lattice recursion (:mod:`tests.oracles.lattice_mva`) within 1e-12
relative on every golden case and on the site networks the model
solves: the ``model-grid`` benchmark's mixes and sizes, and the
capacity planner's MPL grids (``mpl_max`` up to 36) up to a
300,000-point lattice.  Beyond
that reach (MB4-shaped sites at MPL 36 and 120, a single chain of
500 customers) the results must be finite and obey the operational
laws and bounds.
"""

import math

import numpy as np
import pytest

from repro.model.parameters import paper_sites
from repro.model.solver import CaratModel, ModelConfig
from repro.model.workload import STANDARD_WORKLOADS, mb4
from repro.planner.search import mix_quantum, scale_to_mpl
from repro.queueing.bounds import asymptotic_bounds
from repro.queueing.centers import CenterKind, ServiceCenter
from repro.queueing.kernels import NetworkArrays, solve_exact_batch
from repro.queueing.mva_exact import solve_mva_exact
from repro.queueing.mva_reference import reference_mva_exact
from repro.queueing.network import ClosedNetwork
from tests.oracles.lattice_mva import lattice_exact_batch
from tests.queueing.test_exact_kernel_golden import CASES, case_inputs

RTOL = 1e-12

#: Largest lattice the planner-grid agreement cases reach.
LATTICE_REACH = 300_000


def assert_agrees(demands, delay, populations):
    """Kernel and oracle agree within :data:`RTOL` relative."""
    x, r = solve_exact_batch(demands, delay, populations)
    x_ref, r_ref = lattice_exact_batch(demands, delay, populations)
    np.testing.assert_allclose(x, x_ref, rtol=RTOL, atol=0.0)
    np.testing.assert_allclose(r, r_ref, rtol=RTOL, atol=0.0)


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_cases_agree(case):
    assert_agrees(*case_inputs(case))


def _site_arrays(workload, solve):
    """Site networks of one model, converged when *solve*."""
    model = CaratModel(ModelConfig(workload=workload, sites=paper_sites(),
                                   tolerance=1e-4))
    if solve:
        model.solve()
    return [NetworkArrays.from_network(model.site_network(name))
            for name in workload.sites]


@pytest.mark.parametrize("mix", ["LB8", "MB4", "MB8", "UB6"])
@pytest.mark.parametrize("n", [2, 8, 40])
def test_model_grid_site_networks_agree(mix, n):
    for a in _site_arrays(STANDARD_WORKLOADS[mix](n), solve=True):
        assert_agrees(a.demands, a.delay, a.populations)


def _planner_mpls(workload):
    """The planner grid's smallest MPL, 12 or 24 where on the grid, and
    its largest MPL up to ``mpl_max`` 36 whose site lattices stay within
    reach."""
    quantum = mix_quantum(workload)
    grid = []
    for mpl in range(quantum, 37, quantum):
        arrays = _site_arrays(scale_to_mpl(workload, mpl), solve=False)
        if max(math.prod(int(p) + 1 for p in a.populations)
               for a in arrays) <= LATTICE_REACH:
            grid.append(mpl)
    return sorted({grid[0], grid[-1]}
                  | {m for m in (12, 24) if m in grid})


@pytest.mark.parametrize("mix", ["LB8", "MB4", "UB6"])
@pytest.mark.parametrize("n", [4, 8])
def test_planner_grid_site_networks_agree(mix, n):
    workload = STANDARD_WORKLOADS[mix](n)
    mpls = _planner_mpls(workload)
    assert len(mpls) >= 2
    for mpl in mpls:
        for a in _site_arrays(scale_to_mpl(workload, mpl), solve=True):
            assert_agrees(a.demands, a.delay, a.populations)


def _mb4_site(mpl):
    """MB4's zero-conflict site network at *mpl*: six chains of
    ``mpl / 4`` customers over a CPU and a disk queue."""
    workload = scale_to_mpl(mb4(4), mpl)
    model = CaratModel(ModelConfig(workload=workload, sites=paper_sites()))
    return model.site_network("A")


@pytest.fixture(scope="module")
def large_mb4():
    return {mpl: (net, solve_mva_exact(net))
            for mpl in (36, 120) for net in [_mb4_site(mpl)]}


class TestBeyondTheLattice:
    @pytest.mark.parametrize("mpl", [36, 120])
    def test_results_are_finite(self, large_mb4, mpl):
        net, sol = large_mb4[mpl]
        assert math.prod(p + 1 for p in net.populations.values()) \
            > LATTICE_REACH
        values = (list(sol.throughput.values())
                  + list(sol.residence_time.values())
                  + list(sol.queue_length.values()))
        assert all(math.isfinite(v) for v in values)
        assert all(x > 0.0 for x in sol.throughput.values())

    @pytest.mark.parametrize("mpl", [36, 120])
    def test_bounds_sandwich(self, large_mb4, mpl):
        """Each chain lies below its own asymptotic upper bound (other
        chains only slow it) and above the throughput it would get
        queued behind every customer of the network at every center."""
        net, sol = large_mb4[mpl]
        total = sum(net.populations.values())
        for chain in net.active_chains:
            x = sol.throughput[chain]
            assert x <= asymptotic_bounds(net, chain).throughput_upper \
                * (1.0 + 1e-12)
            demand = sum(c.demand(chain) for c in net.queueing_centers())
            think = sum(c.demand(chain) for c in net.delay_centers())
            assert x >= net.populations[chain] / (total * demand + think)

    @pytest.mark.parametrize("mpl", [36, 120])
    def test_littles_law_and_utilization_law(self, large_mb4, mpl):
        net, sol = large_mb4[mpl]
        for chain in net.active_chains:
            queued = sum(sol.queue_length[(c.name, chain)]
                         for c in net.centers)
            assert queued == pytest.approx(net.populations[chain],
                                           rel=1e-12)
        for center in net.queueing_centers():
            busy = sum(sol.throughput[k] * center.demand(k)
                       for k in net.active_chains)
            assert sol.center_utilization(center.name) == pytest.approx(
                busy, rel=1e-12)
            assert busy <= 1.0 + 1e-12

    def test_throughput_approaches_bottleneck_rate(self, large_mb4):
        """With one bottleneck, its utilization tends to 1 as the
        population grows (the large closed network limit): the mix's
        throughput tends to ``1 / D_max`` of the bottleneck."""
        busy = {}
        for mpl, (net, sol) in large_mb4.items():
            busy[mpl] = max(sol.center_utilization(c.name)
                            for c in net.queueing_centers())
        assert busy[36] <= busy[120] <= 1.0 + 1e-12
        assert busy[120] > 1.0 - 1e-9

    def test_five_hundred_customers_match_the_recursion(self):
        """A single chain of 500, where unscaled factorial weights
        overflow: the coefficients are rescaled every few steps, and
        the result is the plain recursion's."""
        net = ClosedNetwork(
            centers=(ServiceCenter("cpu", CenterKind.QUEUEING, {"t": 3.0}),
                     ServiceCenter("disk", CenterKind.QUEUEING,
                                   {"t": 2.9}),
                     ServiceCenter("think", CenterKind.DELAY,
                                   {"t": 5000.0})),
            populations={"t": 500},
        )
        sol = solve_mva_exact(net)
        ref = reference_mva_exact(net)
        assert sol.throughput["t"] == pytest.approx(ref.throughput["t"],
                                                    rel=1e-10)
        for key, value in ref.residence_time.items():
            assert sol.residence_time[key] == pytest.approx(value,
                                                            rel=1e-10)
