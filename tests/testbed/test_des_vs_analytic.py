"""Cross-layer validation: the DES resources reproduce queueing theory.

Drives :class:`FcfsResource` with Poisson arrivals and exponential
service and compares the measured waiting time and utilization against
the M/M/1 and M/G/1 closed forms — tying the simulator substrate to
the analytic substrate with no shared code between them.
"""

import random

import pytest

from repro.queueing.analytic import MG1, MM1
from repro.testbed.des import Simulator, Timeout
from repro.testbed.resources import FcfsResource


def _drive(lam, service_sampler, horizon=400_000.0, seed=3):
    """Open-arrival driver; returns (mean response, utilization)."""
    sim = Simulator()
    resource = FcfsResource(sim, "q")
    rng = random.Random(seed)
    responses = []

    def customer(service):
        start = sim.now
        yield resource.serve(service)
        responses.append(sim.now - start)

    from repro.testbed.des import Fork

    def source_process():
        while True:
            yield Timeout(rng.expovariate(lam))
            yield Fork(customer(service_sampler(rng)))

    sim.spawn(source_process())
    sim.run(until=horizon)
    mean_response = sum(responses) / len(responses)
    return mean_response, resource.utilization(), len(responses)


class TestMm1Agreement:
    def test_mean_response_matches_mm1(self):
        lam, mu = 1.0 / 20.0, 1.0 / 10.0     # rho = 0.5
        measured, util, count = _drive(
            lam, lambda rng: rng.expovariate(mu))
        analytic = MM1(lam=lam, mu=mu)
        assert count > 5000
        assert util == pytest.approx(analytic.utilization, abs=0.03)
        assert measured == pytest.approx(analytic.mean_response,
                                         rel=0.10)

    def test_high_load_queueing_blowup(self):
        lam, mu = 1.0 / 12.0, 1.0 / 10.0     # rho ~ 0.83
        measured, util, _count = _drive(
            lam, lambda rng: rng.expovariate(mu), horizon=1_500_000.0)
        analytic = MM1(lam=lam, mu=mu)
        assert util == pytest.approx(analytic.utilization, abs=0.04)
        assert measured == pytest.approx(analytic.mean_response,
                                         rel=0.25)


class TestMg1Agreement:
    def test_deterministic_service_matches_pollaczek_khinchine(self):
        lam, mean_service = 1.0 / 20.0, 10.0   # rho = 0.5, c^2 = 0
        measured, _util, _count = _drive(lam,
                                         lambda rng: mean_service)
        analytic = MG1(lam=lam, service_mean=mean_service,
                       service_scv=0.0)
        assert measured == pytest.approx(analytic.mean_response,
                                         rel=0.10)

    def test_deterministic_waits_less_than_exponential(self):
        lam, mean_service = 1.0 / 15.0, 10.0
        deterministic, _u, _c = _drive(lam, lambda rng: mean_service)
        exponential, _u, _c = _drive(
            lam, lambda rng: rng.expovariate(1.0 / mean_service))
        assert deterministic < exponential
