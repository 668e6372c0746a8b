"""Exact fixed-seed output of the simulator.

Four short seeded runs, each pinned with ``==`` (no tolerance): the
number of processed DES events, commits and aborts per (site, type),
disk I/Os, lock waits, local and global deadlocks, and the summed
response times.  Any change to the kernel, the resources or the
executor that alters which events fire, or in what order, moves at
least one of these numbers.  A speed-up of the simulator must leave
them all unchanged; a deliberate behaviour change must re-record them
and say why.
"""

import pytest

from repro.model.types import BaseType
from repro.model.workload import mb4, mb8
from repro.testbed.system import (CaratSimulation, OpenCaratSimulation,
                                  SimulationConfig)
from repro.testbed.telemetry import Telemetry


def _by_type(counters):
    return {f"{site}/{base.value}": value
            for (site, base), value in counters.items() if value}


def _by_site(counters):
    return {site: value for site, value in counters.items() if value}


def fingerprint(simulation):
    """Run *simulation* and read its exact counters."""
    simulation.run()
    metrics = simulation.metrics
    return {
        "steps": simulation.sim._steps,
        "commits": _by_type(metrics.commits),
        "aborts": _by_type(metrics.aborts),
        "disk_ios": _by_site(metrics.disk_ios),
        "lock_waits": _by_site(metrics.lock_waits),
        "deadlocks_local": _by_site(metrics.deadlocks_local),
        "deadlocks_global": _by_site(metrics.deadlocks_global),
        "response_sum_ms": _by_type(metrics.response_sum_ms),
    }


OPEN_RATES = {
    "A": {BaseType.LRO: 0.15, BaseType.LU: 0.05, BaseType.DRO: 0.05,
          BaseType.DU: 0.025},
    "B": {BaseType.LRO: 0.15, BaseType.DU: 0.025},
}


def _mb8_global_deadlocks(sites):
    # The hash-seed test's case: MB8 n=20 seed 3 has global deadlocks.
    return CaratSimulation(SimulationConfig(
        workload=mb8(20), sites=sites, seed=3, warmup_ms=0.0,
        duration_ms=60_000.0))


def _zipf_with_telemetry(sites):
    return CaratSimulation(SimulationConfig(
        workload=mb4(8).with_zipf(1.2), sites=sites, seed=17,
        warmup_ms=5_000.0, duration_ms=90_000.0, telemetry=Telemetry()))


def _open_bursty(sites):
    return OpenCaratSimulation(SimulationConfig(
        workload=mb8(8), sites=sites, seed=131, warmup_ms=5_000.0,
        duration_ms=150_000.0), OPEN_RATES, burstiness=4.0)


def _parallel_remote(sites):
    return CaratSimulation(SimulationConfig(
        workload=mb4(8), sites=sites, seed=61, warmup_ms=5_000.0,
        duration_ms=90_000.0, parallel_remote=True))


#: Recorded on the simulator before its event loop was reworked
#: (tuple heap, slotted commands, idle-server fast path).
GOLDEN = {
    "mb8-n20-global-deadlocks": (_mb8_global_deadlocks, {
        "steps": 25965,
        "commits": {"A/LRO": 3, "B/DRO": 2, "B/DU": 1, "B/LRO": 1,
                    "B/LU": 1},
        "aborts": {"A/DRO": 1, "A/DU": 2, "A/LRO": 2, "A/LU": 4,
                   "B/DRO": 2},
        "disk_ios": {"A": 1824, "B": 1145},
        "lock_waits": {"A": 31, "B": 21},
        "deadlocks_local": {"A": 7, "B": 2},
        "deadlocks_global": {"B": 2},
        "response_sum_ms": {"A/LRO": 39417.89999999998,
                            "B/DRO": 29984.100000000028,
                            "B/DU": 44550.999999999935,
                            "B/LRO": 47081.29999999992,
                            "B/LU": 35458.20000000001},
    }),
    "mb4-zipf-telemetry": (_zipf_with_telemetry, {
        "steps": 32096,
        "commits": {"A/DRO": 3, "A/LRO": 5, "A/LU": 2, "B/DRO": 3,
                    "B/LRO": 8, "B/LU": 3},
        "aborts": {"A/DRO": 13, "A/DU": 19, "A/LRO": 17, "A/LU": 19,
                   "B/DRO": 13, "B/DU": 18, "B/LRO": 8, "B/LU": 17},
        "disk_ios": {"A": 1265, "B": 1491},
        "lock_waits": {"A": 130, "B": 133},
        "deadlocks_local": {"A": 39, "B": 40},
        "deadlocks_global": {"A": 28, "B": 17},
        "response_sum_ms": {"A/DRO": 31062.90000000012,
                            "A/LRO": 88507.99999999967,
                            "A/LU": 94767.49999999971,
                            "B/DRO": 63803.79999999972,
                            "B/LRO": 77097.99999999975,
                            "B/LU": 91508.80000000002},
    }),
    "mb8-open-bursty": (_open_bursty, {
        "steps": 42544,
        "commits": {"A/DRO": 14, "A/DU": 3, "A/LRO": 28, "A/LU": 15,
                    "B/DU": 9, "B/LRO": 31},
        "aborts": {"A/LU": 1, "B/DU": 1},
        "disk_ios": {"A": 3198, "B": 1802},
        "lock_waits": {"A": 21, "B": 6},
        "deadlocks_local": {"A": 1},
        "deadlocks_global": {"A": 1},
        "response_sum_ms": {"A/DRO": 52039.19202091162,
                            "A/DU": 26133.429072969484,
                            "A/LRO": 154820.6862925896,
                            "A/LU": 158834.01636247803,
                            "B/DU": 121981.10559085908,
                            "B/LRO": 120461.90478338575},
    }),
    "mb4-parallel-remote": (_parallel_remote, {
        "steps": 43013,
        "commits": {"A/DRO": 21, "A/DU": 7, "A/LRO": 9, "A/LU": 10,
                    "B/DRO": 17, "B/DU": 9, "B/LRO": 10, "B/LU": 5},
        "aborts": {},
        "disk_ios": {"A": 2713, "B": 2243},
        "lock_waits": {"A": 24, "B": 19},
        "deadlocks_local": {},
        "deadlocks_global": {},
        "response_sum_ms": {"A/DRO": 88241.40000000005,
                            "A/DU": 86414.50000000004,
                            "A/LRO": 87428.50000000006,
                            "A/LU": 91863.10000000006,
                            "B/DRO": 89318.50000000004,
                            "B/DU": 87316.50000000003,
                            "B/LRO": 89243.20000000007,
                            "B/LU": 86833.80000000005},
    }),
}


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_fixed_seed_output_is_exact(sites, case):
    build, expected = GOLDEN[case]
    assert fingerprint(build(sites)) == expected
