"""Exact output of the analytical model's solve path.

Seven solves, each pinned bit for bit with ``float.hex``: every
chain's throughput, cycle response, lock/remote/commit waits and abort
probability, every site's CPU, disk and log-disk utilization, and the
outer iteration count.  The cases cover exact and Schweitzer MVA, a
warm-started solve, and each non-default option (TM serialization, a
separate log disk, a fixed blocking ratio, a communication delay).  A
zero-conflict site network, read before any solve, is pinned the same
way.

A refactoring of the solver must leave every value unchanged; a
deliberate change to the numerics must re-record the goldens
(``python tests/model/test_engine_golden.py``) and say why.  This is
the model-side twin of ``tests/testbed/test_sim_golden.py``.
"""

import json
from pathlib import Path

import pytest

from repro.model.parameters import paper_sites
from repro.model.solver import CaratModel, ModelConfig
from repro.model.workload import lb8, mb8

GOLDEN_PATH = Path(__file__).with_name("engine_golden.json")


def _config(sites, workload, **options):
    return ModelConfig(workload=workload, sites=sites,
                       max_iterations=1000, **options)


def _warm_mb8_n12(sites):
    seed = CaratModel(_config(sites, mb8(8)))
    seed.solve()
    return CaratModel(_config(sites, mb8(12)), warm_start=seed.snapshot())


def _log_disk(sites):
    split = {node: site.with_overrides(log_on_separate_disk=True)
             for node, site in sites.items()}
    return CaratModel(_config(split, mb8(8)))


CASES = {
    "mb8-n8-exact": lambda s: CaratModel(_config(s, mb8(8), mva="exact")),
    "lb8-n16-approx": lambda s: CaratModel(
        _config(s, lb8(16), mva="approx")),
    "mb8-n12-warm": _warm_mb8_n12,
    "mb8-n8-tms": lambda s: CaratModel(
        _config(s, mb8(8), model_tm_serialization=True)),
    "mb8-n8-logdisk": _log_disk,
    "mb8-n8-override": lambda s: CaratModel(
        _config(s, mb8(8), blocking_ratio_override=0.41)),
    "mb8-n8-alpha": lambda s: CaratModel(_config(s, mb8(8), alpha_ms=2.0)),
}


def fingerprint(solution):
    """Exact per-chain and per-site measures of one solution."""
    chains = {}
    sites = {}
    for name, site in sorted(solution.sites.items()):
        sites[name] = [site.cpu_utilization.hex(),
                       site.disk_utilization.hex(),
                       site.log_disk_utilization.hex()]
        for chain, result in sorted(site.chains.items(),
                                    key=lambda item: item[0].value):
            chains[f"{name}/{chain.value}"] = [
                result.throughput_per_s.hex(),
                result.cycle_response_ms.hex(),
                result.lock_wait_ms.hex(),
                result.remote_wait_ms.hex(),
                result.commit_wait_ms.hex(),
                result.abort_probability.hex(),
            ]
    return {"iterations": solution.iterations, "chains": chains,
            "sites": sites}


def zero_conflict_network(sites):
    """Demand table of MB8 n=8's site networks before any solve."""
    model = CaratModel(_config(sites, mb8(8)))
    table = {}
    for site in model.workload.sites:
        network = model.site_network(site)
        table[site] = {
            "populations": dict(sorted(network.populations.items())),
            "centers": {
                center.name: {chain: float(value).hex()
                              for chain, value
                              in sorted(center.demands.items())}
                for center in network.centers
            },
        }
    return table


def record(sites):
    """Every golden value, as stored in ``engine_golden.json``."""
    return {
        "solves": {name: fingerprint(build(sites).solve())
                   for name, build in CASES.items()},
        "zero_conflict_network": zero_conflict_network(sites),
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("case", sorted(CASES))
def test_solve_output_is_exact(sites, golden, case):
    assert fingerprint(CASES[case](sites).solve()) \
        == golden["solves"][case]


def test_zero_conflict_network_is_exact(sites, golden):
    assert zero_conflict_network(sites) == golden["zero_conflict_network"]


if __name__ == "__main__":
    GOLDEN_PATH.write_text(
        json.dumps(record(paper_sites()), indent=1, sort_keys=True) + "\n")
