"""Exact output of the lattice exact-MVA oracle.

Fixed, seeded cases of :func:`tests.oracles.lattice_mva.lattice_exact_batch`,
each pinned bit for bit with ``float.hex``: the throughput and the
residence matrix of every batch element.  The cases cover 0 to 4
queueing centers, 1 to 6 chains, batches of 1, 2, 6 and 78 networks
and a squeezed ``(C, K)`` call, zero-demand center and chain entries,
a zero-population chain, an all-delay network, and the lattice shapes
the capacity planner solves most: six chains at population 6 and at
(4, 4, 4, 4, 8, 8) over two queueing centers, and the separate
log-disk site's three.

The lattice recursion is the oracle the production kernel
(:func:`repro.queueing.kernels.solve_exact_batch`) is checked against
in ``test_exact_kernel_agreement.py``, on these same cases; this file
keeps the oracle itself fixed.  The summation order of each reduction
is part of the contract.  A deliberate change to its numerics must
re-record the goldens
(``PYTHONPATH=src:. python tests/queueing/test_exact_kernel_golden.py``)
and say why.
"""

import json
import random
from pathlib import Path

import numpy as np
import pytest

from tests.oracles.lattice_mva import lattice_exact_batch

GOLDEN_PATH = Path(__file__).with_name("exact_kernel_golden.json")

#: name -> (delay mask, populations, batch size or None for a squeezed
#: ``(C, K)`` call, seed, zeroed ``(center, chain)`` demand entries).
CASES = {
    "cq0-all-delay-b2": ((True, True), (3, 2), 2, 1, ()),
    "cq1-k1-b1": ((False, True), (5,), 1, 2, ()),
    "cq1-k2-b6": ((False,), (4, 3), 6, 3, ()),
    "cq2-k2-b78": ((False, False, True), (3, 4), 78, 4, ()),
    "cq2-k3-squeezed": ((False, True, False), (2, 3, 1), None, 5, ()),
    "cq3-k3-b2": ((False, False, False, True), (3, 2, 4), 2, 6, ()),
    "cq3-k4-b6-zeros": ((False, False, True, False), (2, 3, 1, 2), 6, 7,
                        ((1, 0), (1, 1), (1, 2), (1, 3), (0, 2), (2, 2),
                         (3, 2), (3, 1))),
    "cq4-k4-b2": ((False, True, False, False, False), (2, 2, 3, 1), 2, 8,
                  ()),
    "cq4-k5-b1": ((False, False, False, False, True), (1, 2, 1, 2, 2), 1,
                  9, ()),
    "cq2-k5-b6-zero-pop": ((False, False, True), (2, 0, 3, 1, 2), 6, 10,
                           ()),
    "cq2-k6-b78": ((False, False, True), (1, 1, 2, 1, 1, 2), 78, 11, ()),
    "cq3-k6-b2-log-disk": ((False, False, False, True), (3, 3, 2, 2, 1, 1),
                           2, 12, ()),
    "plan-slo-6x6": ((False, False, True), (6, 6, 6, 6, 6, 6), 2, 13, ()),
    "plan-slo-4x4x4x4x8x8": ((False, False, True), (4, 4, 4, 4, 8, 8), 2,
                             14, ()),
}


def case_inputs(name):
    """Demands, delay mask and populations of one case.

    Demands are drawn from ``random.Random(seed)``, whose stream is
    fixed across Python versions: queueing demands in [1, 60] ms,
    delay demands in [100, 5000] ms.
    """
    mask, pops, batch, seed, zeros = CASES[name]
    rng = random.Random(seed)
    rows = 1 if batch is None else batch
    demands = np.array([
        [[rng.uniform(100.0, 5000.0) if is_delay else rng.uniform(1.0, 60.0)
          for _ in pops]
         for is_delay in mask]
        for _ in range(rows)])
    for center, chain in zeros:
        demands[:, center, chain] = 0.0
    if batch is None:
        demands = demands[0]
    return demands, np.array(mask), np.array(pops, dtype=np.int64)


def fingerprint(name):
    """``float.hex`` of every throughput and residence of one case."""
    throughput, residence = lattice_exact_batch(*case_inputs(name))
    return {
        "throughput": np.vectorize(float.hex, otypes=[object])(
            throughput).tolist(),
        "residence": np.vectorize(float.hex, otypes=[object])(
            residence).tolist(),
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("case", sorted(CASES))
def test_exact_kernel_output_is_exact(golden, case):
    assert fingerprint(case) == golden[case]


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(
        {name: fingerprint(name) for name in sorted(CASES)},
        indent=1, sort_keys=True) + "\n")
