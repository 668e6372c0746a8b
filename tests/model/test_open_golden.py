"""Exact output of the batched open-model solve.

Four rate ladders, each pinned bit for bit with ``float.hex``: every
row's per-chain response, blocking, abort probability and submissions,
its arrival-weighted mean response, its iteration count and the type
of its typed outcome.  The ladders cover

* MB4 n=8 over 26 half-octave per-user rates, from a vanishing load
  to well past saturation;
* LB8 n=8 over the same rates;
* MB4 n=24 on eight eighth-octave rates around its saturation point,
  whose rows just below saturation run out of their 300-iteration
  budget (``ConvergenceError`` rows);
* a targeted MB4 n=8 solve, the search's first refinement grid under
  the ``plan-slo`` target, whose rows above the first miss retire.

A refactoring of :func:`repro.model.open_solver.solve_open_batch` must
leave every value unchanged; a deliberate change to the numerics must
re-record the goldens (``python tests/model/test_open_golden.py``) and
say why.  This is the open-model twin of ``test_engine_golden.py``.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.model.open_solver import OpenWorkload, solve_open_batch
from repro.model.parameters import paper_sites
from repro.model.workload import lb8, mb4
from repro.planner.search import REFINE_POINTS

GOLDEN_PATH = Path(__file__).with_name("open_golden.json")

#: Per-user arrival rates (transactions/s): 26 half-octave steps.
LADDER = 1e-3 * 2.0 ** np.arange(0.0, 13.0, 0.5)

#: Rungs 30-37 of the eighth-octave ladder ``1e-3 * 2**(k/8)``: MB4
#: n=24 converges on the first four, runs out of budget on the next
#: two and saturates on the last two.
EDGE = 1e-3 * 2.0 ** (np.arange(30, 38) / 8)

#: MB4 n=8's response target in the ``plan-slo`` benchmark (ms).
TARGET_MS = 13_900.0


def _per_user(template):
    """Open workload with one arrival/s per closed-mix user."""
    return OpenWorkload(template=template, arrivals_per_s={
        site: {base: float(count) for base, count in bases.items()
               if count > 0}
        for site, bases in template.users.items()})


def _refinement_grid(sites):
    """The arrival search's first refinement grid for MB4 n=8: 16 rates
    between the last doubling rung that meets the target and the
    first that misses it."""
    doublings = 1e-3 * 2.0 ** np.arange(25)
    ladder = solve_open_batch(_per_user(mb4(8)), sites, doublings)
    top = int(np.argmin(ladder.meets_target(TARGET_MS)))
    lo, hi = doublings[top - 1], doublings[top]
    return lo + (hi - lo) * np.arange(1, REFINE_POINTS + 1) \
        / (REFINE_POINTS + 1)


CASES = {
    "mb4-n8-ladder": lambda s: solve_open_batch(
        _per_user(mb4(8)), s, LADDER),
    "lb8-n8-ladder": lambda s: solve_open_batch(
        _per_user(lb8(8)), s, LADDER),
    "mb4-n24-edge": lambda s: solve_open_batch(
        _per_user(mb4(24)), s, EDGE),
    "mb4-n8-targeted": lambda s: solve_open_batch(
        _per_user(mb4(8)), s, _refinement_grid(s),
        response_target_ms=TARGET_MS),
}


def _hex(values):
    return [float(value).hex() for value in np.ravel(values)]


def fingerprint(batch):
    """Exact row-wise measures and outcomes of one open batch."""
    return {
        "response_ms": [_hex(row) for row in batch.response_ms],
        "blocking": [_hex(row) for row in batch.blocking],
        "abort_probability": [_hex(row)
                              for row in batch.abort_probability],
        "n_submissions": [_hex(row) for row in batch.n_submissions],
        "mean_response_ms": _hex(batch.mean_response_ms),
        "iterations": [int(n) for n in batch.iterations],
        "errors": [type(error).__name__ if error is not None else None
                   for error in batch.errors],
    }


def record(sites):
    """Every golden value, as stored in ``open_golden.json``."""
    return {name: fingerprint(build(sites)) for name, build in CASES.items()}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("case", sorted(CASES))
def test_open_batch_output_is_exact(sites, golden, case):
    assert fingerprint(CASES[case](sites)) == golden[case]


def test_ladders_cover_every_outcome(golden):
    """The goldens pin a converged, saturated, non-converged and
    retired row, so a moved outcome of any kind fails them."""
    outcomes = {error for case in golden.values()
                for error in case["errors"]}
    assert outcomes == {None, "ConfigurationError", "ConvergenceError",
                        "RetiredRowError"}
    assert 300 in golden["mb4-n24-edge"]["iterations"]


if __name__ == "__main__":
    GOLDEN_PATH.write_text(
        json.dumps(record(paper_sites()), indent=1, sort_keys=True) + "\n")
