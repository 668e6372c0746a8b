"""Opt-in convergence instrumentation for the fixed-point solver.

The model is solved by damped successive substitution over coupled
sub-models (lock contention, remote waits, 2PC, optionally the TM
serialization surrogate) layered over per-site MVA solves.  The
converged :class:`~repro.model.results.ModelSolution` tells you *what*
the fixed point is; this module tells you *how* the iteration got
there — or why it did not.

Design mirrors the testbed's :class:`~repro.testbed.tracing.Tracer`:
a bounded ring buffer that callers attach explicitly, and hooks that
are no-ops (no allocation, no timing calls) when nothing is attached::

    trace = ConvergenceTrace()
    model = CaratModel(config, diagnostics=trace)
    solution = model.solve()
    print(trace.to_json())          # iteration-by-iteration report
    print(trace.summary())          # converged? who stalled? how fast?

Per outer iteration a :class:`IterationRecord` captures

* the solver's own convergence criterion (max relative throughput
  change) and its per-chain breakdown (so a stalled solve can be
  attributed to one ``site/chain``),
* the max absolute step of every damped iterate field
  (``locks_held``, ``pb``, ``pd``, ``r_lw``, ``pra``, ``abort_prob``,
  ``r_tms``),
* wall time per solver phase (demand rebuild, MVA solves, abort
  update, lock-model update, remote waits, TM serialization),
* MVA work: solve count, inner Schweitzer iterations, exact-MVA
  coefficient reads, and
* damping effectiveness: the ratio of successive residuals (a
  geometric convergence-rate estimate; ~1.0 means the damped update
  is not contracting) and the damping the iteration used (the solver
  backs it off when the residual stops shrinking).
"""

from __future__ import annotations

import json
import math
import time
from collections import deque
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from typing import Any

from repro.errors import ConfigurationError

__all__ = [
    "TRACKED_FIELDS",
    "PHASE_NAMES",
    "IterationRecord",
    "ConvergenceTrace",
    "trace_clock",
]


def trace_clock() -> Callable[[], float]:
    """The wall clock used for per-phase trace timings.

    Solver code must not read wall clocks directly (caratlint CL001:
    traced and untraced runs stay bit-identical in their *numerics*,
    so timing is quarantined here in the diagnostics layer).  Returns
    the monotonic high-resolution clock as a callable.
    """
    return time.perf_counter

#: Damped iterate fields whose per-iteration step the trace records.
TRACKED_FIELDS = (
    "locks_held",
    "pb",
    "pd",
    "r_lw",
    "pra",
    "abort_prob",
    "r_tms",
)

#: Solver phases timed per outer iteration (milliseconds of wall time).
PHASE_NAMES = ("demands", "mva", "absorb", "abort", "lock", "remote", "tms")

#: Residual ratios a diagnosis needs before it judges contraction: the
#: first ratios measure the opening transient, not the rate.
_MIN_RATIOS = 3

#: A shortfall estimate above this multiple of the iterations already
#: run reads as a stall, not as slow contraction.
_STALL_FACTOR = 10


@dataclass(frozen=True)
class IterationRecord:
    """Everything the solver observed during one outer iteration."""

    #: 1-based outer-iteration index.
    index: int
    #: The solver's convergence criterion: max relative throughput
    #: change across all chains (compared against ``tolerance``).
    residual: float
    #: Per-chain relative throughput change, keyed ``"site/chain"``.
    chain_residuals: dict[str, float]
    #: Max absolute step of each damped iterate field this iteration.
    field_residuals: dict[str, float]
    #: Wall time per solver phase (ms), keyed by :data:`PHASE_NAMES`.
    phase_ms: dict[str, float]
    #: Site networks solved by MVA this iteration.
    mva_solves: int
    #: Total Schweitzer inner iterations (0 when every site was exact).
    mva_inner_iterations: int
    #: Total coefficient reads of the exact kernel (0 when approximate;
    #: :func:`repro.queueing.kernels.exact_cost` per site network).
    mva_coefficients: int
    #: ``residual / previous residual``; ``None`` on the first
    #: iteration.  Values near (or above) 1.0 mean the damped update is
    #: not contracting.
    contraction: float | None = None
    #: Damping of this iteration's update; it falls below the config's
    #: starting damping where the solver backed off.
    damping: float | None = None

    @property
    def wall_ms(self) -> float:
        """Total wall time of the iteration (ms)."""
        return sum(self.phase_ms.values())

    def worst_chain(self) -> str | None:
        """The ``site/chain`` contributing the largest residual."""
        if not self.chain_residuals:
            return None
        return max(self.chain_residuals, key=lambda k: self.chain_residuals[k])

    def to_dict(self) -> dict[str, Any]:
        """JSON-serializable form of the record."""
        return {
            "index": self.index,
            "residual": self.residual,
            "chain_residuals": dict(self.chain_residuals),
            "field_residuals": dict(self.field_residuals),
            "phase_ms": dict(self.phase_ms),
            "wall_ms": self.wall_ms,
            "mva_solves": self.mva_solves,
            "mva_inner_iterations": self.mva_inner_iterations,
            "mva_coefficients": self.mva_coefficients,
            "contraction": self.contraction,
            "damping": self.damping,
        }


class ConvergenceTrace:
    """Bounded ring buffer of per-iteration solver records.

    Attach one to :class:`~repro.model.solver.CaratModel` via its
    ``diagnostics`` argument.  The solver populates it during
    :meth:`~repro.model.solver.CaratModel.solve` and stamps the final
    outcome via :meth:`finish`; a detached solver never touches the
    instrumented code paths at all.
    """

    def __init__(self, capacity: int = 2_000):
        if capacity < 1:
            raise ConfigurationError("trace capacity must be >= 1")
        self.capacity = capacity
        self._records: deque[IterationRecord] = deque(maxlen=capacity)
        self.recorded = 0
        self.dropped = 0
        # Solve-level context, stamped by the solver.
        self.workload_name: str | None = None
        self.requests_per_txn: int | None = None
        self.tolerance: float | None = None
        self.damping: float | None = None
        self.converged: bool | None = None
        self.iterations: int | None = None
        self.final_residual: float | None = None
        self.warm_started: bool = False

    # ------------------------------------------------------------------
    # recording (called by the solver)
    # ------------------------------------------------------------------

    def begin_solve(
        self,
        workload_name: str,
        requests_per_txn: int,
        tolerance: float,
        damping: float,
        warm_started: bool = False,
    ) -> None:
        """Reset the trace for a fresh solve and stamp its context."""
        self._records.clear()
        self.recorded = 0
        self.dropped = 0
        self.workload_name = workload_name
        self.requests_per_txn = requests_per_txn
        self.tolerance = tolerance
        self.damping = damping
        self.converged = None
        self.iterations = None
        self.final_residual = None
        self.warm_started = warm_started

    def append(self, record: IterationRecord) -> None:
        """Record one iteration (oldest records fall off when full)."""
        if len(self._records) == self.capacity:
            self.dropped += 1
        self.recorded += 1
        self._records.append(record)

    def finish(self, converged: bool, iterations: int, residual: float) -> None:
        """Stamp the solve outcome."""
        self.converged = converged
        self.iterations = iterations
        self.final_residual = residual

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[IterationRecord]:
        return iter(self._records)

    @property
    def records(self) -> tuple[IterationRecord, ...]:
        """The retained records, oldest first."""
        return tuple(self._records)

    @property
    def last(self) -> IterationRecord | None:
        """The most recent record, if any."""
        return self._records[-1] if self._records else None

    def stalled_chain(self) -> str | None:
        """The ``site/chain`` dominating the final residual."""
        return self.last.worst_chain() if self.last else None

    def _ratios(self, tail: int) -> list[float]:
        """Positive residual ratios of the last *tail* records."""
        return [
            r.contraction
            for r in list(self._records)[-tail:]
            if r.contraction is not None and r.contraction > 0.0
        ]

    def contraction_rate(self, tail: int = 10) -> float | None:
        """Geometric-mean residual ratio over the last *tail* records.

        Below 1.0 the damped substitution is contracting (smaller is
        faster); at or above 1.0 it is stalled or diverging.
        """
        ratios = self._ratios(tail)
        if not ratios:
            return None
        return math.prod(ratios) ** (1.0 / len(ratios))

    def phase_totals(self) -> dict[str, float]:
        """Total wall time per solver phase (ms) over retained records."""
        totals = {name: 0.0 for name in PHASE_NAMES}
        for record in self._records:
            for name, ms in record.phase_ms.items():
                totals[name] = totals.get(name, 0.0) + ms
        return totals

    def diagnosis(self) -> str:
        """One-line explanation of the solve's convergence behaviour."""
        if not self._records:
            return "no iterations recorded"
        if self.converged:
            return (
                f"converged in {self.iterations} iterations "
                f"(final residual {self.final_residual:.3g})"
            )
        stalled = self.stalled_chain()
        where = f"; slowest chain: {stalled}" if stalled else ""
        rate = self.contraction_rate()
        if rate is None or len(self._ratios(10)) < _MIN_RATIOS:
            return (
                f"stopped after {len(self._records)} iterations, too few "
                f"to judge contraction; more iterations needed{where}"
            )
        last = self.last
        if rate >= 1.0:
            backed = (f" even at damping {last.damping:.3g}"
                      if last and last.damping is not None else "")
            return (
                f"not contracting (residual ratio {rate:.3f} >= 1): the "
                f"damped update oscillates or diverges{backed} — lower "
                f"the starting damping{where}"
            )
        # Contracting but out of budget: estimate the shortfall.
        need = 0
        if self.tolerance and last and last.residual > 0:
            need = math.ceil(math.log(self.tolerance / last.residual) / math.log(rate))
        ran = self.iterations or len(self._records)
        if round(rate, 3) >= 1.0 or need > _STALL_FACTOR * ran:
            return (
                f"stalled (residual ratio {rate:.6g}): the residual is not "
                f"settling; ~{need} more iterations at that rate, over "
                f"{_STALL_FACTOR}x the {ran} already run{where}"
            )
        return (
            f"contracting slowly (residual ratio {rate:.3f}); "
            f"~{max(need, 1)} more iterations needed{where}"
        )

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------

    def summary(self) -> dict[str, Any]:
        """Solve-level outcome without the per-iteration detail."""
        last = self.last
        return {
            "workload": self.workload_name,
            "requests_per_txn": self.requests_per_txn,
            "converged": self.converged,
            "iterations": self.iterations,
            "final_residual": self.final_residual,
            "tolerance": self.tolerance,
            "damping": self.damping,
            "warm_started": self.warm_started,
            "contraction_rate": self.contraction_rate(),
            "stalled_chain": None if self.converged else self.stalled_chain(),
            "final_field_residuals": dict(last.field_residuals) if last else {},
            "phase_ms_total": self.phase_totals(),
            "mva_inner_iterations_total": sum(
                r.mva_inner_iterations for r in self._records
            ),
            "records_retained": len(self._records),
            "records_dropped": self.dropped,
            "diagnosis": self.diagnosis(),
        }

    def to_dict(self) -> dict[str, Any]:
        """Full JSON-serializable trace (summary + iteration records)."""
        return {
            "summary": self.summary(),
            "iterations": [r.to_dict() for r in self._records],
        }

    def to_json(self, indent: int | None = 2) -> str:
        """The full trace as a JSON document."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=False)
