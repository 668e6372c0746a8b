"""Capacity-plan inputs and results.

The planner's vocabulary: a :class:`PlanSpec` asks capacity questions
about one workload mix ("how many users can this testbed carry?"),
and a :class:`PlanResult` answers them — the throughput-optimal MPL,
the thrashing knee, saturation windows from operational bounds,
SLO verdicts and the bottleneck/what-if tables.

All dataclasses here are frozen and picklable: the what-if engine
ships candidates to worker processes, and the result cache hashes
specs into content digests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.errors import ConfigurationError
from repro.model.workload import WorkloadSpec

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.scenarios.spec import ScenarioSpec

__all__ = ["SloSpec", "PlanSpec", "MplPoint", "SaturationWindow",
           "OptimumResult", "SloVerdict", "BottleneckEntry",
           "WhatIfCandidate", "WhatIfOutcome", "PlanResult"]


@dataclass(frozen=True)
class SloSpec:
    """Service-level objectives to check against the plan.

    ``response_ms`` bounds the mean user commit-cycle response time;
    ``abort_probability`` bounds the mean per-execution abort
    probability.  Either may be ``None`` (not requested).
    """

    response_ms: float | None = None
    abort_probability: float | None = None

    def __post_init__(self) -> None:
        if self.response_ms is not None and self.response_ms <= 0:
            raise ConfigurationError("SLO response time must be > 0 ms")
        if self.abort_probability is not None and not (
                0.0 < self.abort_probability < 1.0):
            raise ConfigurationError(
                "SLO abort probability must lie in (0, 1)")

    @property
    def is_empty(self) -> bool:
        return self.response_ms is None and self.abort_probability is None


@dataclass(frozen=True)
class WhatIfCandidate:
    """One hardware/configuration variation to evaluate.

    ``kind`` selects the transformation applied to every site:

    * ``"cpu_speed"`` — CPU ``factor``× faster (every per-phase and
      protocol CPU cost divided by ``factor``);
    * ``"disk_speed"`` — disks ``factor``× faster
      (:meth:`~repro.model.parameters.SiteParameters.with_block_io`);
    * ``"granules"`` — database granule count scaled by ``factor``
      (halves/doubles lock conflict probability);
    * ``"log_split"`` — commit log moved to a dedicated disk
      (``factor`` ignored).
    """

    kind: str
    factor: float = 1.0

    _KINDS = ("cpu_speed", "disk_speed", "granules", "log_split")

    def __post_init__(self) -> None:
        if self.kind not in self._KINDS:
            raise ConfigurationError(
                f"unknown what-if kind {self.kind!r}; "
                f"expected one of {self._KINDS}")
        if self.kind != "log_split" and self.factor <= 0:
            raise ConfigurationError(
                f"what-if factor must be positive, got {self.factor}")

    @property
    def label(self) -> str:
        if self.kind == "log_split":
            return "log on separate disk"
        noun = {"cpu_speed": "CPU", "disk_speed": "disk",
                "granules": "granules"}[self.kind]
        return f"{noun} x{self.factor:g}"


@dataclass(frozen=True)
class PlanSpec:
    """One capacity-planning question.

    ``workload`` fixes the *mix* (relative populations per site and
    type); the planner scales it to different multiprogramming levels.
    ``mpl_max`` caps the per-site MPL searched.  Solver knobs are part
    of the spec so cached evaluations are keyed by them.
    """

    workload: WorkloadSpec
    mpl_max: int = 24
    slo: SloSpec = field(default_factory=SloSpec)
    whatif: tuple[WhatIfCandidate, ...] = ()
    mva: str = "exact"
    tolerance: float = 1e-4
    max_iterations: int = 600

    def __post_init__(self) -> None:
        if self.mpl_max < 1:
            raise ConfigurationError("mpl_max must be >= 1")

    @classmethod
    def for_scenario(cls, scenario: ScenarioSpec,
                     n: int | None = None,
                     **kwargs: Any) -> PlanSpec:
        """Plan a scenario's compiled mix.

        The scenario lowers through
        :func:`repro.scenarios.compile.compile_workload` (lazy import;
        the planner stays importable without the scenarios package)
        and the remaining :class:`PlanSpec` fields pass through.
        """
        from repro.scenarios.compile import compile_workload
        return cls(workload=compile_workload(scenario, n=n), **kwargs)

    @property
    def model_kwargs(self) -> dict:
        """Solver kwargs for each evaluation (non-raising: a point
        that fails to converge is reported, not fatal)."""
        return {"mva": self.mva, "tolerance": self.tolerance,
                "max_iterations": self.max_iterations,
                "raise_on_nonconvergence": False}


@dataclass(frozen=True)
class MplPoint:
    """Converged measures of the mix at one multiprogramming level.

    ``mpl`` is the *per-site* user population; ``site_populations``
    are the site-network customer counts (users plus slave-chain
    customers from remote sites).
    """

    mpl: int
    site_populations: dict[str, int]
    throughput_per_s: float
    response_ms: float
    abort_probability: float
    converged: bool

    def to_dict(self) -> dict:
        return {"mpl": self.mpl,
                "site_populations": dict(self.site_populations),
                "throughput_per_s": self.throughput_per_s,
                "response_ms": self.response_ms,
                "abort_probability": self.abort_probability,
                "converged": self.converged}


@dataclass(frozen=True)
class SaturationWindow:
    """Operational-bounds sandwich of one site's saturation point.

    Computed on the *converged* site network (lock, remote and commit
    waits folded in as delay demands), in site-network customers:
    ``lower`` is the asymptotic-bounds crossing ``N* = (D+Z)/D_max``,
    ``upper`` the balanced-job upper-bound crossing.  ``binding``
    names the asymptotic bound active at the evaluated population.
    """

    site: str
    population: int
    lower: float
    upper: float
    binding: str  #: "bottleneck" (1/D_max) or "population" (N/(D+Z))

    def to_dict(self) -> dict:
        return {"site": self.site, "population": self.population,
                "lower": self.lower, "upper": self.upper,
                "binding": self.binding}


@dataclass(frozen=True)
class OptimumResult:
    """Outcome of the optimal-MPL search."""

    point: MplPoint
    grid: tuple[int, ...]
    windows: tuple[SaturationWindow, ...]
    #: Thrashing knee: smallest evaluated MPL past the optimum whose
    #: throughput fell >5% below the peak (``None`` if the curve never
    #: dropped within the searched grid).
    knee_mpl: int | None
    evaluations: int
    solves: int
    cache_hits: int
    total_iterations: int
    #: Result-cache misses (fresh solves that had to compute despite
    #: ``use_cache``); 0 when the search ran uncached.  Defaulted so
    #: positional construction predating the field keeps working.
    cache_misses: int = 0

    def to_dict(self) -> dict:
        return {"point": self.point.to_dict(),
                "grid": list(self.grid),
                "windows": [w.to_dict() for w in self.windows],
                "knee_mpl": self.knee_mpl,
                "evaluations": self.evaluations,
                "solves": self.solves,
                "cache_hits": self.cache_hits,
                "cache_misses": self.cache_misses,
                "total_iterations": self.total_iterations}


@dataclass(frozen=True)
class SloVerdict:
    """Answer to one SLO question.

    ``max_mpl`` is the largest grid MPL meeting the target (``None``
    when even the smallest searched MPL misses it);
    ``max_arrival_per_s`` is the open-model capacity — the highest
    total user arrival rate sustaining the target (response SLOs
    only).
    """

    kind: str  #: "response_ms" or "abort_probability"
    target: float
    max_mpl: int | None
    value_at_max: float | None
    met_at_optimum: bool
    max_arrival_per_s: float | None = None

    def to_dict(self) -> dict:
        return {"kind": self.kind, "target": self.target,
                "max_mpl": self.max_mpl,
                "value_at_max": self.value_at_max,
                "met_at_optimum": self.met_at_optimum,
                "max_arrival_per_s": self.max_arrival_per_s}


@dataclass(frozen=True)
class BottleneckEntry:
    """One service center's contribution at one site.

    ``residence_share`` is the throughput-weighted share of the user
    commit-cycle response spent at the center; ``utilization`` is set
    for the physical centers (cpu/disk/logdisk) and ``None`` for the
    synchronization delay centers (lw/rw/cw).
    """

    site: str
    center: str
    residence_share: float
    utilization: float | None = None

    def to_dict(self) -> dict:
        return {"site": self.site, "center": self.center,
                "residence_share": self.residence_share,
                "utilization": self.utilization}


@dataclass(frozen=True)
class WhatIfOutcome:
    """Effect of one candidate at the baseline-optimal MPL."""

    candidate: WhatIfCandidate
    throughput_per_s: float
    response_ms: float
    speedup: float  #: throughput ratio vs. the baseline optimum
    bottleneck: str  #: top residence-share center after the change

    def to_dict(self) -> dict:
        return {"candidate": {"kind": self.candidate.kind,
                              "factor": self.candidate.factor,
                              "label": self.candidate.label},
                "throughput_per_s": self.throughput_per_s,
                "response_ms": self.response_ms,
                "speedup": self.speedup,
                "bottleneck": self.bottleneck}


@dataclass(frozen=True)
class PlanResult:
    """Full answer to a :class:`PlanSpec`."""

    workload: str
    requests_per_txn: int
    quantum: int
    optimum: OptimumResult
    slo: tuple[SloVerdict, ...]
    bottlenecks: tuple[BottleneckEntry, ...]
    whatif: tuple[WhatIfOutcome, ...]

    def to_dict(self) -> dict:
        return {"workload": self.workload,
                "requests_per_txn": self.requests_per_txn,
                "quantum": self.quantum,
                "optimum": self.optimum.to_dict(),
                "slo": [v.to_dict() for v in self.slo],
                "bottlenecks": [b.to_dict() for b in self.bottlenecks],
                "whatif": [w.to_dict() for w in self.whatif]}
