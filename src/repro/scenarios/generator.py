"""Seeded stochastic scenario families (docs/scenarios.md).

A :class:`ScenarioFamily` is a parameterized distribution over
scenarios — "MB4-like with the mix jittered ±20% and Zipf s in
[0, 1.2]" — from which :func:`sample_family` draws reproducible
scenario matrices.  Every random draw routes through an explicitly
seeded :class:`numpy.random.Generator` derived per ``(family, seed,
index)`` via :class:`numpy.random.SeedSequence` (caratlint CL001), so

* the same seed always yields byte-identical specs and digests, and
* sample *i* is independent of every other sample — fanning the
  sampler out over worker processes (``--jobs``) cannot change the
  result.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, replace

import numpy as np

from repro.errors import ConfigurationError
from repro.obs import metrics as obs
from repro.scenarios.spec import (BASE_ORDER, ScenarioSpec,
                                  SizeDistribution, builtin_scenario)

__all__ = ["ScenarioFamily", "standard_families", "family",
           "family_rng", "sample_one", "sample_family"]


@dataclass(frozen=True)
class ScenarioFamily:
    """A distribution over scenarios around a base spec.

    Every range is optional; an unset knob keeps the base value.

    Parameters
    ----------
    name:
        Family identifier (salts the sample RNG streams).
    base:
        The :class:`ScenarioSpec` the samples vary around.
    mix_jitter:
        Relative jitter applied to every positive mix weight:
        ``w * (1 + U(-jitter, +jitter))``, clamped at 0.
    zipf_range:
        ``(lo, hi)`` — Zipf exponent drawn uniformly.
    mpl_range:
        ``(lo, hi)`` — per-site user population drawn uniformly
        (integer, inclusive), replacing the base MPLs.
    mpl_imbalance:
        Relative tilt between sites: site ``k`` of ``K`` gets its
        drawn population scaled by ``1 + tilt * (1 - 2k/(K-1))``
        with ``tilt ~ U(-imbalance, +imbalance)`` — unbalanced
        two-node scenarios tilt A up while B tilts down.
    size_kinds:
        Candidate size-distribution kinds (``"fixed"``,
        ``"uniform"``, ``"geometric"``); one is drawn per sample,
        parameterized around the base law's mean.
    remote_fraction_range:
        ``(lo, hi)`` — distributed requests' remote share drawn
        uniformly.
    description:
        Shown by ``repro scenario list``.
    """

    name: str
    base: ScenarioSpec
    description: str = ""
    mix_jitter: float = 0.0
    zipf_range: tuple[float, float] | None = None
    mpl_range: tuple[int, int] | None = None
    mpl_imbalance: float = 0.0
    size_kinds: tuple[str, ...] = ()
    remote_fraction_range: tuple[float, float] | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("family needs a name")
        if not 0.0 <= self.mix_jitter < 1.0:
            raise ConfigurationError("mix_jitter must lie in [0, 1)")
        if not 0.0 <= self.mpl_imbalance < 1.0:
            raise ConfigurationError(
                "mpl_imbalance must lie in [0, 1)")
        for label, bounds in (("zipf_range", self.zipf_range),
                              ("remote_fraction_range",
                               self.remote_fraction_range)):
            if bounds is not None and not bounds[0] <= bounds[1]:
                raise ConfigurationError(
                    f"{label} needs lo <= hi, got {bounds}")
        if self.mpl_range is not None:
            lo, hi = self.mpl_range
            if not 1 <= lo <= hi:
                raise ConfigurationError(
                    f"mpl_range needs 1 <= lo <= hi, got "
                    f"{self.mpl_range}")
        for kind in self.size_kinds:
            if kind not in SizeDistribution._KINDS:
                raise ConfigurationError(
                    f"unknown size kind {kind!r} in family "
                    f"{self.name!r}")


def family_rng(fam: ScenarioFamily, seed: int,
               index: int) -> np.random.Generator:
    """The explicit per-sample RNG stream.

    Spawned from ``SeedSequence((crc32(name), seed, index))`` so each
    sample owns an independent stream: parallel and sequential
    sampling draw identical scenarios.
    """
    salt = zlib.crc32(fam.name.encode("utf-8"))
    return np.random.default_rng(
        np.random.SeedSequence((salt, seed, index)))


def sample_one(fam: ScenarioFamily, seed: int,
               index: int) -> ScenarioSpec:
    """Draw sample *index* of the family under *seed*.

    Pure function of ``(family, seed, index)`` — module-level and
    picklable so :func:`sample_family` can fan it out over worker
    processes.
    """
    rng = family_rng(fam, seed, index)
    base = fam.base
    mix = dict(base.mix)
    if fam.mix_jitter > 0.0:
        jittered = {}
        for base_type in BASE_ORDER:
            weight = mix.get(base_type.value, 0.0)
            if weight > 0.0:
                factor = 1.0 + fam.mix_jitter * float(
                    rng.uniform(-1.0, 1.0))
                jittered[base_type.value] = round(
                    max(0.0, weight * factor), 6)
        if any(w > 0.0 for w in jittered.values()):
            mix = jittered
    zipf_s = base.zipf_s
    if fam.zipf_range is not None:
        lo, hi = fam.zipf_range
        zipf_s = round(float(rng.uniform(lo, hi)), 4)
    mpl = dict(base.mpl)
    if fam.mpl_range is not None:
        lo, hi = fam.mpl_range
        drawn = int(rng.integers(lo, hi + 1))
        mpl = {site: drawn for site in sorted(base.mpl)}
    if fam.mpl_imbalance > 0.0:
        tilt = fam.mpl_imbalance * float(rng.uniform(-1.0, 1.0))
        sites = sorted(mpl)
        span = max(1, len(sites) - 1)
        mpl = {site: max(1, int(round(
                   mpl[site] * (1.0 + tilt * (1.0 - 2.0 * k / span)))))
               for k, site in enumerate(sites)}
    size = base.size
    if fam.size_kinds:
        kind = fam.size_kinds[int(rng.integers(len(fam.size_kinds)))]
        mean = max(2, base.size.mean_requests())
        if kind == "uniform":
            size = SizeDistribution(kind="uniform",
                                    low=max(2, mean // 2),
                                    high=mean + mean // 2)
        else:
            size = SizeDistribution(kind=kind, value=float(mean))
    remote_fraction = base.remote_fraction
    if fam.remote_fraction_range is not None:
        lo, hi = fam.remote_fraction_range
        remote_fraction = round(float(rng.uniform(lo, hi)), 3)
    return replace(
        base,
        name=f"{fam.name}-s{seed}-i{index:03d}",
        description=(f"sampled from family {fam.name} "
                     f"(seed={seed}, index={index})"),
        mix=mix,
        mpl=mpl,
        size=size,
        zipf_s=zipf_s,
        hot_access_fraction=0.0 if fam.zipf_range is not None
        else base.hot_access_fraction,
        hot_data_fraction=0.0 if fam.zipf_range is not None
        else base.hot_data_fraction,
        remote_fraction=remote_fraction,
    )


def sample_family(fam: ScenarioFamily, seed: int, count: int,
                  jobs: int | None = 1) -> list[ScenarioSpec]:
    """Draw *count* scenarios; order and content depend only on
    ``(family, seed)`` — never on *jobs*."""
    if count < 1:
        raise ConfigurationError("count must be >= 1")
    from repro.experiments.parallel import map_calls
    samples = map_calls(_sample_item,
                        [(fam, seed, i) for i in range(count)], jobs=jobs)
    obs.add("scenario.sampled", float(count))
    return samples


def _sample_item(item: tuple[ScenarioFamily, int, int]) -> ScenarioSpec:
    """Unpack shim for the positional-argument process invoker."""
    fam, seed, index = item
    return sample_one(fam, seed, index)


# ---------------------------------------------------------------------------
# committed families
# ---------------------------------------------------------------------------


def standard_families() -> dict[str, ScenarioFamily]:
    """The committed scenario families, by name.

    Built lazily (the bases load from the committed YAML specs); the
    CI scenario smoke job samples ``mb4-jitter`` with a fixed seed.
    """
    mb4 = builtin_scenario("MB4")
    mb8 = builtin_scenario("MB8")
    ub6 = builtin_scenario("UB6")
    families = (
        ScenarioFamily(
            name="mb4-jitter",
            base=replace(mb4, sweep=(4, 8)),
            description=("MB4-like: mix jittered +/-20%, Zipf s in "
                         "[0, 0.8] (inside the lock model's validity "
                         "envelope; the residual gate's family)"),
            mix_jitter=0.2,
            zipf_range=(0.0, 0.8),
        ),
        ScenarioFamily(
            name="skew-heavy",
            base=replace(mb8, sweep=(4, 8)),
            description=("hot-contention probe: mix jittered "
                         "+/-50%, Zipf s in [0.6, 1.2], MPL 4..16, "
                         "mixed size laws"),
            mix_jitter=0.5,
            zipf_range=(0.6, 1.2),
            mpl_range=(4, 16),
            size_kinds=("fixed", "uniform", "geometric"),
        ),
        ScenarioFamily(
            name="ub-imbalanced",
            base=replace(ub6, sweep=(4, 8)),
            description=("unbalanced sites: UB6-like mix jittered "
                         "+/-30%, MPL 4..12 tilted up to +/-50% "
                         "between nodes, remote share 0.25..0.75"),
            mix_jitter=0.3,
            mpl_range=(4, 12),
            mpl_imbalance=0.5,
            remote_fraction_range=(0.25, 0.75),
        ),
    )
    return {fam.name: fam for fam in families}


def family(name: str) -> ScenarioFamily:
    """Look up a committed family by name."""
    families = standard_families()
    if name not in families:
        raise ConfigurationError(
            f"unknown scenario family {name!r}; expected one of "
            f"{sorted(families)}")
    return families[name]
