"""Content-addressed on-disk cache for experiment sweep results.

A full sweep (model + simulator per ``n``) is expensive, and several
artifacts render different metrics of the *same* sweep (Figures 5–7 are
one LB8 sweep; Figures 8–10 and Table 5 one MB4 sweep).  The cache key
is a SHA-256 digest of everything that determines the result:

* the concrete :class:`~repro.model.workload.WorkloadSpec` of every
  sweep point (not the factory name — two workloads that differ in any
  field hash differently),
* the per-site :class:`~repro.model.parameters.SiteParameters`
  including protocol constants (so e.g. the log-disk ablation's shared
  vs. split-disk configurations never share an entry),
* the simulation window and seed, the model kwargs, and whether the
  simulator ran at all,
* the sites of interest (they select which points exist), and
* a cache schema version, bumped whenever the solver or simulator
  changes semantics.

Every entry is one picklable payload stored as ``<digest>.pkl`` under
the cache directory (``$CARAT_CACHE_DIR``, else
``$XDG_CACHE_HOME/carat-qnm``, else ``~/.cache/carat-qnm``), fronted
by a process-wide in-memory layer.  A sweep is the
:class:`~repro.experiments.runner.SweepPoint` tuple under its
:func:`run_digest`; the planner and the scenario runner store their
own payloads under :func:`payload_digest` keys.  Deleting the
directory (or any file in it) is always safe.
"""

from __future__ import annotations

import contextlib
import dataclasses
import enum
import hashlib
import json
import os
import pickle
import tempfile
from pathlib import Path

from repro.model.parameters import SiteParameters, paper_sites
from repro.obs import metrics as obs
from repro.experiments.runner import ExperimentResult, ExperimentSpec

__all__ = ["CACHE_VERSION", "CacheStats", "ResultCache",
           "default_cache_dir", "run_digest", "payload_digest",
           "fetch_or_run_many", "clear_memory"]

#: Bump to invalidate every existing entry after a semantic change to
#: the solver, simulator, or the SweepPoint layout.
#: 2: SweepPoint grew ``model_trace``; digests hash the trace flag.
#: 3: WorkloadSpec grew ``zipf_s`` and payloads may carry scenario
#:    schema versions — pre-scenario entries must never alias.
CACHE_VERSION = 3

#: Process-wide memory layer, shared by every :class:`ResultCache`
#: instance (keys are content digests, so the directory is irrelevant).
_MEMORY: dict[str, object] = {}


def clear_memory() -> None:
    """Drop the in-memory layer (tests; disk entries are untouched)."""
    _MEMORY.clear()


@dataclasses.dataclass
class CacheStats:
    """Hit/miss counters for one batch of cached experiment runs."""

    hits: int = 0
    misses: int = 0


def default_cache_dir() -> Path:
    """Cache directory honoring ``CARAT_CACHE_DIR`` / XDG conventions."""
    override = os.environ.get("CARAT_CACHE_DIR")
    if override:
        return Path(override)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "carat-qnm"


def _canonical(obj):
    """JSON-serializable canonical form of model/workload structures."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {"__type__": type(obj).__name__,
                **{f.name: _canonical(getattr(obj, f.name))
                   for f in dataclasses.fields(obj)}}
    if isinstance(obj, enum.Enum):
        return f"{type(obj).__name__}.{obj.name}"
    if isinstance(obj, dict):
        return sorted(
            ([_canonical(k), _canonical(v)] for k, v in obj.items()),
            key=repr)
    if isinstance(obj, (list, tuple)):
        return [_canonical(item) for item in obj]
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    raise TypeError(f"cannot canonicalize {type(obj).__name__} for "
                    f"the result cache key")


def run_digest(
    spec: ExperimentSpec,
    sites: dict[str, SiteParameters],
    sim_seed: int,
    sim_warmup_ms: float,
    sim_duration_ms: float,
    run_simulation: bool,
    model_kwargs: dict | None,
    warm_start: bool,
    trace: bool = False,
) -> str:
    """Content digest of one experiment run's inputs."""
    token = {
        "version": CACHE_VERSION,
        "workloads": [spec.workload_factory(n) for n in spec.sweep],
        "sweep": list(spec.sweep),
        "sites_of_interest": list(spec.sites_of_interest),
        "sites": sites,
        "sim_seed": sim_seed,
        "sim_warmup_ms": sim_warmup_ms,
        "sim_duration_ms": sim_duration_ms,
        "run_simulation": run_simulation,
        "model_kwargs": model_kwargs or {},
        "warm_start": warm_start,
        # Traced and untraced runs converge to the same numbers but
        # store different payloads (model_trace), so they must not
        # share an entry.
        "trace": trace,
    }
    text = json.dumps(_canonical(token), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def payload_digest(kind: str, token, schema: int | None = None) -> str:
    """Content digest for an arbitrary cached payload.

    *kind* namespaces the digest (e.g. ``"plan-eval"``) so unrelated
    payloads can never collide even if their tokens coincide; *token*
    must canonicalize via :func:`_canonical` (dataclasses, enums,
    dicts, sequences, scalars).  *schema* carries an optional
    payload-layout version (the scenario subsystem passes its
    ``SCENARIO_SCHEMA``) hashed into the digest, so evolving a
    payload's shape retires its old entries without a global
    ``CACHE_VERSION`` bump.
    """
    body = {"version": CACHE_VERSION, "kind": kind,
            "schema": schema, "token": _canonical(token)}
    text = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class ResultCache:
    """Digest-addressed store of picklable payloads (memory + disk).

    Sweeps store their point tuples under :func:`run_digest` keys; the
    capacity planner and the scenario runner store their own payloads
    under :func:`payload_digest` keys.
    """

    def __init__(self, root: str | os.PathLike | None = None):
        self.root = Path(root) if root is not None \
            else default_cache_dir()

    def path(self, digest: str) -> Path:
        return self.root / f"{digest}.pkl"

    def get(self, digest: str):
        """Payload for *digest*, or ``None`` on a miss (a corrupt,
        unreadable or other-version disk entry counts as a miss)."""
        if digest in _MEMORY:
            return _MEMORY[digest]
        try:
            with open(self.path(digest), "rb") as handle:
                entry = pickle.load(handle)
        except (OSError, pickle.UnpicklingError, EOFError,
                AttributeError, ImportError, IndexError, ValueError):
            return None
        if (not isinstance(entry, dict)
                or entry.get("version") != CACHE_VERSION
                or "payload" not in entry):
            return None
        payload = entry["payload"]
        _MEMORY[digest] = payload
        return payload

    def put(self, digest: str, payload) -> None:
        """Store *payload* in memory and (best-effort) on disk."""
        _MEMORY[digest] = payload
        entry = {"version": CACHE_VERSION, "payload": payload}
        # A read-only or full cache directory must never fail the
        # run; the memory layer still serves this process.
        with contextlib.suppress(OSError):
            self.root.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as handle:
                    pickle.dump(entry, handle,
                                protocol=pickle.HIGHEST_PROTOCOL)
                os.replace(tmp, self.path(digest))
            except BaseException:
                os.unlink(tmp)
                raise


def fetch_or_run_many(
    specs: list[ExperimentSpec],
    sites: dict[str, SiteParameters] | None = None,
    sim_seed: int = 7,
    sim_warmup_ms: float = 60_000.0,
    sim_duration_ms: float = 600_000.0,
    run_simulation: bool = True,
    model_kwargs: dict | None = None,
    warm_start: bool = False,
    trace: bool = False,
    jobs: int | None = 1,
    use_cache: bool = True,
    cache: ResultCache | None = None,
    stats: CacheStats | None = None,
) -> list[ExperimentResult]:
    """Cached experiment runs: serve hits from the content-addressed
    cache and fan the misses out in one parallel batch.

    ``model_kwargs`` are normalized (the runner's ``max_iterations``
    default applied) before hashing, so the CLI and the benchmarks
    address the same entries.  Pass a :class:`CacheStats` as *stats*
    to observe the batch's hit/miss counts (perf gate, benchmarks).
    """
    from repro.experiments.parallel import run_experiments

    sites = sites or paper_sites()
    model_kwargs = dict(model_kwargs or {})
    model_kwargs.setdefault("max_iterations", 1000)
    cache = cache or ResultCache()
    stats = stats if stats is not None else CacheStats()
    hits_before, misses_before = stats.hits, stats.misses
    digests = [
        run_digest(spec, sites, sim_seed, sim_warmup_ms,
                   sim_duration_ms, run_simulation, model_kwargs,
                   warm_start, trace=trace)
        for spec in specs
    ]
    results: dict[int, ExperimentResult] = {}
    if use_cache:
        for i, (spec, digest) in enumerate(zip(specs, digests)):
            points = cache.get(digest)
            if points is not None:
                stats.hits += 1
                results[i] = ExperimentResult(spec=spec, points=points)
    stats.misses += len(specs) - len(results)
    # Deduplicate misses by digest: specs that render different metrics
    # of the same sweep (fig5/6/7) compute it once and share the points.
    missing: dict[str, int] = {}
    for i in range(len(specs)):
        if i not in results and digests[i] not in missing:
            missing[digests[i]] = i
    if missing:
        fresh = run_experiments(
            [specs[i] for i in missing.values()], sites=sites,
            jobs=jobs, sim_seed=sim_seed, sim_warmup_ms=sim_warmup_ms,
            sim_duration_ms=sim_duration_ms,
            run_simulation=run_simulation, model_kwargs=model_kwargs,
            warm_start=warm_start, trace=trace)
        computed = dict(zip(missing, fresh))
        for i in range(len(specs)):
            if i in results:
                continue
            result = computed[digests[i]]
            if use_cache:
                cache.put(digests[i], result.points)
            results[i] = ExperimentResult(spec=specs[i],
                                          points=result.points)
    _emit_cache_metrics(stats.hits - hits_before,
                        stats.misses - misses_before)
    return [results[i] for i in range(len(specs))]


def _emit_cache_metrics(hits: int, misses: int) -> None:
    """Publish one batch's hit/miss deltas to the obs registry.

    The hit-rate gauge is cumulative over the registry's lifetime
    (recomputed from the merged counters), so a run of several batches
    reports its overall rate, not the last batch's.  No-op detached.
    """
    registry = obs.active()
    if registry is None:
        return
    registry.add("cache.hits", float(hits))
    registry.add("cache.misses", float(misses))
    total_hits = registry.counters.get("cache.hits", 0.0)
    requests = total_hits + registry.counters.get("cache.misses", 0.0)
    registry.set_gauge("cache.hit_rate",
                       total_hits / requests if requests else 0.0)
