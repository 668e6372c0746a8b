"""Tests for the content-addressed result cache."""

import pytest

from repro.experiments import cache as cache_mod
from repro.experiments.cache import (ResultCache, default_cache_dir,
                                     fetch_or_run_many, run_digest)
from repro.experiments.runner import ExperimentSpec
from repro.model.parameters import paper_sites
from repro.model.workload import lb8, mb4


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("CARAT_CACHE_DIR", str(tmp_path / "cache"))
    cache_mod.clear_memory()
    yield
    cache_mod.clear_memory()


def _spec(factory=mb4, sweep=(4,), sites_of_interest=("A",)):
    return ExperimentSpec(exp_id="x", title="x",
                          workload_factory=factory, sweep=sweep,
                          sites_of_interest=sites_of_interest)


def _digest(spec, sites, **overrides):
    kwargs = dict(sim_seed=7, sim_warmup_ms=1_000.0,
                  sim_duration_ms=10_000.0, run_simulation=True,
                  model_kwargs=None, warm_start=False)
    kwargs.update(overrides)
    return run_digest(spec, sites, **kwargs)


class TestDigest:
    def test_deterministic(self, sites):
        assert _digest(_spec(), sites) == _digest(_spec(), sites)

    def test_workload_content_not_factory_identity(self, sites):
        """Two factories producing identical workloads hash alike."""
        assert (_digest(_spec(factory=mb4), sites)
                == _digest(_spec(factory=lambda n: mb4(n)), sites))
        assert (_digest(_spec(factory=mb4), sites)
                != _digest(_spec(factory=lb8), sites))

    def test_sensitive_to_every_input(self, sites):
        base = _digest(_spec(), sites)
        split = {name: site.with_overrides(log_on_separate_disk=True)
                 for name, site in paper_sites().items()}
        assert _digest(_spec(), split) != base
        assert _digest(_spec(), sites, sim_seed=8) != base
        assert _digest(_spec(), sites, sim_duration_ms=9_000.0) != base
        assert _digest(_spec(), sites, run_simulation=False) != base
        assert _digest(_spec(), sites,
                       model_kwargs={"damping": 0.4}) != base
        assert _digest(_spec(sweep=(4, 8)), sites) != base
        assert _digest(_spec(sites_of_interest=("A", "B")),
                       sites) != base

    def test_exp_id_and_title_do_not_matter(self, sites):
        a = ExperimentSpec(exp_id="a", title="a", workload_factory=mb4,
                           sweep=(4,), sites_of_interest=("A",))
        b = ExperimentSpec(exp_id="b", title="other",
                           workload_factory=mb4, sweep=(4,),
                           sites_of_interest=("A",))
        assert _digest(a, sites) == _digest(b, sites)


class TestResultCacheStore:
    def test_miss_returns_none(self):
        assert ResultCache().get("0" * 64) is None

    def test_corrupt_disk_entry_is_a_miss(self, sites):
        cache = ResultCache()
        results = fetch_or_run_many(
            [_spec()], sites, sim_warmup_ms=1_000.0,
            sim_duration_ms=10_000.0, run_simulation=False,
            cache=cache)
        digest = _digest(_spec(), sites, run_simulation=False,
                         model_kwargs={"max_iterations": 1000})
        assert cache.get(digest) is not None
        cache.path(digest).write_bytes(b"not a pickle")
        cache_mod.clear_memory()
        assert cache.get(digest) is None
        # And a rerun repopulates it with the same values.
        again = fetch_or_run_many(
            [_spec()], sites, sim_warmup_ms=1_000.0,
            sim_duration_ms=10_000.0, run_simulation=False,
            cache=cache)
        assert again[0].points == results[0].points

    def test_read_only_directory_does_not_fail_the_run(self, sites,
                                                       tmp_path):
        target = tmp_path / "missing" / "deeper"
        cache = ResultCache(target)
        target.parent.touch()     # mkdir under a file must fail
        results = fetch_or_run_many(
            [_spec()], sites, sim_warmup_ms=1_000.0,
            sim_duration_ms=10_000.0, run_simulation=False,
            cache=cache)
        assert results[0].points

    def test_default_dir_honors_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("CARAT_CACHE_DIR", str(tmp_path / "x"))
        assert default_cache_dir() == tmp_path / "x"

    def test_version_mismatch_is_a_miss(self, sites):
        """Another version's entry, or this version's entry in the
        pre-payload sweep layout ``{"version", "points"}``, reads as a
        miss and the next run rewrites it with equal points."""
        import pickle
        cache = ResultCache()
        kwargs = dict(sim_warmup_ms=1_000.0, sim_duration_ms=10_000.0,
                      run_simulation=False, cache=cache)
        points = fetch_or_run_many([_spec()], sites, **kwargs)[0].points
        digest = _digest(_spec(), sites, run_simulation=False,
                         model_kwargs={"max_iterations": 1000})
        stale_entries = [
            {"version": -1, "payload": points},
            {"version": cache_mod.CACHE_VERSION, "points": points},
        ]
        for stale in stale_entries:
            cache.path(digest).write_bytes(pickle.dumps(stale))
            cache_mod.clear_memory()
            assert cache.get(digest) is None
            again = fetch_or_run_many([_spec()], sites, **kwargs)
            assert again[0].points == points
            cache_mod.clear_memory()
            assert cache.get(digest) == points


class TestFetchOrRunMany:
    def test_batch_dedup_shares_points(self, sites):
        a = ExperimentSpec(exp_id="a", title="a", workload_factory=mb4,
                           sweep=(4,), sites_of_interest=("A",))
        b = ExperimentSpec(exp_id="b", title="b", workload_factory=mb4,
                           sweep=(4,), sites_of_interest=("A",))
        results = fetch_or_run_many(
            [a, b], sites, sim_warmup_ms=1_000.0,
            sim_duration_ms=10_000.0, run_simulation=False,
            use_cache=False)
        assert results[0].points is results[1].points
        assert results[0].spec is a and results[1].spec is b

    def test_use_cache_false_never_touches_disk(self, sites,
                                                tmp_path):
        fetch_or_run_many([_spec()], sites, sim_warmup_ms=1_000.0,
                          sim_duration_ms=10_000.0,
                          run_simulation=False, use_cache=False)
        assert not (tmp_path / "cache").exists()

    def test_normalized_model_kwargs_share_an_entry(self, sites):
        """The runner's max_iterations default is applied before
        hashing, so explicit-default and omitted kwargs hit the same
        entry."""
        cache = ResultCache()
        first = fetch_or_run_many(
            [_spec()], sites, sim_warmup_ms=1_000.0,
            sim_duration_ms=10_000.0, run_simulation=False,
            cache=cache)
        second = fetch_or_run_many(
            [_spec()], sites, sim_warmup_ms=1_000.0,
            sim_duration_ms=10_000.0, run_simulation=False,
            model_kwargs={"max_iterations": 1000}, cache=cache)
        assert first[0].points is second[0].points


class TestPayloadCache:
    def test_payload_digest_deterministic_and_namespaced(self, sites):
        token = {"workload": mb4(4), "sites": sites}
        assert (cache_mod.payload_digest("plan-eval", token)
                == cache_mod.payload_digest("plan-eval", token))
        assert (cache_mod.payload_digest("plan-eval", token)
                != cache_mod.payload_digest("other", token))
        assert (cache_mod.payload_digest("plan-eval", token)
                != cache_mod.payload_digest(
                    "plan-eval", {"workload": mb4(8), "sites": sites}))

    def test_roundtrip_through_disk(self):
        cache = ResultCache()
        digest = cache_mod.payload_digest("test", {"k": 1})
        assert cache.get(digest) is None
        cache.put(digest, {"value": [1, 2, 3]})
        cache_mod.clear_memory()
        assert ResultCache().get(digest) == {"value": [1, 2, 3]}

    # "garbage\n" starts with the 'g' pickle opcode, which raises
    # ValueError (not UnpicklingError) — both must read as misses.
    @pytest.mark.parametrize("junk", [b"not a pickle", b"garbage\n",
                                      b""])
    def test_corrupt_payload_is_a_miss(self, junk):
        cache = ResultCache()
        digest = cache_mod.payload_digest("test", {"k": 2})
        cache.put(digest, "fine")
        cache_mod.clear_memory()
        cache.path(digest).write_bytes(junk)
        assert cache.get(digest) is None
