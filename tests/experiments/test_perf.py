"""Tests for the perf-baseline suite and regression gate
(:mod:`repro.experiments.perf`)."""

import importlib.util
import json
from dataclasses import asdict
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.experiments import cache as cache_mod
from repro.experiments import perf as perf_mod
from repro.experiments.perf import (BENCH_SCHEMA, BenchRecord,
                                    compare_records, load_records,
                                    run_des_bench, run_kernel_bench,
                                    run_open_bench, run_outer_bench,
                                    run_suite, write_records)

REPO_ROOT = Path(__file__).resolve().parents[2]
BASELINES = REPO_ROOT / "benchmarks" / "baselines"


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("CARAT_CACHE_DIR", str(tmp_path / "cache"))
    cache_mod.clear_memory()
    yield
    cache_mod.clear_memory()


def _make(layer, name, defaults, overrides):
    """A record whose dicts are *defaults* updated key by key with
    *overrides* (``counters={"model_iterations": 200}`` changes one
    counter and keeps the others)."""
    return BenchRecord(layer=layer, name=name, **{
        kind: {**defaults.get(kind, {}), **overrides.get(kind, {})}
        for kind in ("counters", "wall_ms", "speedup", "detail")})


def _record(name="fig5", **overrides):
    return _make("sweep", name, {
        "counters": {"model_iterations": 100, "mva_inner_iterations": 500,
                     "cache_misses": 1},
        "wall_ms": {"cold": 1_000.0, "warm": 2.0},
        "detail": {"points": 10, "iterations_by_n": {"4": 40, "8": 60},
                   "cache_hits": 1},
    }, overrides)


def _kernel_record(**overrides):
    return _make("kernel", "kernels", {
        "wall_ms": {"single_exact": 0.5, "single_approx": 1.5,
                    "batch_per_solve": 0.125},
        "speedup": {"batch": 12.0},
        "detail": {"batch_size": 64, "batch_us": 8_000.0},
    }, overrides)


def _outer_record(**overrides):
    return _make("outer", "outer", {
        "wall_ms": {"batch": 150.0},
        "speedup": {"batch": 3.3},
        "detail": {"sweep": "tab3", "batch_points": 5, "scalar_ms": 500.0},
    }, overrides)


def _des_record(**overrides):
    return _make("des", "des", {
        "counters": {"des_events": 60_000, "commits": 110},
        "wall_ms": {"run": 300.0},
        "detail": {"events_per_s": 200_000.0, "sweep": "tab3", "n": 8,
                   "seed": 7},
    }, overrides)


def _open_record(**overrides):
    return _make("open", "open", {
        "counters": {"open_calls": 7, "open_iterations": 3_000},
        "wall_ms": {"run": 600.0},
        "detail": {"mix": "MB4", "n": 8, "target_ms": 13_900.0,
                   "open_points": 121, "max_arrival_per_s": 11.0},
    }, overrides)


def _gate(current, baseline, **kwargs):
    """:func:`compare_records` on a single benchmark."""
    return compare_records({current.name: current},
                           {baseline.name: baseline}, **kwargs)


def _write_legacy(directory, name, schema):
    """A file in one of the per-layer layouts that preceded schema 2."""
    (directory / f"BENCH_{name}.json").write_text(
        json.dumps({"schema": schema, "name": name}))


class TestBenchRecord:
    def test_round_trip(self):
        record = _record()
        clone = BenchRecord.from_dict(asdict(record))
        assert clone == record
        assert clone.schema == BENCH_SCHEMA == 2

    def test_from_dict_ignores_unknown_keys(self):
        data = asdict(_record())
        data["added_in_a_future_schema"] = 42
        assert BenchRecord.from_dict(data) == _record()


class TestWriteLoad:
    def test_round_trip(self, tmp_path):
        records = [_record("fig5"), _record("tab3")]
        paths = write_records(records, tmp_path)
        assert [p.name for p in paths] == ["BENCH_fig5.json",
                                          "BENCH_tab3.json"]
        loaded = load_records(tmp_path)
        assert loaded == {"fig5": records[0], "tab3": records[1]}

    def test_wrong_schema_skipped(self, tmp_path):
        data = asdict(_record())
        data["schema"] = BENCH_SCHEMA + 1
        (tmp_path / "BENCH_fig5.json").write_text(json.dumps(data))
        assert load_records(tmp_path) == {}

    def test_missing_directory_is_empty(self, tmp_path):
        assert load_records(tmp_path / "nope") == {}

    def test_pytest_record_loads_next_to_sweep_record(self, tmp_path,
                                                      monkeypatch):
        """The pytest-benchmark emitter (``CARAT_BENCH_EMIT``) writes
        the same record, so one directory holding both kinds loads."""
        spec = importlib.util.spec_from_file_location(
            "bench_conftest", REPO_ROOT / "benchmarks" / "conftest.py")
        conftest = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(conftest)
        stats = SimpleNamespace(min=0.5, mean=0.6, stddev=0.05, rounds=3)
        bench = SimpleNamespace(name="test_bench_table3_mb8", group="tab3",
                                stats=stats, extra_info={"points": 10})
        session = SimpleNamespace(config=SimpleNamespace(
            _benchmarksession=SimpleNamespace(benchmarks=[bench])))
        monkeypatch.setenv("CARAT_BENCH_EMIT", str(tmp_path))
        conftest.pytest_sessionfinish(session, 0)
        write_records([_record("tab3")], tmp_path)

        records = load_records(tmp_path)
        assert set(records) == {"tab3", "test_bench_table3_mb8"}
        emitted = records["test_bench_table3_mb8"]
        assert emitted.layer == "pytest"
        assert emitted.wall_ms == pytest.approx({"min": 500.0,
                                                 "mean": 600.0})
        assert emitted.detail["rounds"] == 3
        assert emitted.detail["extra_info"] == {"points": 10}


class TestCompare:
    def test_within_tolerance_passes(self):
        current = _record(counters={"model_iterations": 110},
                          wall_ms={"cold": 1_100.0})
        assert _gate(current, _record()) == []

    def test_counter_regression_detected(self):
        problems = _gate(_record(counters={"model_iterations": 200}),
                         _record())
        assert problems == ["fig5: counters.model_iterations regressed "
                            "200 vs baseline 100 (+100%)"]

    def test_time_noise_floor_absorbs_jitter(self):
        """A 48 ms warm blip is scheduler noise, not a regression."""
        assert _gate(_record(wall_ms={"warm": 50.0}), _record(),
                     time_tolerance=0.01) == []

    def test_large_time_regression_detected(self):
        problems = _gate(_record(wall_ms={"cold": 2_000.0}), _record())
        assert any("wall_ms.cold" in p for p in problems)

    def test_time_tolerance_separate_from_counters(self):
        current = _record(counters={"model_iterations": 200},
                          wall_ms={"cold": 2_000.0})
        problems = _gate(current, _record(), time_tolerance=1.5)
        assert len(problems) == 1
        assert "counters.model_iterations" in problems[0]

    def test_speedup_gate_ignores_time_tolerance(self):
        """Speedups are ratios within one run: CI's loose time
        tolerance must not switch their gate off."""
        problems = _gate(_kernel_record(speedup={"batch": 0.7 * 12.0}),
                         _kernel_record(), time_tolerance=1.0)
        assert problems == ["kernels: speedup.batch regressed 8.4 vs "
                            "baseline 12 (-30%)"]

    def test_missing_benchmark_is_regression(self):
        problems = compare_records({}, {"fig5": _record()})
        assert problems == ["fig5: benchmark missing from this run"]

    def test_missing_metric_is_regression(self):
        base = _record(counters={"added_counter": 5})
        assert _gate(_record(), base) == [
            "fig5: counters.added_counter missing from this run"]

    def test_hit_rate_regression(self):
        """Lookups per run are fixed, so a lost cache hit is one more
        miss (the old hit-rate check, 0.5 -> 0.0)."""
        problems = _gate(_record(counters={"cache_misses": 2}), _record())
        assert any("counters.cache_misses" in p for p in problems)

    def test_new_benchmark_ignored(self):
        base = {"fig5": _record()}
        current = {"fig5": _record(counters={"added_counter": 1}),
                   "extra": _record("extra")}
        assert compare_records(current, base) == []


class TestRunSuite:
    def test_fig5_record_populated(self, tmp_path):
        records = run_suite(("fig5",), cache_dir=tmp_path, repeats=1)
        assert len(records) == 1
        record = records[0]
        assert (record.layer, record.name) == ("sweep", "fig5")
        assert record.detail["points"] > 0
        assert record.counters["model_iterations"] > 0
        assert record.wall_ms["cold"] > 0.0
        assert record.wall_ms["warm"] > 0.0
        # Cold pass misses, warm pass hits: one of each per repetition.
        assert record.counters["cache_misses"] == 1
        assert record.detail["cache_hits"] == 1
        assert sum(record.detail["iterations_by_n"].values()) == \
            record.counters["model_iterations"]


class TestKernelBench:
    def test_record_round_trip(self):
        record = _kernel_record()
        assert BenchRecord.from_dict(asdict(record)) == record

    def test_run_kernel_bench_populated(self):
        record = run_kernel_bench(batch=4, repeats=1)
        assert (record.layer, record.name) == ("kernel", "kernels")
        assert record.detail["batch_size"] == 4
        assert set(record.wall_ms) == {"single_exact", "single_approx",
                                       "batch_per_solve", "large_exact"}
        assert min(record.wall_ms.values()) > 0.0
        assert record.wall_ms["batch_per_solve"] == \
            pytest.approx(record.detail["batch_us"] / 4 / 1e3)
        assert record.speedup["batch"] > 0.0

    def test_write_load_round_trip(self, tmp_path):
        record = _kernel_record()
        [path] = write_records([record], tmp_path)
        assert path.name == "BENCH_kernels.json"
        assert load_records(tmp_path) == {"kernels": record}

    def test_load_ignores_wrong_schema(self, tmp_path):
        _write_legacy(tmp_path, "kernels", "kernel-1")
        assert load_records(tmp_path) == {}

    def test_suite_loader_skips_kernel_record(self, tmp_path):
        """A leftover ``kernel-1`` file next to current records is
        skipped; the rest load."""
        _write_legacy(tmp_path, "kernels", "kernel-1")
        write_records([_record()], tmp_path)
        assert set(load_records(tmp_path)) == {"fig5"}

    def test_compare_within_tolerance_passes(self):
        current = _kernel_record(wall_ms={"batch_per_solve": 0.14},
                                 speedup={"batch": 11.0})
        assert _gate(current, _kernel_record()) == []

    def test_compare_flags_slow_per_solve(self):
        problems = _gate(_kernel_record(wall_ms={"batch_per_solve": 2.0}),
                         _kernel_record())
        assert any("wall_ms.batch_per_solve" in p for p in problems)

    def test_compare_flags_lost_speedup(self):
        problems = _gate(_kernel_record(speedup={"batch": 2.0}),
                         _kernel_record())
        assert any("speedup.batch" in p for p in problems)

    def test_noise_floor_absorbs_microsecond_jitter(self):
        base = _kernel_record(wall_ms={"single_exact": 0.05})
        current = _kernel_record(wall_ms={"single_exact": 0.12})
        assert _gate(current, base, time_tolerance=0.01) == []


class TestOuterBench:
    def test_record_round_trip(self):
        record = _outer_record()
        assert BenchRecord.from_dict(asdict(record)) == record

    def test_run_outer_bench_populated(self):
        record = run_outer_bench(sweep="fig5", repeats=1)
        assert (record.layer, record.name) == ("outer", "outer")
        assert record.detail["sweep"] == "fig5"
        assert record.detail["batch_points"] == 5
        assert record.detail["scalar_ms"] > 0.0
        assert record.wall_ms["batch"] > 0.0
        assert record.speedup["batch"] == pytest.approx(
            record.detail["scalar_ms"] / record.wall_ms["batch"])
        # Its iteration count is the sweep record's model_iterations.
        assert record.counters == {}

    def test_write_load_round_trip(self, tmp_path):
        record = _outer_record()
        [path] = write_records([record], tmp_path)
        assert path.name == "BENCH_outer.json"
        assert load_records(tmp_path) == {"outer": record}

    def test_load_ignores_wrong_schema(self, tmp_path):
        _write_legacy(tmp_path, "outer", "outer-1")
        assert load_records(tmp_path) == {}

    def test_suite_loader_skips_outer_record(self, tmp_path):
        """A leftover ``outer-1`` file next to current records is
        skipped; the rest load."""
        _write_legacy(tmp_path, "outer", "outer-1")
        write_records([_record()], tmp_path)
        assert set(load_records(tmp_path)) == {"fig5"}

    def test_compare_within_tolerance_passes(self):
        current = _outer_record(wall_ms={"batch": 160.0},
                                speedup={"batch": 3.0})
        assert _gate(current, _outer_record()) == []

    def test_compare_flags_lost_speedup(self):
        problems = _gate(_outer_record(speedup={"batch": 1.2}),
                         _outer_record())
        assert any("speedup.batch" in p for p in problems)

    def test_noise_floor_absorbs_small_blip(self):
        base = _outer_record(wall_ms={"batch": 50.0})
        current = _outer_record(wall_ms={"batch": 120.0})
        assert _gate(current, base, time_tolerance=0.01) == []


class TestDesBench:
    def test_run_des_bench_populated(self):
        record = run_des_bench(n=2, repeats=1)
        assert (record.layer, record.name) == ("des", "des")
        assert (record.detail["sweep"], record.detail["n"]) == ("tab3", 2)
        assert record.counters["des_events"] > 0
        assert record.counters["commits"] > 0
        assert record.detail["events_per_s"] == pytest.approx(
            record.counters["des_events"] / (record.wall_ms["run"] / 1e3))

    def test_counters_are_exact(self):
        """A seeded simulation processes the same events every run,
        so the strict counter gate cannot trip on noise."""
        first = run_des_bench(n=2, repeats=1)
        assert run_des_bench(n=2, repeats=1).counters == first.counters

    def test_compare_flags_extra_events(self):
        problems = _gate(_des_record(counters={"des_events": 90_000}),
                         _des_record())
        assert problems == ["des: counters.des_events regressed 90000 "
                            "vs baseline 60000 (+50%)"]

    def test_noise_floor_absorbs_small_blip(self):
        current = _des_record(wall_ms={"run": 390.0})
        assert _gate(current, _des_record(), time_tolerance=0.01) == []


class TestOpenBench:
    @pytest.fixture(scope="class")
    def record(self):
        return run_open_bench(repeats=1)

    def test_run_open_bench_populated(self, record):
        assert (record.layer, record.name) == ("open", "open")
        assert (record.detail["mix"], record.detail["n"]) == ("MB4", 8)
        assert record.counters["open_calls"] == 7
        assert record.counters["open_iterations"] > 0
        assert record.detail["open_points"] >= record.counters["open_calls"]
        assert record.detail["max_arrival_per_s"] > 0.0
        assert record.wall_ms["run"] > 0.0

    def test_counters_are_exact(self, record):
        """The search probes the same rates every run, so the strict
        counter gate cannot trip on noise."""
        assert run_open_bench(repeats=1).counters == record.counters

    def test_compare_flags_extra_calls(self):
        problems = _gate(_open_record(counters={"open_calls": 32}),
                         _open_record())
        assert problems == ["open: counters.open_calls regressed 32 "
                            "vs baseline 7 (+357%)"]

    def test_noise_floor_absorbs_small_blip(self):
        current = _open_record(wall_ms={"run": 690.0})
        assert _gate(current, _open_record(), time_tolerance=0.01) == []


class TestMain:
    @pytest.fixture
    def canned_suite(self, monkeypatch):
        monkeypatch.setattr(perf_mod, "run_suite",
                            lambda *a, **kw: [_record()])
        monkeypatch.setattr(perf_mod, "run_kernel_bench",
                            lambda *a, **kw: _kernel_record())
        monkeypatch.setattr(perf_mod, "run_outer_bench",
                            lambda *a, **kw: _outer_record())
        monkeypatch.setattr(perf_mod, "run_des_bench",
                            lambda *a, **kw: _des_record())
        monkeypatch.setattr(perf_mod, "run_open_bench",
                            lambda *a, **kw: _open_record())

    @pytest.fixture
    def check_with(self, tmp_path, monkeypatch, capsys, canned_suite):
        """Commit the canned run as the baseline; the returned function
        reruns ``--check`` with one runner swapped to return *result*
        and gives (exit code, stdout)."""
        baseline_dir = str(tmp_path / "baselines")
        assert perf_mod.main(["--update-baseline",
                              "--baseline-dir", baseline_dir]) == 0

        def check(runner, result):
            monkeypatch.setattr(perf_mod, runner, lambda *a, **kw: result)
            capsys.readouterr()
            code = perf_mod.main(["--check", "--baseline-dir", baseline_dir])
            return code, capsys.readouterr().out
        return check

    def test_update_then_check_passes(self, tmp_path, canned_suite,
                                      capsys):
        baseline_dir = str(tmp_path / "baselines")
        assert perf_mod.main(["--update-baseline",
                              "--baseline-dir", baseline_dir]) == 0
        assert perf_mod.main(["--check",
                              "--baseline-dir", baseline_dir]) == 0
        assert "perf gate passed (5 baselines" in capsys.readouterr().out

    def test_check_without_baseline_fails(self, tmp_path, canned_suite):
        assert perf_mod.main(["--check", "--baseline-dir",
                              str(tmp_path / "none")]) == 1

    def test_output_dir_writes_records(self, tmp_path, canned_suite):
        out = tmp_path / "out"
        assert perf_mod.main(["--output-dir", str(out)]) == 0
        assert (out / "BENCH_fig5.json").is_file()
        assert (out / "BENCH_kernels.json").is_file()
        assert (out / "BENCH_outer.json").is_file()
        assert (out / "BENCH_des.json").is_file()
        assert (out / "BENCH_open.json").is_file()

    def test_counter_regression_fails_check(self, check_with):
        code, out = check_with(
            "run_suite", [_record(counters={"model_iterations": 200})])
        assert code == 1
        assert "REGRESSION fig5: counters.model_iterations" in out

    def test_kernel_regression_fails_check(self, check_with):
        code, out = check_with("run_kernel_bench",
                               _kernel_record(speedup={"batch": 1.0}))
        assert code == 1
        assert "REGRESSION kernels: speedup.batch" in out

    def test_outer_regression_fails_check(self, check_with):
        code, out = check_with("run_outer_bench",
                               _outer_record(speedup={"batch": 1.0}))
        assert code == 1
        assert "REGRESSION outer: speedup.batch" in out

    def test_des_regression_fails_check(self, check_with):
        code, out = check_with("run_des_bench",
                               _des_record(counters={"commits": 200}))
        assert code == 1
        assert "REGRESSION des: counters.commits" in out

    def test_open_regression_fails_check(self, check_with):
        code, out = check_with("run_open_bench",
                               _open_record(counters={"open_calls": 32}))
        assert code == 1
        assert "REGRESSION open: counters.open_calls" in out

    def test_committed_baseline_matches_schema(self):
        """The baseline shipped in-repo loads under the current schema
        and covers every benchmark a run produces."""
        baseline = load_records(BASELINES)
        assert set(baseline) == {*perf_mod.SUITE, "kernels", "outer",
                                 "des", "open"}
        for name in perf_mod.SUITE:
            assert baseline[name].counters["model_iterations"] > 0

    def test_committed_kernel_baseline_loads(self):
        """The committed kernel baseline documents the batched speedup
        the kernels were landed for."""
        assert load_records(BASELINES)["kernels"].speedup["batch"] >= 10.0

    def test_committed_outer_baseline_loads(self):
        """The committed outer baseline documents the >=3x
        batched-sweep speedup of the tensorized outer loop."""
        assert load_records(BASELINES)["outer"].speedup["batch"] >= 3.0

    def test_committed_des_baseline_loads(self):
        """The committed DES baseline pins the seeded run's exact
        event and commit counts."""
        des = load_records(BASELINES)["des"]
        assert des.counters == {"des_events": 63247, "commits": 113}
        assert des.wall_ms["run"] > 0.0

    def test_committed_open_baseline_loads(self):
        """The committed open baseline pins the SLO search at seven
        batched solver calls."""
        record = load_records(BASELINES)["open"]
        assert record.counters["open_calls"] == 7
        assert record.wall_ms["run"] > 0.0
