"""Self-tests of the end-to-end benchmark harness.

    PYTHONPATH=src python -m pytest benchmarks/e2e

The smoke runs issue the first one or two requests of each workload,
one pass each, so the whole file takes well under a minute and a half.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import compare
import run
import worker

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=170)


def _metric_lines(stdout: str) -> dict[tuple[str, str], tuple[str, str]]:
    lines = {}
    for line in stdout.splitlines():
        if line.startswith("METRIC "):
            _, workload, name, value, unit = line.split()
            lines[(workload, name)] = (value, unit)
    return lines


def _smoke(tmp_path_factory, trace: str):
    out = tmp_path_factory.mktemp(f"smoke-trace{trace}")
    proc = _run("--smoke", "--seed", "3", "--seconds", "0",
                "--trace", trace, "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, out


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    return _smoke(tmp_path_factory, "0")


@pytest.fixture(scope="module")
def smoke_traced(tmp_path_factory):
    return _smoke(tmp_path_factory, "1")


def _check_declared(stdout: str, declared: list[dict]) -> None:
    lines = _metric_lines(stdout)
    for workload in WORKLOADS:
        for metric in declared:
            value, unit = lines[(workload, metric["name"])]
            assert unit == metric["unit"]
            float(value)
    assert all(NAME.fullmatch(name) for _, name in lines)
    result = json.loads(stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= len(WORKLOADS)
    assert {key.split(".", 1)[1] for key in result["metrics"]} \
        == {m["name"] for m in declared}


def test_every_end_to_end_metric_is_printed_with_its_unit(smoke):
    stdout, _ = smoke
    _check_declared(stdout, BENCH["end_to_end"])
    lines = _metric_lines(stdout)
    assert all(lines[(w, "failed_frac")][0] == "0.0" for w in WORKLOADS)


def test_p90_is_omitted_below_100_samples(smoke):
    stdout, _ = smoke
    assert not any(name == "request_s_p90"
                   for _, name in _metric_lines(stdout))

    def metrics(samples):
        return run.e2e_metrics([[0.1] * samples], 0, [1.0], 100.0, {}, 100)

    assert "request_s_p90" not in metrics(99)
    assert metrics(100)["request_s_p90"] == pytest.approx(0.1)


def test_an_injected_failing_request_raises_failed_frac():
    def boom():
        raise RuntimeError("injected")

    requests = [
        SimpleNamespace(label="ok", call=lambda: 1, check=lambda out: None),
        SimpleNamespace(label="raises", call=boom, check=lambda out: None),
        SimpleNamespace(label="wrong", call=lambda: 2,
                        check=lambda out: f"bad output {out}"),
    ]
    result = worker.run_pass(requests)
    assert [index for index, _ in result.errors] == [1, 2]
    assert len(result.latencies) == 3
    metrics = run.e2e_metrics([result.latencies], len(result.errors),
                              [1.0], 100.0, {}, 100)
    assert metrics["failed_frac"] == pytest.approx(2 / 3)


def test_trace_emits_every_per_layer_metric(smoke_traced):
    stdout, out = smoke_traced
    _check_declared(stdout, BENCH["per_layer"])
    for workload in WORKLOADS:
        assert list(out.glob(f"{workload}-seed3-trace-*-chrome.json"))
        assert list(out.glob(f"{workload}-seed3-trace-*-selftime.txt"))


def test_a_directory_without_the_program_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "plan-slo",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert not proc.stdout.strip()


@pytest.mark.parametrize("a, b, kind, bound, expected", [
    ([1.0, 1.01, 0.99], [1.3, 1.31, 1.29], "share", 0.1, "worse"),
    ([1.0, 1.01, 0.99], [0.8, 0.82, 0.81], "share", 0.1, "better"),
    ([1.0, 1.01, 0.99], [1.02, 1.0, 1.01], "share", 0.1, "unchanged"),
    ([1.0, 1.5, 0.6, 1.2], [1.1, 0.5, 1.4, 1.0], "share", 0.1,
     "unresolved"),
    ([0.0, 0.0, 0.0], [0.0, 0.1, 0.0], "abs", 0.0, "unchanged"),
    ([0.0, 0.0, 0.0], [0.1, 0.1, 0.0], "abs", 0.0, "worse"),
])
def test_compare_verdicts(a, b, kind, bound, expected):
    assert compare.verdict(a, b, "lower", bound, kind)[0] == expected


def test_compare_flags_exact_counter_mismatches():
    def record(events, trace=True):
        return {"workload": "paper-sweep", "seed": 1, "trace": trace,
                "metrics": {"testbed.des_events": events}}

    exact = ["testbed.des_events"]
    same = compare.counter_mismatches([record(10)], [record(10)], exact)
    moved = compare.counter_mismatches([record(10)], [record(11)], exact)
    assert same == []
    assert moved[0]["counter"] == "testbed.des_events"
