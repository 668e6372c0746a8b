"""The package imports only the stdlib, itself and its declared
dependencies, and its statistics run without scipy or networkx."""

import ast
import os
import re
import subprocess
import sys
import tomllib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
#: distribution name -> import name, where the two differ
IMPORT_NAMES = {"pyyaml": "yaml"}


def _declared_imports():
    project = tomllib.loads(
        (ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    names = (re.match(r"[A-Za-z0-9_.-]+", dep).group(0).lower()
             for dep in project["dependencies"])
    return {IMPORT_NAMES.get(name, name) for name in names}


def _third_party_imports():
    """Top-level package of every absolute import anywhere in
    ``src/repro`` (function-local imports included) that is neither
    stdlib nor ``repro`` itself, mapped to the files importing it."""
    found: dict[str, set[str]] = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            for module in modules:
                top = module.split(".")[0]
                if top != "repro" and top not in sys.stdlib_module_names:
                    found.setdefault(top, set()).add(
                        str(path.relative_to(SRC)))
    return found


def test_every_import_is_a_declared_dependency():
    undeclared = {name: files
                  for name, files in _third_party_imports().items()
                  if name not in _declared_imports()}
    assert undeclared == {}


def test_every_declared_dependency_is_imported():
    assert _declared_imports() <= set(_third_party_imports())


BLOCKED_RUN = """
import sys

class Blocked:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] in ("scipy", "networkx"):
            raise ImportError(name + " is blocked")
        return None

sys.meta_path.insert(0, Blocked())

from repro.model.calibration import calibrate_protocol
from repro.testbed.batchmeans import batch_means
from repro.testbed.locks import LockMode
from repro.testbed.replication import _estimate
from repro.testbed.serializability import (
    AccessRecord, CommittedTransaction, check_serializable)

X = LockMode.EXCLUSIVE
history = [
    CommittedTransaction("t1", 2.0, (AccessRecord("A", 1, X, 1.0),)),
    CommittedTransaction("t2", 4.0, (AccessRecord("A", 1, X, 3.0),)),
]
print(check_serializable(history).serial_order)
print(batch_means([float(i % 7) for i in range(100)]).batches)
print(_estimate([1.0, 2.0, 3.0], 0.95).replications)
print(calibrate_protocol(max_evaluations=3).iterations)
"""


def test_statistics_run_with_scipy_and_networkx_blocked():
    result = subprocess.run(
        [sys.executable, "-c", BLOCKED_RUN], capture_output=True,
        text=True, env=dict(os.environ, PYTHONPATH=str(SRC)), check=True)
    assert result.stdout.split("\n")[:4] == [
        "('t1', 't2')", "10", "3", "3"]
