"""Simulator results must not depend on the interpreter's string
hashing (``PYTHONHASHSEED``)."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

#: An MB8 run with global deadlocks, whose probe chase once followed
#: ``set`` iteration order.
COMMAND = ["-m", "repro", "simulate", "--workload", "MB8", "-n", "20",
           "--seed", "3", "--duration-s", "60", "--warmup-s", "0"]


def _env(hash_seed):
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONHASHSEED=hash_seed,
                PYTHONPATH=f"{SRC}{os.pathsep}{path}" if path else str(SRC))


def test_simulate_output_is_independent_of_hash_seed():
    procs = [subprocess.Popen([sys.executable, *COMMAND], env=_env(seed),
                              stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True)
             for seed in ("0", "1")]
    outputs = []
    for proc in procs:
        out, err = proc.communicate(timeout=300)
        assert proc.returncode == 0, err
        outputs.append(out)
    assert outputs[0] == outputs[1]
