"""Import cost: the CLI and workload generation load no numpy.

numpy costs a fresh interpreter a noticeable share of its start-up,
and nothing in the simulator needs it.  The check runs in a child
interpreter so modules the test session already imported cannot
mask a stray import.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import repro

_CHILD = """
import sys

import repro.cli
from repro.workloads import cholesky

cholesky().generate(seed=1, scale=0.001, threads=4)
print("numpy" in sys.modules)
"""


def test_cli_import_and_generation_leave_numpy_unloaded():
    src = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-c", _CHILD], env=env, check=True,
        capture_output=True, text=True, timeout=120,
    ).stdout.strip()
    assert out == "False", "numpy was imported"
