"""Performance acceptance benchmarks for the perf subsystem.

These measure the *harness*, not the simulated machine: that the
parallel engine actually buys wall-clock on a multi-core host.  That
is wall-clock sensitive, so it carries the ``perf`` marker and is
excluded from the tier-1 suite (``testpaths`` covers ``tests/``
only); run them explicitly with::

    PYTHONPATH=src python -m pytest benchmarks/perf -m perf

Functional determinism (parallel == serial, cache hits skip
simulation) is covered by the fast tier-1 tests in ``tests/perf/``.
"""

from __future__ import annotations

import os

import pytest

from repro.perf.bench import bench_specs, run_grid

pytestmark = pytest.mark.perf


def test_parallel_grid_speedup_with_four_workers():
    """Bench grid, 4 workers: >= 2x over serial, identical rows."""
    if (os.cpu_count() or 1) < 4:
        pytest.skip("needs >= 4 CPUs to demonstrate parallel speedup")
    specs = bench_specs()
    serial, _ = run_grid(specs, workers=0)
    parallel, _ = run_grid(specs, workers=4)
    assert [c["digest"] for c in parallel["cells"]] == \
        [c["digest"] for c in serial["cells"]], (
        "parallel grid diverged from the serial reference"
    )
    speedup = serial["wall_seconds"] / parallel["wall_seconds"]
    assert speedup >= 2.0, f"4-worker speedup {speedup:.2f}x < 2x"
