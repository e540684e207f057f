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

from repro.perf.bench import bench_specs, compare_serial_parallel

pytestmark = pytest.mark.perf


def test_parallel_grid_speedup_with_four_workers():
    """Figure 5 grid, 4 workers: >= 2x over serial, identical stats."""
    if (os.cpu_count() or 1) < 4:
        pytest.skip("needs >= 4 CPUs to demonstrate parallel speedup")
    specs = bench_specs(quick=False)
    result = compare_serial_parallel(specs, workers=4)
    assert result["byte_identical"], (
        "parallel grid diverged from the serial reference"
    )
    assert result["speedup"] >= 2.0, (
        f"4-worker speedup {result['speedup']:.2f}x < 2x"
    )

