"""Performance engine: parallel grid execution, result caching, and
benchmarking.

The paper's evaluation grid is embarrassingly parallel — every cell
(workload, variant, seed) runs on a fresh simulated machine — so this
package fans cells out over worker processes and caches finished
cells on disk keyed by the full cell content (spec, configs, seed,
scale).  See ``docs/performance.md``.

* :mod:`repro.perf.cache` — content-hashed on-disk result cache
  (corrupt entries quarantined, never fatal);
* :mod:`repro.perf.runner` — :class:`ParallelRunner`, the grid engine;
* :mod:`repro.perf.supervise` — the supervision layer: per-cell
  timeouts, retries with backoff, failure policies, pool rebuilding,
  :class:`RunReport` failure records, and the SIGINT/SIGTERM handler
  that unwinds an interrupted campaign (``docs/robustness.md``,
  "Surviving the host");
* :mod:`repro.perf.bench` — the ``repro bench`` harness that writes
  ``BENCH_perf.json`` (the grid and the memory-stack benchmark).
"""

from repro.perf.cache import ResultCache, cell_key
from repro.perf.runner import CellSpec, ParallelRunner, grid_specs
from repro.perf.supervise import (
    CellFailure,
    RunReport,
    SupervisorConfig,
    flush_on_signals,
)

__all__ = [
    "CellFailure",
    "CellSpec",
    "ParallelRunner",
    "ResultCache",
    "RunReport",
    "SupervisorConfig",
    "cell_key",
    "flush_on_signals",
    "grid_specs",
]
