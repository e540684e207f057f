"""Shared benchmark infrastructure.

Each benchmark regenerates one table or figure of the paper.  The
simulated runs are expensive, so:

* every workload runs at its Figure 5 grid scale
  (:data:`~repro.analysis.experiments.GRID_SCALES`, a fraction of the
  paper's Table 5 transaction count), recorded in the output — so
  every Figure 1, Figure 5 and Table 6 cell is also a ``repro bench``
  grid cell and can be served from the bench's result cache;
* (workload, variant) cells are cached per session so Figure 5 and
  Table 6 share TokenTM runs;
* cells execute through a shared
  :class:`~repro.perf.runner.ParallelRunner`: set
  ``REPRO_BENCH_WORKERS=N`` to simulate on N processes and
  ``REPRO_CACHE_DIR`` to persist cells across sessions (both off by
  default, so plain runs measure serial simulation);
* tables print through ``capsys.disabled()`` so they appear in the
  captured benchmark log.
"""

from __future__ import annotations

import os
from typing import Dict, Optional, Tuple

import pytest

from repro.analysis.experiments import GRID_SCALES
from repro.perf.cache import ENV_CACHE_DIR, ResultCache
from repro.perf.runner import CellSpec, ParallelRunner
from repro.workloads import tm_workloads

#: Seed used by every benchmark run (perturbed where CIs are needed).
BENCH_SEED = 2008  # the paper's year

@pytest.fixture(scope="session")
def cell_cache() -> Dict[Tuple[str, str, int], object]:
    """Session-wide cache of simulated grid cells."""
    return {}


@pytest.fixture(scope="session")
def workloads():
    return tm_workloads()


_RUNNER: Optional[ParallelRunner] = None


def _bench_runner() -> ParallelRunner:
    """Session-shared cell runner, built lazily from the environment."""
    global _RUNNER
    if _RUNNER is None:
        workers = int(os.environ.get("REPRO_BENCH_WORKERS", "0"))
        cache = ResultCache() if os.environ.get(ENV_CACHE_DIR) else None
        _RUNNER = ParallelRunner(workers=workers, cache=cache)
    return _RUNNER


def cached_cell(cache, workloads, name: str, variant: str,
                seed: int = BENCH_SEED):
    """Run (or fetch) one grid cell at the benchmark scale."""
    key = (name, variant, seed)
    if key not in cache:
        spec = CellSpec(workloads[name].spec, variant, seed=seed,
                        scale=GRID_SCALES[name])
        cache[key] = _bench_runner().run_cells([spec])[0]
    return cache[key]


def emit(capsys, text: str) -> None:
    """Print a reproduced table so it lands in the benchmark log."""
    with capsys.disabled():
        print()
        print(text)
