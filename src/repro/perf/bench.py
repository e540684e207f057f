"""``repro bench``: the repo's performance benchmark harness.

Measures the wall-clock and simulated-ops/sec of every cell of an
evaluation grid (``grid``), run through the
:class:`~repro.perf.runner.ParallelRunner`, and writes them to
``BENCH_perf.json``.

Schema of ``BENCH_perf.json`` (``repro-bench-perf/12``, documented in
``docs/performance.md``):

``schema``        schema identifier string;
``config``        seed / workers / quick flag / cache dir /
                  per-workload scales / fixture traces;
``grid``          ``wall_seconds`` for the whole grid plus ``cells``,
                  each with workload, variant, seed, scale,
                  trace_ops, wall_seconds (null when the cache
                  answered), sim_ops_per_sec, makespan, commits,
                  aborts, ``digest`` (:func:`stats_digest` of the
                  cell's ``RunStats``), cache_hit;
``totals``        summed trace_ops / wall and aggregate ops/sec;
``parallel``      optional serial-vs-parallel wall comparison
                  (``--compare-serial``) with a ``byte_identical``
                  stats check;
``metrics``       the runner's metrics-registry snapshot (cache
                  hits/misses, cells simulated, workers).

Simulated-ops/sec counts *trace* operations retired per wall second;
aborted-and-retried work is not double-counted, so the number is a
throughput of useful simulation progress.
"""

from __future__ import annotations

import hashlib
import json
import platform
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.analysis.experiments import FIGURE5_VARIANTS, GRID_SCALES, Cell
from repro.common.errors import ConfigError, IncompleteGridError
from repro.htm import VARIANTS
from repro.perf.cache import ResultCache
from repro.perf.runner import CellSpec, ParallelRunner
from repro.perf.supervise import FAIL_FAST, SupervisorConfig
from repro.traces.workload import TraceWorkloadSpec, fixture_workloads
from repro.workloads import tm_workloads

#: Identifier written into every BENCH_perf.json.
#: /2: added the memory-stack benchmark section, a ``config``
#: flag for running the grid with the hit filter off, and
#: ``perf.fastpath.*`` metrics.
#: /3: added the faults-path section (NULL injector vs. a frozen
#: pre-faults scheduling loop).
#: /4: ``grid`` grew a ``report`` (the runner's supervision
#: RunReport: retries, timeouts, worker deaths, per-cell failures)
#: and cell rows may carry ``failed: true`` with null stats when the
#: grid ran under ``--failure-policy continue``.
#: /5: the grid gained replayed-trace cells (the committed fixture
#: traces, transactified, at scale 1.0) and ``config.traces`` lists
#: them; trace rows carry ``trace: true``.
#: /6: added the per-kernel comparison section (``kernelbench``:
#: interp vs batch SimulationKernel backends, per-kernel ops/sec and
#: the CI-enforced speedup), ``config.kernel``, and ``kernels.*``
#: metrics.
#: /7: ``kernelbench`` compares *every* registered backend (now
#: including ``spec``) on two micro-traces — the compute-heavy trace
#: and a new memory-heavy short-run trace — under a ``traces`` map;
#: the headline ``speedup`` became compute-trace spec/interp and the
#: section gained ``native`` plus per-backend telemetry snapshots.
#: /8: dropped the volatile ``unix_time`` field.  Timestamps belong
#: to the landscape run row (``--landscape``), not the committed
#: artifact: regenerating BENCH_perf.json on an unchanged tree now
#: diffs only in measured timings, never in when it was measured.
#: /9: dropped ``kernelbench``, ``config.kernel`` and the ``kernels.*``
#: metrics with the alternate hot-loop backends they compared.
#: /10: dropped the interpreter and faults-path sections with the
#: frozen executor copies they timed; the memory-stack section is
#: the one ratio section left.
#: /11: dropped that ``config`` flag with the CLI option that set it:
#: the grid always runs with the coherence hit filter on.
#: /12: dropped the memory-stack section with the hit filter it timed;
#: grid rows gained ``digest``, which pins each cell's full
#: ``RunStats``.
BENCH_SCHEMA = "repro-bench-perf/12"

#: Default output path, at the repo root like the other BENCH files.
DEFAULT_OUT = "BENCH_perf.json"

#: ``--quick`` subset: two contrasting workloads on two variants at
#: reduced scale, sized for a CI smoke job.
QUICK_WORKLOADS = ("Cholesky", "Vacation-Low")
QUICK_VARIANTS = ("TokenTM", "LogTM-SE_4xH3")
QUICK_SCALE_FACTOR = 0.25

#: Fixture event traces replayed as grid cells (``--quick`` keeps one).
#: Traces run at their recorded size; ``scale`` is pinned to 1.0.
QUICK_TRACE_FIXTURES = ("mutex_ring",)


def stats_digest(stats) -> str:
    """sha256[:16] of a ``RunStats`` snapshot as sorted-key JSON."""
    text = json.dumps(stats.snapshot(), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _grid_cells_payload(specs: Sequence[CellSpec], cells: Sequence[Cell],
                        walls: Sequence[Optional[float]]) -> List[Dict]:
    rows = []
    for spec, cell, wall in zip(specs, cells, walls):
        if cell is None:  # failed under --failure-policy continue
            rows.append({
                "workload": spec.workload.name,
                "variant": spec.variant,
                "seed": spec.seed,
                "scale": spec.scale,
                "failed": True,
            })
            continue
        stats = cell.stats
        ops = int(stats.machine.get("_trace_ops", 0))
        row = {
            "workload": spec.workload.name,
            "variant": spec.variant,
            "seed": spec.seed,
            "scale": spec.scale,
            "trace_ops": ops,
            "wall_seconds": wall,
            "sim_ops_per_sec": (ops / wall) if wall else None,
            "makespan": stats.makespan,
            "commits": stats.commits,
            "aborts": stats.aborts,
            "digest": stats_digest(stats),
            "cache_hit": wall is None,
        }
        if isinstance(spec.workload, TraceWorkloadSpec):
            row["trace"] = True
        rows.append(row)
    return rows


def run_grid(specs: Sequence[CellSpec], workers: int = 0,
             cache: Optional[ResultCache] = None,
             supervisor: Optional[SupervisorConfig] = None,
             recorder=None):
    """Run a grid through the runner.

    Returns ``(grid_payload, metrics_snapshot)``.  Under the
    ``continue`` failure policy an incomplete grid does not raise:
    failed cells are marked in the payload and the supervision
    :class:`~repro.perf.supervise.RunReport` lands in
    ``grid["report"]`` — ``repro bench`` surfaces it and exits
    nonzero.  ``fail_fast`` (the default) still propagates
    :class:`~repro.common.errors.IncompleteGridError`, with the pool
    reaped either way.  ``recorder`` threads a landscape
    :class:`~repro.landscape.store.RunRecorder` through to the runner
    so every cell becomes a ledger entry.
    """
    with ParallelRunner(workers=workers, cache=cache,
                        supervisor=supervisor,
                        recorder=recorder) as runner:
        start = time.perf_counter()
        try:
            cells = runner.run_cells(list(specs))
        except IncompleteGridError as exc:
            if runner.supervisor.failure_policy == FAIL_FAST:
                raise
            cells = exc.results
        wall = time.perf_counter() - start
        payload = {
            "wall_seconds": wall,
            "cells": _grid_cells_payload(specs, cells,
                                         runner.last_wall_seconds),
            "report": runner.last_report.to_dict(),
        }
        return payload, runner.metrics.snapshot()


def compare_serial_parallel(specs: Sequence[CellSpec],
                            workers: int) -> Dict:
    """Time the same (uncached) grid serially and with ``workers``.

    Also cross-checks that both runs produced identical statistics —
    the determinism contract the parallel engine must keep.
    """
    with ParallelRunner(workers=0) as serial_runner:
        start = time.perf_counter()
        serial_cells = serial_runner.run_cells(list(specs))
        serial_wall = time.perf_counter() - start
    with ParallelRunner(workers=workers) as runner:
        start = time.perf_counter()
        parallel_cells = runner.run_cells(list(specs))
        parallel_wall = time.perf_counter() - start
    identical = all(
        a.stats.snapshot() == b.stats.snapshot()
        for a, b in zip(serial_cells, parallel_cells)
    )
    return {
        "cells": len(specs),
        "workers": workers,
        "serial_wall_seconds": serial_wall,
        "parallel_wall_seconds": parallel_wall,
        "speedup": serial_wall / parallel_wall if parallel_wall else None,
        "byte_identical": identical,
    }


# ----------------------------------------------------------------------
# Top-level harness
# ----------------------------------------------------------------------

def bench_specs(quick: bool = False, seed: int = 2008,
                workload_names: Optional[Sequence[str]] = None,
                variants: Optional[Sequence[str]] = None,
                scale_factor: float = 1.0,
                traces: bool = True) -> List[CellSpec]:
    """The benchmark grid as cell specs (Figure 5 grid by default).

    With ``traces`` (the default) the committed fixture event traces
    are appended as replay cells — transactified, at their recorded
    size (``scale`` pinned to 1.0, which the trace workload ignores
    but the cache key records).  ``--quick`` keeps one fixture.

    An unknown workload or variant raises
    :class:`~repro.common.errors.ConfigError` before any cell runs.
    """
    registry = tm_workloads()
    if workload_names is None:
        workload_names = QUICK_WORKLOADS if quick else tuple(GRID_SCALES)
    if variants is None:
        variants = QUICK_VARIANTS if quick else FIGURE5_VARIANTS
    for kind, names, known in (("workload", workload_names, registry),
                               ("variant", variants, VARIANTS)):
        unknown = [name for name in names if name not in known]
        if unknown:
            raise ConfigError(
                f"unknown {kind}(s) {', '.join(unknown)}; "
                f"available: {', '.join(known)}"
            )
    if quick:
        scale_factor *= QUICK_SCALE_FACTOR
    specs = []
    for name in workload_names:
        scale = GRID_SCALES[name] * scale_factor
        for variant in variants:
            specs.append(CellSpec(registry[name].spec, variant,
                                  seed=seed, scale=scale))
    if traces:
        fixtures = fixture_workloads()
        names = QUICK_TRACE_FIXTURES if quick else tuple(fixtures)
        for name in names:
            for variant in variants:
                specs.append(CellSpec(fixtures[name].spec, variant,
                                      seed=seed, scale=1.0))
    return specs


def run_bench(out: str = DEFAULT_OUT, quick: bool = False,
              seed: int = 2008, workers: int = 0,
              workload_names: Optional[Sequence[str]] = None,
              variants: Optional[Sequence[str]] = None,
              scale_factor: float = 1.0,
              cache_dir: Optional[str] = None,
              compare_serial: bool = False,
              traces: bool = True,
              supervisor: Optional[SupervisorConfig] = None,
              landscape: Optional[str] = None) -> Dict:
    """Run the harness and write ``BENCH_perf.json``; returns payload.

    ``landscape`` (a database path) records the whole run into the
    result landscape: a ``bench`` run row carrying the full payload
    and provenance (git rev, schema versions, seed), one
    ``bench_section`` work row for the grid (plus one per grid cell
    via the runner), each closed at its terminal outcome.  ``None``
    (the default) keeps the run byte-identical to a landscape-free
    build.
    """
    specs = bench_specs(quick=quick, seed=seed,
                        workload_names=workload_names, variants=variants,
                        scale_factor=scale_factor, traces=traces)
    store = None
    recorder = None
    if landscape is not None:
        from repro.landscape.store import LandscapeStore, current_git_rev
        from repro.perf.cache import CACHE_SCHEMA

        store = LandscapeStore(landscape)
        recorder = store.begin_run(
            "bench", label=str(out), git_rev=current_git_rev(),
            cache_schema=CACHE_SCHEMA, bench_schema=BENCH_SCHEMA,
            seed=seed)

    try:
        cache = ResultCache(cache_dir) if cache_dir else None
        # The grid's ledger row opens at dispatch and closes at its
        # terminal outcome; a crash mid-grid leaves it open for
        # heal-on-reopen.
        if recorder is not None:
            recorder.open("bench_section", "grid", seed=seed)
        try:
            grid, metrics = run_grid(specs, workers=workers, cache=cache,
                                     supervisor=supervisor,
                                     recorder=recorder)
        except BaseException as exc:
            if recorder is not None:
                recorder.close_key("bench_section", "grid", "failed",
                                   detail=f"{type(exc).__name__}: {exc}")
            raise
        if recorder is not None:
            recorder.close_key("bench_section", "grid", "ok")
        total_ops = sum(c.get("trace_ops", 0) for c in grid["cells"])
        timed_walls = [c["wall_seconds"] for c in grid["cells"]
                       if c.get("wall_seconds")]
        totals = {
            "cells": len(grid["cells"]),
            "trace_ops": total_ops,
            "wall_seconds": grid["wall_seconds"],
            "sim_ops_per_sec": (total_ops / grid["wall_seconds"]
                                if grid["wall_seconds"] else None),
            "cell_wall_seconds_sum": sum(timed_walls),
        }
        payload = {
            "schema": BENCH_SCHEMA,
            "python": platform.python_version(),
            "config": {
                "seed": seed,
                "workers": workers,
                "quick": quick,
                "cache_dir": cache_dir,
                "scales": {c["workload"]: c["scale"]
                           for c in grid["cells"]},
                "traces": sorted({s.workload.name for s in specs
                                  if isinstance(s.workload,
                                                TraceWorkloadSpec)}),
            },
            "grid": grid,
            "totals": totals,
            "parallel": (compare_serial_parallel(specs, workers)
                         if compare_serial and workers > 1 else None),
            "metrics": metrics,
        }
        Path(out).write_text(json.dumps(payload, indent=2) + "\n",
                             encoding="utf-8")
    except (KeyboardInterrupt, SystemExit):
        if recorder is not None:
            recorder.finish("interrupted")
            store.close()
        raise
    except BaseException:
        if recorder is not None:
            recorder.finish("failed")
            store.close()
        raise
    if recorder is not None:
        failed = bool(grid["report"].get("failed"))
        recorder.finish("failed" if failed else "ok",
                        metrics_snapshot=metrics, payload=payload)
        store.close()
    return payload


def format_bench_summary(payload: Dict) -> str:
    """Human-readable digest of a bench payload for the CLI."""
    totals = payload["totals"]
    lines = [
        f"grid: {totals['cells']} cells, "
        f"{totals['trace_ops']} trace ops "
        f"in {totals['wall_seconds']:.2f}s wall "
        f"({(totals['sim_ops_per_sec'] or 0):,.0f} ops/sec)"
    ]
    report = payload["grid"]["report"]
    if report.get("failed"):
        lines.append(
            f"grid INCOMPLETE: {len(report['failed'])} cells failed "
            f"({report.get('retries', 0)} retries, "
            f"{report.get('timeouts', 0)} timeouts, "
            f"{report.get('worker_deaths', 0)} worker deaths)"
        )
    par = payload.get("parallel")
    if par:
        lines.append(
            f"parallel: {par['workers']} workers "
            f"{par['parallel_wall_seconds']:.2f}s vs serial "
            f"{par['serial_wall_seconds']:.2f}s "
            f"(speedup {par['speedup']:.2f}x, "
            f"identical={par['byte_identical']})"
        )
    hits = payload["metrics"].get("perf.cache_hits", {}).get("value", 0)
    if hits:
        lines.append(f"cache: {hits} hits")
    return "\n".join(lines)
