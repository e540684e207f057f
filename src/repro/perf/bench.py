"""``repro bench``: the repo's performance benchmark harness.

Measures these and writes them to ``BENCH_perf.json``:

* **grid throughput** — wall-clock and simulated-ops/sec for every
  cell of an evaluation grid, run through the
  :class:`~repro.perf.runner.ParallelRunner`;
* **interpreter microbenchmark** — the optimized executor hot loop
  vs. the faithful pre-optimization copy in
  :mod:`repro.perf.legacy`, on an identical conflict-free trace, so
  the loop speedup is isolated from simulation content;
* **memory-stack microbenchmark** — the access fast path (coherence
  hit filter + HTM read/write-set short-circuit) vs. the unfiltered
  machine (:func:`repro.perf.legacy.unfiltered_memory_system`) on an
  identical repeat-access-heavy transaction mix, with an
  identical-statistics cross-check;
* **faults-path microbenchmark** — the shipped executor (NULL
  injector/monitor defaults) vs. the frozen pre-faults scheduling
  loop (:class:`repro.perf.legacy.PreFaultsExecutor`), proving the
  disabled faults subsystem is zero-cost (CI asserts the overhead
  stays under 2%).

Schema of ``BENCH_perf.json`` (``repro-bench-perf/9``, documented in
``docs/performance.md``):

``schema``        schema identifier string;
``config``        seed / workers / quick flag / fast_path /
                  per-workload scales;
``grid``          ``wall_seconds`` for the whole grid plus ``cells``,
                  each with workload, variant, seed, scale,
                  trace_ops, wall_seconds (null when the cache
                  answered), sim_ops_per_sec, makespan, commits,
                  aborts, cache_hit;
``totals``        summed trace_ops / wall and aggregate ops/sec;
``microbench``    trace_ops, rounds, legacy/optimized ops-per-sec
                  and their ratio (``speedup``);
``membench``      accesses, rounds, unfiltered/filtered ops-per-sec,
                  ``speedup``, ``identical_stats``, and the filtered
                  run's fast-path counter snapshot (``fastpath``);
``faultbench``    trace_ops, rounds, prefaults/null ops-per-sec,
                  ``overhead`` (null wall / pre-faults wall) and an
                  identical-statistics cross-check;
``parallel``      optional serial-vs-parallel wall comparison
                  (``--compare-serial``) with a ``byte_identical``
                  stats check;
``metrics``       the runner's metrics-registry snapshot (cache
                  hits/misses, cells simulated, workers) merged with
                  the membench's ``perf.fastpath.*`` counters.

Simulated-ops/sec counts *trace* operations retired per wall second;
aborted-and-retried work is not double-counted, so the number is a
throughput of useful simulation progress.

``--baseline FILE`` compares a fresh payload against a committed one
via :func:`check_regression`: the *speedup ratios* (optimized/legacy,
filtered/unfiltered) are compared rather than absolute ops/sec, so
the check tolerates slow CI machines and only fails when an
optimization itself eroded.
"""

from __future__ import annotations

import json
import platform
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.analysis.experiments import Cell
from repro.common.config import HTMConfig, RunConfig, SystemConfig
from repro.common.errors import ConfigError, IncompleteGridError
from repro.coherence.protocol import MemorySystem
from repro.htm import make_htm
from repro.obs.metrics import publish_fastpath
from repro.perf.cache import ResultCache
from repro.perf.legacy import (
    LegacyExecutor,
    PreFaultsExecutor,
    unfiltered_memory_system,
)
from repro.perf.runner import CellSpec, ParallelRunner
from repro.perf.supervise import FAIL_FAST, SupervisorConfig
from repro.runtime.executor import Executor
from repro.traces.workload import TraceWorkloadSpec, fixture_workloads
from repro.workloads import tm_workloads
from repro.workloads.trace import (
    OP_BEGIN,
    OP_COMMIT,
    OP_COMPUTE,
    OP_READ,
    OP_WRITE,
    ThreadTrace,
    WorkloadTrace,
)

#: Identifier written into every BENCH_perf.json.
#: /2: added the memory-stack microbenchmark (``membench``), the
#: ``config.fast_path`` flag, and ``perf.fastpath.*`` metrics.
#: /3: added the faults-path microbenchmark (``faultbench``).
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
BENCH_SCHEMA = "repro-bench-perf/9"

#: Default output path, at the repo root like the other BENCH files.
DEFAULT_OUT = "BENCH_perf.json"

#: Per-workload scales for the full grid — the Figure 5 operating
#: point (matches ``repro figure5`` and benchmarks/conftest.py).
GRID_SCALES: Dict[str, float] = {
    "Barnes": 0.2, "Cholesky": 0.01, "Radiosity": 0.02,
    "Raytrace": 0.01, "Delaunay": 0.015, "Genome": 0.004,
    "Vacation-Low": 0.02, "Vacation-High": 0.02,
}

#: The full-grid variant set (Figure 5's five machines).
GRID_VARIANTS = (
    "LogTM-SE_2xH3", "LogTM-SE_4xH3", "LogTM-SE_Perf",
    "TokenTM", "TokenTM_NoFast",
)

#: ``--quick`` subset: two contrasting workloads on two variants at
#: reduced scale, sized for a CI smoke job.
QUICK_WORKLOADS = ("Cholesky", "Vacation-Low")
QUICK_VARIANTS = ("TokenTM", "LogTM-SE_4xH3")
QUICK_SCALE_FACTOR = 0.25

#: Fixture event traces replayed as grid cells (``--quick`` keeps one).
#: Traces run at their recorded size; ``scale`` is pinned to 1.0.
QUICK_TRACE_FIXTURES = ("mutex_ring",)

#: Microbenchmark trace shape (per thread): transactions of a few
#: private accesses followed by a long COMPUTE run — the opcode mix
#: that dominates real traces, weighted so the interpreter loop (not
#: the HTM access path, which both executors share) is what's timed.
MICRO_THREADS = 4
MICRO_TXNS = 60
MICRO_COMPUTES = 400
MICRO_COMPUTE_CYCLES = 2


def micro_trace(threads: int = MICRO_THREADS, txns: int = MICRO_TXNS,
                computes: int = MICRO_COMPUTES,
                compute_cycles: int = MICRO_COMPUTE_CYCLES) -> WorkloadTrace:
    """Deterministic conflict-free trace for the loop microbenchmark.

    Every thread touches only its own block range, so the run is
    abort-free and both executors retire the identical op stream.
    """
    thread_traces = []
    for tid in range(threads):
        base = tid << 12  # disjoint per-thread block ranges
        ops = []
        for t in range(txns):
            ops.append((OP_BEGIN, 0))
            ops.append((OP_READ, base + (t % 64)))
            ops.append((OP_READ, base + ((t + 7) % 64)))
            ops.append((OP_WRITE, base + ((t + 3) % 64)))
            ops.extend([(OP_COMPUTE, compute_cycles)] * computes)
            ops.append((OP_COMMIT, 0))
            ops.append((OP_COMPUTE, compute_cycles))
        thread_traces.append(ThreadTrace(tid, ops))
    return WorkloadTrace("Microbench", thread_traces,
                         params={"threads": threads, "txns": txns,
                                 "computes": computes})


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
# Interpreter microbenchmark
# ----------------------------------------------------------------------

def _micro_run(executor_cls, trace, seed: int):
    system = SystemConfig()
    htm_cfg = HTMConfig()
    machine = make_htm("TokenTM", MemorySystem(system), htm_cfg)
    executor = executor_cls(
        machine, trace, RunConfig(system=system, htm=htm_cfg, seed=seed),
        validate=False, track_history=False,
    )
    start = time.perf_counter()
    result = executor.run()
    return time.perf_counter() - start, result.stats


def microbench(seed: int = 2008, rounds: int = 3,
               scale: float = 1.0) -> Dict:
    """Optimized vs. legacy hot loop on one conflict-free trace.

    Fresh machines each round; best-of-``rounds`` wall time on both
    sides.  The two loops must produce identical statistics (asserted
    here), so the comparison times interpretation, not behaviour.
    ``scale`` multiplies the per-thread transaction count.
    """
    trace = micro_trace(txns=max(1, int(MICRO_TXNS * scale)))
    ops = trace.total_ops()
    best_legacy = best_new = float("inf")
    legacy_stats = new_stats = None
    for _ in range(max(1, rounds)):
        wall, stats = _micro_run(LegacyExecutor, trace, seed)
        if wall < best_legacy:
            best_legacy, legacy_stats = wall, stats
        wall, stats = _micro_run(Executor, trace, seed)
        if wall < best_new:
            best_new, new_stats = wall, stats
    if legacy_stats.snapshot() != new_stats.snapshot():
        raise AssertionError(
            "legacy and optimized loops diverged on the microbenchmark"
        )
    legacy_ops = ops / best_legacy
    new_ops = ops / best_new
    return {
        "trace_ops": ops,
        "rounds": rounds,
        "legacy_wall_seconds": best_legacy,
        "optimized_wall_seconds": best_new,
        "legacy_ops_per_sec": legacy_ops,
        "optimized_ops_per_sec": new_ops,
        "speedup": new_ops / legacy_ops,
    }


# ----------------------------------------------------------------------
# Memory-stack microbenchmark
# ----------------------------------------------------------------------

#: Membench shape: a few concurrent large transactions, each looping
#: over its (private) working set — the paper's repeat-access-heavy
#: profile that the fast path targets.
MEM_CORES = 4
MEM_BLOCKS = 48
MEM_REPEATS = 40


def _membench_run(fast_path: bool, cores: int, blocks: int,
                  repeats: int):
    """Drive TokenTM directly with a repeat-access transaction mix.

    Returns ``(wall, accesses, protocol_stats, fastpath_stats)``.
    The access sequence is identical for both modes, so the protocol
    statistics must match exactly (asserted by :func:`membench`).
    """
    system = SystemConfig()
    if fast_path:
        mem = MemorySystem(system)
    else:
        mem = unfiltered_memory_system(system)
    machine = make_htm("TokenTM", mem, HTMConfig())
    accesses = 0
    start = time.perf_counter()
    for core in range(cores):
        machine.begin(core, core)
    for _ in range(repeats):
        for core in range(cores):
            base = (core + 1) << 12  # disjoint, clear of the log region
            for b in range(blocks):
                block = base + b
                machine.read(core, core, block)
                accesses += 1
                if b & 1:
                    machine.write(core, core, block)
                    accesses += 1
    for core in range(cores):
        machine.commit(core, core)
    wall = time.perf_counter() - start
    return wall, accesses, mem.stats.snapshot(), mem.fastpath.snapshot()


def membench(rounds: int = 3, cores: int = MEM_CORES,
             blocks: int = MEM_BLOCKS, repeats: int = MEM_REPEATS) -> Dict:
    """Filtered vs. unfiltered memory stack on one access mix.

    Fresh machines each round; best-of-``rounds`` wall time on both
    sides.  Both machines must retire identical protocol statistics
    (asserted), so the comparison times the simulator's access path,
    not a behavioural difference.
    """
    best_fast = best_slow = float("inf")
    fast_stats = slow_stats = None
    fastpath = None
    accesses = 0
    for _ in range(max(1, rounds)):
        wall, accesses, stats, fp = _membench_run(
            True, cores, blocks, repeats)
        if wall < best_fast:
            best_fast, fast_stats, fastpath = wall, stats, fp
        wall, accesses, stats, _fp = _membench_run(
            False, cores, blocks, repeats)
        if wall < best_slow:
            best_slow, slow_stats = wall, stats
    if fast_stats != slow_stats:
        raise AssertionError(
            "filtered and unfiltered memory systems diverged "
            "on the membench access mix"
        )
    fast_ops = accesses / best_fast
    slow_ops = accesses / best_slow
    return {
        "accesses": accesses,
        "rounds": rounds,
        "unfiltered_wall_seconds": best_slow,
        "filtered_wall_seconds": best_fast,
        "unfiltered_ops_per_sec": slow_ops,
        "filtered_ops_per_sec": fast_ops,
        "speedup": fast_ops / slow_ops,
        "identical_stats": True,
        "fastpath": fastpath,
    }


# ----------------------------------------------------------------------
# Faults-path microbenchmark
# ----------------------------------------------------------------------

def faultbench(seed: int = 2008, rounds: int = 41,
               scale: float = 0.35) -> Dict:
    """Shipped NULL-injector path vs. the pre-faults scheduling loop.

    Both arms run the identical conflict-free trace through the same
    ``_run_quantum``; the only difference is the quantum-boundary
    fault hook (one hoisted bool plus one branch per quantum) that
    :class:`~repro.perf.legacy.PreFaultsExecutor` predates.  The two
    runs must produce identical statistics (asserted), and CI asserts
    ``overhead`` stays under 1.02 — the disabled faults subsystem
    changes throughput by less than 2%.

    ``overhead`` is the *median of paired per-round ratios*: the arms
    run back-to-back within each round (alternating which goes
    first), so a machine-load drift hits both sides of a pair roughly
    equally and cancels in the ratio, where a best-of-each-arm
    quotient would keep it.  Defaults favour *many short rounds* over
    few long ones — with a true overhead near zero, what the median
    needs is sample count, and the median of 41 paired ratios sits
    within a fraction of a percent run to run where a handful of long
    rounds can wander past the CI threshold on a loaded machine.
    """
    trace = micro_trace(txns=max(1, int(MICRO_TXNS * scale)))
    ops = trace.total_ops()
    _micro_run(Executor, trace, seed)  # warmup (allocator, caches)
    best_pre = best_null = float("inf")
    pre_stats = null_stats = None
    ratios = []
    for i in range(max(1, rounds)):
        order = (PreFaultsExecutor, Executor) if i % 2 == 0 \
            else (Executor, PreFaultsExecutor)
        walls = {}
        for cls in order:
            walls[cls], stats = _micro_run(cls, trace, seed)
            if cls is PreFaultsExecutor and walls[cls] < best_pre:
                best_pre, pre_stats = walls[cls], stats
            elif cls is Executor and walls[cls] < best_null:
                best_null, null_stats = walls[cls], stats
        ratios.append(walls[Executor] / walls[PreFaultsExecutor])
    if pre_stats.snapshot() != null_stats.snapshot():
        raise AssertionError(
            "NULL-injector and pre-faults loops diverged on the "
            "faultbench trace"
        )
    ratios.sort()
    mid = len(ratios) // 2
    overhead = ratios[mid] if len(ratios) % 2 else \
        (ratios[mid - 1] + ratios[mid]) / 2
    return {
        "trace_ops": ops,
        "rounds": rounds,
        "prefaults_wall_seconds": best_pre,
        "null_wall_seconds": best_null,
        "prefaults_ops_per_sec": ops / best_pre,
        "null_ops_per_sec": ops / best_null,
        "overhead": overhead,
        "identical_stats": True,
    }


#: Aliases for use inside :func:`run_bench`, whose ``membench`` /
#: ``faultbench`` boolean parameters shadow the function names.
_membench = membench
_faultbench = faultbench


# ----------------------------------------------------------------------
# Baseline regression check
# ----------------------------------------------------------------------

#: Sections whose ``speedup`` ratio the regression check compares.
REGRESSION_SECTIONS = ("microbench", "membench")


def load_bench(path: str) -> Dict:
    """Read a BENCH_perf.json payload from disk."""
    return json.loads(Path(path).read_text(encoding="utf-8"))


def load_baseline(path: str):
    """Leniently load a ``--baseline`` file: ``(payload, problem)``.

    A baseline that is missing, unreadable, truncated, or not valid
    JSON must never traceback a bench run — the fresh results are
    still worth having.  Exactly one of the pair is None: a loadable
    baseline returns ``(payload, None)``; anything else returns
    ``(None, reason)`` for the CLI to warn with and skip the
    comparison.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        return None, (f"baseline {path} unreadable "
                      f"({type(exc).__name__}: {exc}); comparison skipped")
    if not text.strip():
        return None, (f"baseline {path} is empty (truncated write?); "
                      f"comparison skipped")
    try:
        payload = json.loads(text)
    except ValueError as exc:
        return None, (f"baseline {path} is not valid JSON ({exc}); "
                      f"comparison skipped")
    if not isinstance(payload, dict):
        return None, (f"baseline {path} holds "
                      f"{type(payload).__name__}, not a bench payload "
                      f"object; comparison skipped")
    return payload, None


def check_regression(fresh: Dict, baseline: Dict,
                     tolerance: float = 0.3) -> List[str]:
    """Compare microbenchmark speedups against a committed baseline.

    Ratios (optimized/legacy, filtered/unfiltered) are
    compared, not absolute ops/sec: both sides of each ratio ran on the same
    machine in the same process, so wall-clock noise between the CI
    runner and the machine that produced the baseline cancels out.
    Returns a list of human-readable failures (empty = pass).
    """
    failures = []
    for section in REGRESSION_SECTIONS:
        base = (baseline.get(section) or {}).get("speedup")
        now = (fresh.get(section) or {}).get("speedup")
        if not base or not now:
            continue  # section absent on one side: nothing to compare
        drop = 1.0 - now / base
        if drop > tolerance:
            failures.append(
                f"{section} speedup fell {drop:.0%} "
                f"({base:.2f}x -> {now:.2f}x, tolerance {tolerance:.0%})"
            )
    return failures


def baseline_warnings(fresh: Dict, baseline: Dict) -> List[str]:
    """Non-fatal observations about a fresh-vs-baseline comparison.

    :func:`check_regression` compares only what both payloads carry;
    this companion names what that silently skipped, so ``--baseline``
    against an older-schema file *warns* about the mismatch (and any
    section present on only one side) instead of failing on a missing
    key.  Returns human-readable warnings (empty = fully comparable).
    """
    warnings = []
    fresh_schema = fresh.get("schema")
    base_schema = baseline.get("schema")
    if fresh_schema != base_schema:
        warnings.append(
            f"schema mismatch: baseline is {base_schema!r}, this run "
            f"wrote {fresh_schema!r}; only sections present in both "
            "are compared (regenerate the baseline with "
            "`repro bench` to compare everything)"
        )
    for section in sorted(set(baseline) - set(fresh)):
        warnings.append(
            f"section {section!r} present in the baseline but not "
            "written by this version; ignored"
        )
    for section in REGRESSION_SECTIONS:
        base = (baseline.get(section) or {}).get("speedup")
        now = (fresh.get(section) or {}).get("speedup")
        if base and not now:
            warnings.append(
                f"section {section!r} present in the baseline but not "
                "this run; skipped"
            )
        elif now and not base:
            warnings.append(
                f"section {section!r} present in this run but not the "
                "baseline; skipped"
            )
    return warnings


# ----------------------------------------------------------------------
# Top-level harness
# ----------------------------------------------------------------------

#: ``--only`` section names.  ``grid`` covers the cell grid (and the
#: totals/parallel blocks derived from it); the rest are the
#: microbenchmark sections.
BENCH_SECTIONS = ("grid", "microbench", "membench", "faultbench")


def bench_specs(quick: bool = False, seed: int = 2008,
                workload_names: Optional[Sequence[str]] = None,
                variants: Optional[Sequence[str]] = None,
                scale_factor: float = 1.0,
                fast_path: bool = True,
                traces: bool = True) -> List[CellSpec]:
    """The benchmark grid as cell specs (Figure 5 grid by default).

    With ``traces`` (the default) the committed fixture event traces
    are appended as replay cells — transactified, at their recorded
    size (``scale`` pinned to 1.0, which the trace workload ignores
    but the cache key records).  ``--quick`` keeps one fixture.
    """
    registry = tm_workloads()
    if workload_names is None:
        workload_names = QUICK_WORKLOADS if quick else tuple(GRID_SCALES)
    if variants is None:
        variants = QUICK_VARIANTS if quick else GRID_VARIANTS
    if quick:
        scale_factor *= QUICK_SCALE_FACTOR
    specs = []
    for name in workload_names:
        if name not in registry:
            raise SystemExit(f"unknown workload {name!r}")
        scale = GRID_SCALES.get(name, 0.02) * scale_factor
        for variant in variants:
            specs.append(CellSpec(registry[name].spec, variant,
                                  seed=seed, scale=scale,
                                  fast_path=fast_path))
    if traces:
        fixtures = fixture_workloads()
        names = QUICK_TRACE_FIXTURES if quick else tuple(fixtures)
        for name in names:
            for variant in variants:
                specs.append(CellSpec(fixtures[name].spec, variant,
                                      seed=seed, scale=1.0,
                                      fast_path=fast_path))
    return specs


def run_bench(out: str = DEFAULT_OUT, quick: bool = False,
              seed: int = 2008, workers: int = 0,
              workload_names: Optional[Sequence[str]] = None,
              variants: Optional[Sequence[str]] = None,
              scale_factor: float = 1.0,
              cache_dir: Optional[str] = None,
              compare_serial: bool = False,
              micro: bool = True,
              micro_rounds: int = 3,
              membench: bool = True,
              faultbench: bool = True,
              fast_path: bool = True,
              traces: bool = True,
              only: Optional[Sequence[str]] = None,
              supervisor: Optional[SupervisorConfig] = None,
              landscape: Optional[str] = None) -> Dict:
    """Run the harness and write ``BENCH_perf.json``; returns payload.

    ``only`` restricts the run to the named :data:`BENCH_SECTIONS`
    (repeatable on the CLI as ``--only SECTION``); every other
    section lands as ``null`` in the payload, which the baseline
    comparison reports as a warning, not an error.

    ``landscape`` (a database path) records the whole run into the
    result landscape: a ``bench`` run row carrying the full payload
    and provenance (git rev, schema versions, seed), one work
    row per section (plus one per grid cell via the runner), each
    closed at its terminal outcome.  ``None`` (the default) keeps the
    run byte-identical to a landscape-free build.
    """
    if only:
        unknown = sorted(set(only) - set(BENCH_SECTIONS))
        if unknown:
            raise ConfigError(
                f"unknown bench section(s) {', '.join(unknown)}; "
                f"available: {', '.join(BENCH_SECTIONS)}"
            )
        selected = set(only)
        micro = micro and "microbench" in selected
        membench = membench and "membench" in selected
        faultbench = faultbench and "faultbench" in selected
        grid_on = "grid" in selected
    else:
        grid_on = True
    specs = bench_specs(quick=quick, seed=seed,
                        workload_names=workload_names, variants=variants,
                        scale_factor=scale_factor, fast_path=fast_path,
                        traces=traces)
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

    def section(name, fn):
        """Ledger-wrap one section: opened at dispatch, closed at its
        terminal outcome (a crash mid-section leaves the row open for
        heal-on-reopen)."""
        if recorder is None:
            return fn()
        recorder.open("bench_section", name, seed=seed)
        try:
            value = fn()
        except BaseException as exc:
            recorder.close_key("bench_section", name, "failed",
                               detail=f"{type(exc).__name__}: {exc}")
            raise
        recorder.close_key("bench_section", name, "ok")
        return value

    try:
        if grid_on:
            cache = ResultCache(cache_dir) if cache_dir else None
            grid, metrics = section("grid", lambda: run_grid(
                specs, workers=workers, cache=cache,
                supervisor=supervisor, recorder=recorder))
        else:
            grid, metrics = None, {}
        mem_payload = None
        if membench:
            # Deliberately NOT scaled down under --quick: the whole run
            # takes well under a second, and the filtered/unfiltered ratio
            # grows with the repeat count, so a smaller quick-mode mix
            # would sit too close to the --baseline tolerance.
            mem_payload = section(
                "membench", lambda: _membench(rounds=micro_rounds))
            metrics = dict(metrics)
            metrics.update(
                publish_fastpath(mem_payload["fastpath"]).snapshot()
            )
        if grid is not None:
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
            scales = {c["workload"]: c["scale"] for c in grid["cells"]}
        else:
            totals = None
            scales = None
        payload = {
            "schema": BENCH_SCHEMA,
            "python": platform.python_version(),
            "config": {
                "seed": seed,
                "workers": workers,
                "quick": quick,
                "fast_path": fast_path,
                "cache_dir": cache_dir,
                "scales": scales,
                "traces": sorted({s.workload.name for s in specs
                                  if isinstance(s.workload,
                                                TraceWorkloadSpec)}),
            },
            "grid": grid,
            "totals": totals,
            "microbench": (section(
                "microbench",
                lambda: microbench(seed=seed, rounds=micro_rounds,
                                   scale=0.5 if quick else 1.0))
                if micro else None),
            "membench": mem_payload,
            # Not scaled down under --quick either: best-of-rounds on the
            # full trace is what keeps the 2% CI assertion noise-proof.
            "faultbench": (section(
                "faultbench",
                lambda: _faultbench(seed=seed,
                                    rounds=max(41, micro_rounds)))
                if faultbench else None),
            "parallel": (compare_serial_parallel(specs, workers)
                         if compare_serial and workers > 1 and grid_on
                         else None),
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
        failed = bool(((grid or {}).get("report") or {}).get("failed"))
        recorder.finish("failed" if failed else "ok",
                        metrics_snapshot=metrics, payload=payload)
        store.close()
    return payload


def format_bench_summary(payload: Dict) -> str:
    """Human-readable digest of a bench payload for the CLI."""
    lines = []
    totals = payload.get("totals")
    if totals:
        lines.append(
            f"grid: {totals['cells']} cells, "
            f"{totals['trace_ops']} trace ops "
            f"in {totals['wall_seconds']:.2f}s wall "
            f"({(totals['sim_ops_per_sec'] or 0):,.0f} ops/sec)"
        )
    else:
        lines.append("grid: skipped (--only)")
    report = (payload.get("grid") or {}).get("report") or {}
    if report.get("failed"):
        lines.append(
            f"grid INCOMPLETE: {len(report['failed'])} cells failed "
            f"({report.get('retries', 0)} retries, "
            f"{report.get('timeouts', 0)} timeouts, "
            f"{report.get('worker_deaths', 0)} worker deaths)"
        )
    micro = payload.get("microbench")
    if micro:
        lines.append(
            f"interpreter: optimized {micro['optimized_ops_per_sec']:,.0f} "
            f"ops/sec vs legacy {micro['legacy_ops_per_sec']:,.0f} "
            f"(speedup {micro['speedup']:.2f}x)"
        )
    mem = payload.get("membench")
    if mem:
        lines.append(
            f"memory stack: filtered {mem['filtered_ops_per_sec']:,.0f} "
            f"accesses/sec vs unfiltered "
            f"{mem['unfiltered_ops_per_sec']:,.0f} "
            f"(speedup {mem['speedup']:.2f}x, "
            f"identical={mem['identical_stats']})"
        )
    fb = payload.get("faultbench")
    if fb:
        lines.append(
            f"faults path: NULL {fb['null_ops_per_sec']:,.0f} ops/sec "
            f"vs pre-faults {fb['prefaults_ops_per_sec']:,.0f} "
            f"(overhead {100.0 * (fb['overhead'] - 1):+.2f}%, "
            f"identical={fb['identical_stats']})"
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
