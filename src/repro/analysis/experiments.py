"""Experiment harness: runs the paper's evaluation grid.

One *cell* of the evaluation is (workload, HTM variant, seed): a fresh
memory system and machine are built, the workload trace is generated
and executed, and a :class:`~repro.runtime.stats.RunStats` comes back.
The helpers here assemble the cells into the paper's figures:

* :func:`run_cell` / :func:`run_variants` — the grid primitives;
* :func:`figure_speedups` — speedups normalized to LogTM-SE_Perf
  (Figures 1 and 5);
* :func:`measure_table5` — read/write-set statistics of the workload
  generators (Table 5);
* :func:`table6_row` — TokenTM-specific overheads (Table 6).

Runs are scaled: executing all 285k transactions of the paper's full
grid in pure Python would take hours, so harnesses pass a ``scale``
(fraction of each workload's Table 5 transaction count) and record it
in the result.  Relative shapes are stable across scales well below
1.0 because conflict rates depend on concurrency and set sizes, not
on total transaction count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

from repro.analysis.ci import Estimate, confidence_interval
from repro.common.config import HTMConfig, RunConfig, SystemConfig
from repro.common.errors import IncompleteGridError
from repro.common.rng import perturbation_seeds
from repro.coherence.protocol import MemorySystem
from repro.faults.injector import FaultInjector
from repro.faults.monitor import InvariantMonitor
from repro.faults.plan import FaultPlan
from repro.htm import make_htm
from repro.obs.events import EventBus
from repro.runtime.executor import Executor
from repro.runtime.stats import RunStats
from repro.workloads.base import SyntheticTxnWorkload
from repro.workloads.trace import WorkloadTrace, static_set_sizes

#: Variant order used in the paper's Figure 5.
FIGURE5_VARIANTS = (
    "LogTM-SE_2xH3",
    "LogTM-SE_4xH3",
    "LogTM-SE_Perf",
    "TokenTM",
    "TokenTM_NoFast",
)

#: Variant order used in Figure 1 (false-positive study).
FIGURE1_VARIANTS = (
    "LogTM-SE_2xH3",
    "LogTM-SE_4xH3",
    "LogTM-SE_Perf",
)


@dataclass
class Cell:
    """One grid cell result."""

    workload: str
    variant: str
    seed: int
    stats: RunStats


def _require_complete(cells: Sequence[Optional[Cell]],
                      specs: Sequence) -> List[Cell]:
    """Reject result lists with ``None`` holes.

    :class:`~repro.perf.runner.ParallelRunner` already raises rather
    than returning holes; this guard keeps the figure/table builders
    honest against *any* runner implementation — a plotted figure
    must never silently omit a cell that failed to simulate.
    """
    holes = [i for i, cell in enumerate(cells) if cell is None]
    if holes:
        described = ", ".join(
            f"{specs[i].workload.name}/{specs[i].variant}"
            f"/s{specs[i].seed}" for i in holes[:6])
        raise IncompleteGridError(
            f"runner returned no result for {len(holes)} of "
            f"{len(cells)} cells ({described}"
            + (", ..." if len(holes) > 6 else "") + ")",
            results=list(cells),
        )
    return list(cells)


def run_trace(trace: WorkloadTrace, variant: str,
              system: Optional[SystemConfig] = None,
              htm_config: Optional[HTMConfig] = None,
              seed: int = 0,
              audit: bool = False,
              quantum: int = 200,
              bus: Optional[EventBus] = None,
              fast_path: bool = True,
              faults: Optional[FaultPlan] = None,
              monitor: Optional[InvariantMonitor] = None) -> RunStats:
    """Execute an already-generated trace on a fresh machine.

    Pass an enabled :class:`~repro.obs.events.EventBus` to trace the
    run; the default null bus makes instrumentation free.
    ``fast_path=False`` disables the memory-system access filters
    (``--no-fastpath``); results are identical either way.

    ``faults`` injects the given plan (seeded from ``seed``) and
    ``monitor`` runs invariant checks at quantum boundaries; both
    default to absent, keeping this path byte-identical to builds
    without the faults subsystem.  A monitor implies commit-history
    tracking (the serializability oracle needs it).
    """
    sys_cfg = system or SystemConfig()
    cfg = htm_config or HTMConfig()
    machine = make_htm(variant,
                       MemorySystem(sys_cfg, bus=bus, fast_path=fast_path),
                       cfg)
    run_cfg = RunConfig(system=sys_cfg, htm=cfg, seed=seed, audit=audit)
    injector = None
    if faults is not None and faults.specs:
        injector = FaultInjector(faults, seed=seed, bus=bus)
    track_history = monitor is not None and monitor.enabled
    executor = Executor(machine, trace, run_cfg, quantum=quantum,
                        validate=False, track_history=track_history,
                        injector=injector, monitor=monitor)
    return executor.run().stats


def run_cell(workload: SyntheticTxnWorkload, variant: str,
             scale: float = 1.0, seed: int = 0,
             threads: Optional[int] = None,
             system: Optional[SystemConfig] = None,
             htm_config: Optional[HTMConfig] = None,
             bus: Optional[EventBus] = None,
             fast_path: bool = True,
             faults: Optional[FaultPlan] = None,
             monitor: Optional[InvariantMonitor] = None) -> Cell:
    """Generate the workload at ``scale`` and run it on ``variant``."""
    sys_cfg = system or SystemConfig()
    nthreads = threads if threads is not None else sys_cfg.num_cores
    trace = workload.generate(seed=seed, scale=scale, threads=nthreads)
    stats = run_trace(trace, variant, system=sys_cfg,
                      htm_config=htm_config, seed=seed, bus=bus,
                      fast_path=fast_path, faults=faults, monitor=monitor)
    return Cell(trace.name, variant, seed, stats)


def run_variants(workload: SyntheticTxnWorkload,
                 variants: Sequence[str],
                 scale: float = 1.0, seed: int = 0,
                 threads: Optional[int] = None,
                 system: Optional[SystemConfig] = None,
                 htm_config: Optional[HTMConfig] = None,
                 runner=None,
                 fast_path: bool = True) -> Dict[str, Cell]:
    """Run one workload across several variants on identical traces.

    ``runner`` (a :class:`repro.perf.runner.ParallelRunner`) fans the
    variants out over worker processes and/or the result cache; the
    default runs them inline.  Results are identical either way.
    """
    if runner is not None:
        from repro.perf.runner import grid_specs  # local: avoids cycle

        specs = grid_specs([workload], tuple(variants), seeds=(seed,),
                           scale=scale, threads=threads, system=system,
                           htm=htm_config, fast_path=fast_path)
        cells = _require_complete(runner.run_cells(specs), specs)
        return dict(zip(variants, cells))
    return {
        v: run_cell(workload, v, scale=scale, seed=seed, threads=threads,
                    system=system, htm_config=htm_config,
                    fast_path=fast_path)
        for v in variants
    }


@dataclass
class SpeedupSeries:
    """Per-variant speedups for one workload, CI over perturbed seeds."""

    workload: str
    baseline: str
    speedups: Dict[str, Estimate] = field(default_factory=dict)
    cells: List[Cell] = field(default_factory=list)


def figure_speedups(workload: SyntheticTxnWorkload,
                    variants: Sequence[str] = FIGURE5_VARIANTS,
                    baseline: str = "LogTM-SE_Perf",
                    scale: float = 0.02,
                    runs: int = 1,
                    seed: int = 0,
                    threads: Optional[int] = None,
                    system: Optional[SystemConfig] = None,
                    htm_config: Optional[HTMConfig] = None,
                    runner=None,
                    fast_path: bool = True) -> SpeedupSeries:
    """Speedup of each variant normalized to ``baseline``.

    ``runs`` > 1 produces 95% confidence intervals from perturbed
    seeds, as the paper does.  ``runner`` fans the whole
    (seed, variant) grid out at once (see :func:`run_variants`).
    """
    if baseline not in variants:
        variants = tuple(variants) + (baseline,)
    seeds = perturbation_seeds(seed, runs)
    per_variant: Dict[str, List[float]] = {v: [] for v in variants}
    series = SpeedupSeries(workload.spec.name, baseline)
    if runner is not None:
        from repro.perf.runner import grid_specs  # local: avoids cycle

        specs = grid_specs(
            [workload], tuple(variants), seeds=tuple(seeds), scale=scale,
            threads=threads, system=system, htm=htm_config,
            fast_path=fast_path,
        )
        flat = _require_complete(runner.run_cells(specs), specs)
        nv = len(variants)
        rounds = [dict(zip(variants, flat[i * nv:(i + 1) * nv]))
                  for i in range(len(seeds))]
    else:
        rounds = None
    for i, run_seed in enumerate(seeds):
        cells = rounds[i] if rounds is not None else run_variants(
            workload, variants, scale=scale, seed=run_seed,
            threads=threads, system=system, htm_config=htm_config,
            fast_path=fast_path)
        series.cells.extend(cells.values())
        base = cells[baseline].stats.makespan
        for variant, cell in cells.items():
            span = cell.stats.makespan
            per_variant[variant].append(base / span if span else 0.0)
    for variant, samples in per_variant.items():
        series.speedups[variant] = confidence_interval(samples)
    return series


@dataclass
class Table5Row:
    """Measured workload parameters (one Table 5 row)."""

    benchmark: str
    num_txns: int
    avg_read_set: float
    avg_write_set: float
    max_read_set: int
    max_write_set: int


def measure_table5(workload: SyntheticTxnWorkload, seed: int = 0,
                   scale: float = 1.0,
                   threads: int = 32) -> Table5Row:
    """Static read/write-set statistics of a generated workload.

    This measures the *trace* (what a perfect run would see), matching
    Table 5's role of characterizing the workloads themselves.  It is
    cheap even at scale=1.0 because no simulation runs.
    """
    trace = workload.generate(seed=seed, scale=scale, threads=threads)
    sizes = static_set_sizes(trace)
    if not sizes:
        return Table5Row(trace.name, 0, 0.0, 0.0, 0, 0)
    reads = [r for r, _ in sizes]
    writes = [w for _, w in sizes]
    return Table5Row(
        benchmark=trace.name,
        num_txns=len(sizes),
        avg_read_set=sum(reads) / len(reads),
        avg_write_set=sum(writes) / len(writes),
        max_read_set=max(reads),
        max_write_set=max(writes),
    )


@dataclass
class Table6Row:
    """TokenTM-specific overheads (one Table 6 row)."""

    benchmark: str
    fast_pct: float
    fast_avg_read_set: float
    fast_avg_write_set: float
    fast_avg_duration: float
    sw_avg_read_set: float
    sw_avg_write_set: float
    sw_avg_duration: float
    sw_release_cycles: float
    log_stall_pct: float
    aborts: int = 0
    #: Abort attribution (cause -> count) from RunStats.abort_causes:
    #: "conflict", "cm_kill", "stall_limit", "capacity".
    abort_causes: Dict[str, int] = field(default_factory=dict)


def table6_row(workload: SyntheticTxnWorkload, scale: float = 0.02,
               seed: int = 0,
               threads: Optional[int] = None,
               system: Optional[SystemConfig] = None,
               htm_config: Optional[HTMConfig] = None) -> Table6Row:
    """Run TokenTM on one workload and extract the Table 6 columns."""
    cell = run_cell(workload, "TokenTM", scale=scale, seed=seed,
                    threads=threads, system=system, htm_config=htm_config)
    stats = cell.stats
    return Table6Row(
        benchmark=stats.workload,
        fast_pct=100.0 * stats.fast_release_fraction,
        fast_avg_read_set=stats.fast.avg_read_set,
        fast_avg_write_set=stats.fast.avg_write_set,
        fast_avg_duration=stats.fast.avg_duration,
        sw_avg_read_set=stats.software.avg_read_set,
        sw_avg_write_set=stats.software.avg_write_set,
        sw_avg_duration=stats.software.avg_duration,
        sw_release_cycles=stats.software.avg_release_cycles,
        log_stall_pct=100.0 * stats.log_stall_fraction,
        aborts=stats.aborts,
        abort_causes=dict(stats.abort_causes),
    )
