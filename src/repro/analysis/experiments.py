"""Experiment harness: runs the paper's evaluation grid.

One *cell* of the evaluation is (workload, HTM variant, seed): a fresh
memory system and machine are built, the workload trace is generated
and executed, and a :class:`~repro.runtime.stats.RunStats` comes back.
A :class:`~repro.perf.runner.CellSpec` describes a cell and
:func:`~repro.perf.runner.simulate_cell` runs it.  The helpers here
assemble the cells into the paper's figures:

* :data:`GRID_SCALES`, :data:`FIGURE5_VARIANTS`,
  :data:`FIGURE1_WORKLOADS` — the grid itself, defined once;
* :func:`run_trace` / :func:`run_variants` — the grid primitives;
* :func:`figure_speedups` — speedups normalized to LogTM-SE_Perf
  (Figures 1 and 5);
* :func:`measure_table5` — read/write-set statistics of the workload
  generators (Table 5);
* :func:`table6_row` — TokenTM-specific overheads of a TokenTM cell
  (Table 6).

Runs are scaled: executing all 285k transactions of the paper's full
grid in pure Python would take hours, so harnesses pass a ``scale``
(fraction of each workload's Table 5 transaction count) and record it
in the result.  Relative shapes are stable across scales well below
1.0 because conflict rates depend on concurrency and set sizes, not
on total transaction count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

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
from repro.runtime.executor import DEFAULT_TIMESLICE, Executor
from repro.runtime.stats import RunStats
from repro.workloads.base import SyntheticTxnWorkload
from repro.workloads.trace import WorkloadTrace, static_set_sizes

#: Per-workload scales (fractions of each Table 5 transaction count)
#: of the Figure 5 grid, in the paper's workload order: SPLASH first,
#: then STAMP.  Chosen for minutes-scale runs in which every workload
#: still executes hundreds of transactions.  ``repro bench``, the
#: figure and table commands and the pytest benchmarks all read this
#: one table.
GRID_SCALES: Dict[str, float] = {
    "Barnes": 0.2, "Cholesky": 0.01, "Radiosity": 0.02,
    "Raytrace": 0.01, "Delaunay": 0.015, "Genome": 0.004,
    "Vacation-Low": 0.02, "Vacation-High": 0.02,
}

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

#: The STAMP workloads Figure 1 plots.
FIGURE1_WORKLOADS = ("Delaunay", "Genome", "Vacation-Low", "Vacation-High")


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
              timeslice: int = DEFAULT_TIMESLICE,
              policy: str = "timestamp",
              bus: Optional[EventBus] = None,
              faults: Optional[FaultPlan] = None,
              monitor: Optional[InvariantMonitor] = None) -> RunStats:
    """Execute an already-generated trace on a fresh machine.

    The one machine builder for a run; experiments reach it through
    :func:`repro.perf.runner.simulate_cell`.  Pass an enabled
    :class:`~repro.obs.events.EventBus` to trace the run; the default
    null bus makes instrumentation free.

    ``faults`` injects the given plan (seeded from ``seed``) and
    ``monitor`` runs invariant checks at quantum boundaries; both
    default to absent, keeping this path byte-identical to builds
    without the faults subsystem.  A monitor implies commit-history
    tracking (the serializability oracle needs it).
    """
    sys_cfg = system or SystemConfig()
    cfg = htm_config or HTMConfig()
    machine = make_htm(variant, MemorySystem(sys_cfg, bus=bus), cfg)
    run_cfg = RunConfig(system=sys_cfg, htm=cfg, seed=seed)
    injector = None
    if faults is not None and faults.specs:
        injector = FaultInjector(faults, seed=seed, bus=bus)
    track_history = monitor is not None and monitor.enabled
    executor = Executor(machine, trace, run_cfg, validate=False,
                        track_history=track_history,
                        timeslice=timeslice, policy=policy,
                        injector=injector, monitor=monitor)
    return executor.run().stats


def _run_grid(workload: SyntheticTxnWorkload, variants: Sequence[str],
              seeds: Sequence[int], scale: float, runner) -> List[Cell]:
    """Run ``workload`` x ``seeds`` x ``variants`` through ``runner``.

    The default runner is a serial
    :class:`~repro.perf.runner.ParallelRunner`; results come back in
    (seed, variant) order.
    """
    from repro.perf.runner import ParallelRunner, grid_specs  # avoids cycle

    specs = grid_specs([workload], tuple(variants), seeds=tuple(seeds),
                       scale=scale)
    if runner is None:
        runner = ParallelRunner()
    return _require_complete(runner.run_cells(specs), specs)


def run_variants(workload: SyntheticTxnWorkload,
                 variants: Sequence[str],
                 scale: float = 1.0, seed: int = 0,
                 runner=None) -> Dict[str, Cell]:
    """Run one workload across several variants on identical traces.

    ``runner`` (a :class:`repro.perf.runner.ParallelRunner`) may fan
    the variants out over worker processes and/or the result cache;
    the default runs them serially.  The runner generates the trace
    once and runs every variant on it.
    """
    cells = _run_grid(workload, variants, (seed,), scale, runner)
    return dict(zip(variants, cells))


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
                    runner=None) -> SpeedupSeries:
    """Speedup of each variant normalized to ``baseline``.

    ``runs`` > 1 produces 95% confidence intervals from perturbed
    seeds, as the paper does.  The whole (seed, variant) grid goes to
    ``runner`` at once (see :func:`run_variants`).
    """
    if baseline not in variants:
        variants = tuple(variants) + (baseline,)
    seeds = perturbation_seeds(seed, runs)
    per_variant: Dict[str, List[float]] = {v: [] for v in variants}
    series = SpeedupSeries(workload.spec.name, baseline)
    flat = _run_grid(workload, variants, seeds, scale, runner)
    nv = len(variants)
    for i in range(len(seeds)):
        cells = dict(zip(variants, flat[i * nv:(i + 1) * nv]))
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


def table6_row(cell: Cell) -> Table6Row:
    """The Table 6 columns of one TokenTM cell."""
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
