"""Ablation D: core-count scaling of concurrent large transactions.

Section 2.2's Amdahl argument: serializing unbounded transactions
(OneTM) caps speedup as the system grows, while TokenTM's concurrent
large transactions keep scaling.  Sweeps 4/8/16/32 cores on a
Vacation-High slice and reports each machine's self-relative scaling.
"""

from repro.analysis.tables import format_table
from repro.common.config import SystemConfig
from repro.perf.runner import CellSpec

from benchmarks.conftest import BENCH_SEED, _bench_runner, emit

CORES = (4, 8, 16, 32)
TXNS_PER_THREAD = 8
VARIANTS = ("TokenTM", "OneTM")


def _sweep(workloads):
    spec = workloads["Vacation-High"].spec
    # Fixed per-thread work: total transactions grow with cores, so
    # perfect scaling keeps the makespan flat.  Both variants of a
    # core count run one trace, so they are adjacent.
    points = [(variant, cores) for cores in CORES for variant in VARIANTS]
    specs = [
        CellSpec(spec, variant, seed=BENCH_SEED,
                 scale=TXNS_PER_THREAD * cores / spec.total_txns,
                 system=SystemConfig().scaled(cores))
        for variant, cores in points
    ]
    cells = _bench_runner().run_cells(specs)
    return {point: cell.stats for point, cell in zip(points, cells)}


def test_ablation_core_scaling(benchmark, capsys, workloads):
    grid = benchmark.pedantic(_sweep, args=(workloads,),
                              rounds=1, iterations=1)
    rows = []
    for cores in CORES:
        token = grid[("TokenTM", cores)]
        onetm = grid[("OneTM", cores)]
        rows.append((
            cores,
            token.makespan, onetm.makespan,
            round(onetm.makespan / max(1, token.makespan), 2),
            onetm.machine["overflow_serializations"],
        ))
    emit(capsys, format_table(
        ["Cores", "TokenTM cycles", "OneTM cycles", "OneTM/TokenTM",
         "OneTM overflows"],
        rows,
        title="Ablation D. Core scaling with fixed per-thread work "
              "(Vacation-High; flat = perfect scaling)",
    ))

    # The serialization gap widens (or at least persists) with scale.
    small_gap = (grid[("OneTM", 4)].makespan
                 / grid[("TokenTM", 4)].makespan)
    big_gap = (grid[("OneTM", 32)].makespan
               / grid[("TokenTM", 32)].makespan)
    assert big_gap > 1.2
    assert big_gap > 0.8 * small_gap  # does not shrink away
    # TokenTM stays within a reasonable envelope of flat scaling.
    token_flat = (grid[("TokenTM", 32)].makespan
                  / grid[("TokenTM", 4)].makespan)
    assert token_flat < 4.0
