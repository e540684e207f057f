"""Ablation G: L1 capacity vs fast token release (Section 4.4).

Fast release applies only while every transactional block stays in
the L1; the smaller the cache, the more transactions overflow into
the software log walk.  This sweep varies the L1 from 8 KB to 64 KB
on Vacation-Low (whose ~70-block read sets sit right at the paper's
32 KB boundary) and reports the fast-release fraction — the knob
behind Table 6's column 2.
"""

from dataclasses import replace

from repro.analysis.tables import format_table
from repro.common.config import CacheGeometry, SystemConfig
from repro.perf.runner import CellSpec

from benchmarks.conftest import BENCH_SEED, _bench_runner, emit

L1_SIZES_KB = (8, 16, 32, 64)
SCALE = 0.01


def _sweep(workloads):
    specs = [
        CellSpec(workloads["Vacation-Low"].spec, "TokenTM",
                 seed=BENCH_SEED, scale=SCALE,
                 system=replace(SystemConfig(),
                                l1=CacheGeometry(kb * 1024, 4)))
        for kb in L1_SIZES_KB
    ]
    cells = _bench_runner().run_cells(specs)
    return {kb: cell.stats for kb, cell in zip(L1_SIZES_KB, cells)}


def test_ablation_l1_size_sweep(benchmark, capsys, workloads):
    stats = benchmark.pedantic(_sweep, args=(workloads,),
                               rounds=1, iterations=1)
    rows = [
        (f"{kb} KB", f"{100 * s.fast_release_fraction:.1f}%",
         s.makespan, round(s.software.avg_release_cycles),
         s.machine["log_stall_cycles"])
        for kb, s in stats.items()
    ]
    emit(capsys, format_table(
        ["L1 size", "Fast release", "Makespan", "SW release (cyc)",
         "Log stall cycles"],
        rows,
        title="Ablation G. L1 capacity vs fast token release "
              f"(Vacation-Low, scale {SCALE})",
    ))

    fractions = [stats[kb].fast_release_fraction for kb in L1_SIZES_KB]
    # Bigger caches keep more transactions on the fast path
    # (monotone within noise).
    assert fractions[-1] > fractions[0]
    assert fractions == sorted(fractions) or \
        max(fractions[i] - fractions[i + 1]
            for i in range(len(fractions) - 1)) < 0.08
    # Everyone commits the same work regardless of cache size.
    assert len({s.commits for s in stats.values()}) == 1
