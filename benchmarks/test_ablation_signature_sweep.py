"""Ablation B: signature geometry sweep (the birthday paradox).

Zilles & Rajwar (cited by the paper) point out that Bloom-filter
conflict detection suffers birthday-paradox false positives as
transactions grow.  This ablation sweeps the LogTM-SE signature size
(256 bits to 8 Kbit) and hash count (1..4) on Delaunay and reports
false-positive conflicts and slowdown versus perfect signatures —
the design space TokenTM's precise tokens make irrelevant.
"""

from repro.analysis.tables import format_table
from repro.common.config import HTMConfig, SignatureConfig
from repro.perf.runner import CellSpec

from benchmarks.conftest import BENCH_SEED, _bench_runner, emit

SWEEP_BITS = (256, 1024, 2048, 8192)
SWEEP_HASHES = (1, 2, 4)
SCALE = 0.006


def _sweep(workloads):
    # Every cell runs the same Delaunay trace, generated once.
    spec = workloads["Delaunay"].spec
    points = [(bits, hashes) for bits in SWEEP_BITS
              for hashes in SWEEP_HASHES]
    specs = [CellSpec(spec, "LogTM-SE_Perf", seed=BENCH_SEED,
                      scale=SCALE)]
    specs += [
        CellSpec(spec, f"LogTM-SE_{hashes}xH3", seed=BENCH_SEED,
                 scale=SCALE,
                 htm=HTMConfig(signature=SignatureConfig(
                     bits=bits, num_hashes=hashes)))
        for bits, hashes in points
    ]
    baseline, *cells = _bench_runner().run_cells(specs)
    return baseline.stats, {
        point: cell.stats for point, cell in zip(points, cells)}


def test_ablation_signature_sweep(benchmark, capsys, workloads):
    baseline, grid = benchmark.pedantic(_sweep, args=(workloads,),
                                        rounds=1, iterations=1)
    rows = []
    for (bits, hashes), stats in sorted(grid.items()):
        rows.append((
            f"{bits}b / {hashes}xH3",
            round(baseline.makespan / max(1, stats.makespan), 3),
            stats.machine["false_positive_conflicts"],
            stats.aborts,
        ))
    emit(capsys, format_table(
        ["Signature", "Speedup vs Perf", "FP conflicts", "Aborts"],
        rows,
        title="Ablation B. Signature geometry sweep on Delaunay "
              f"(scale {SCALE})",
    ))

    # Bigger filters monotonically-ish reduce false positives.
    for hashes in SWEEP_HASHES:
        small_fp = grid[(256, hashes)].machine[
            "false_positive_conflicts"]
        big_fp = grid[(8192, hashes)].machine[
            "false_positive_conflicts"]
        assert big_fp < small_fp, f"{hashes} hashes"

    # Tiny signatures are catastrophic; big ones approach perfect.
    worst = baseline.makespan / grid[(256, 2)].makespan
    best = baseline.makespan / max(
        grid[(8192, h)].makespan for h in SWEEP_HASHES)
    assert worst < 0.5
    assert best > worst
