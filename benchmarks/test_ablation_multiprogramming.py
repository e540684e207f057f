"""Ablation E: multiprogramming (context switches inside transactions).

Section 5.3/4.4: TokenTM "gracefully handles context switching" — the
flash-OR frees the core in constant time, descheduled transactions
keep their tokens, and the only penalty is losing fast release.
OneTM, by contrast, must push every switched transaction through its
single overflow token.

This bench over-commits 32 cores with 64 threads on the Genome mix
(low true contention, so scheduling effects dominate) with a
timeslice comparable to its transaction lengths, so many switches
land mid-transaction.
"""

from repro.analysis.tables import format_table
from repro.perf.runner import CellSpec

from benchmarks.conftest import BENCH_SEED, _bench_runner, emit

THREADS = 64
TIMESLICE = 3_000
VARIANTS = ("TokenTM", "LogTM-SE_Perf", "OneTM")


def _sweep(workloads):
    spec = workloads["Genome"].spec
    specs = [
        CellSpec(spec, variant, seed=BENCH_SEED,
                 scale=THREADS * 10 / spec.total_txns, threads=THREADS,
                 timeslice=TIMESLICE)
        for variant in VARIANTS
    ]
    cells = _bench_runner().run_cells(specs)
    return {variant: cell.stats for variant, cell in zip(VARIANTS, cells)}


def test_ablation_multiprogramming(benchmark, capsys, workloads):
    stats = benchmark.pedantic(_sweep, args=(workloads,),
                               rounds=1, iterations=1)
    rows = []
    for variant, s in stats.items():
        rows.append((
            variant, s.makespan, s.commits, s.preemptions,
            f"{100 * s.fast_release_fraction:.0f}%",
            s.machine.get("overflow_serializations", 0),
        ))
    emit(capsys, format_table(
        ["Variant", "Makespan", "Commits", "Preemptions",
         "Fast release", "OneTM overflows"],
        rows,
        title=f"Ablation E. {THREADS} threads on 32 cores, "
              f"{TIMESLICE}-cycle timeslices (Genome mix)",
    ))

    token = stats["TokenTM"]
    perf = stats["LogTM-SE_Perf"]
    onetm = stats["OneTM"]
    for s in stats.values():
        assert s.commits == token.commits  # everyone finishes the work
        assert s.preemptions > 0
    # TokenTM tracks the perfect baseline under heavy switching.
    assert token.makespan < 1.5 * perf.makespan
    # OneTM's forced-overflow serialization costs it clearly.
    assert onetm.makespan > 1.3 * token.makespan
    assert onetm.machine["overflow_serializations"] > 0
    # Mid-transaction switches forfeit fast release for the sliced
    # transactions (some small ones still fit inside a slice).
    assert token.fast_release_fraction < 0.9
