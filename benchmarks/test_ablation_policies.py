"""Ablation F: contention-management policies (Section 5.2).

Conflicts trap to a *software* contention manager, so the resolution
policy is a free design variable.  This ablation runs Barnes
(short, contended critical-section transactions, where the policies'
abort behaviour differs cleanly without thrash risk) under three
policies on TokenTM:

* **timestamp** (the paper's choice): oldest wins — starvation-free;
* **requester-loses**: polite, never kills a victim;
* **requester-wins**: aggressive, always kills the holders.
"""

from repro.analysis.tables import format_table
from repro.perf.runner import CellSpec
from repro.runtime.contention import POLICIES

from benchmarks.conftest import BENCH_SEED, _bench_runner, emit

SCALE = 0.3


def _sweep(workloads):
    specs = [
        CellSpec(workloads["Barnes"].spec, "TokenTM", seed=BENCH_SEED,
                 scale=SCALE, policy=policy)
        for policy in POLICIES
    ]
    cells = _bench_runner().run_cells(specs)
    return {policy: cell.stats for policy, cell in zip(POLICIES, cells)}


def test_ablation_contention_policies(benchmark, capsys, workloads):
    stats = benchmark.pedantic(_sweep, args=(workloads,),
                               rounds=1, iterations=1)
    base = stats["timestamp"].makespan
    rows = [
        (name, s.makespan, round(base / max(1, s.makespan), 2),
         s.aborts, s.stall_cycles, s.backoff_cycles)
        for name, s in stats.items()
    ]
    emit(capsys, format_table(
        ["Policy", "Makespan", "Speedup vs timestamp", "Aborts",
         "Stall cycles", "Backoff cycles"],
        rows,
        title="Ablation F. Contention policies on Barnes "
              f"(TokenTM, scale {SCALE})",
    ))

    commits = {s.commits for s in stats.values()}
    assert len(commits) == 1  # every policy completes the workload
    # The polite policy burns more aborts than timestamp's oldest-wins
    # (the requester aborts even when it deserved to win).
    assert (stats["requester-loses"].aborts
            >= stats["timestamp"].aborts * 0.8)
    # Aggressive dooming wastes victims' work: at least as many aborts
    # as timestamp, usually far more.
    assert (stats["requester-wins"].aborts
            >= stats["timestamp"].aborts * 0.8)
    # Timestamp should be competitive with both (within 2x of best).
    best = min(s.makespan for s in stats.values())
    assert stats["timestamp"].makespan <= 2 * best
