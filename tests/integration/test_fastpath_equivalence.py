"""The coherence hit filter must be invisible in simulated results.

Runs a small workload x variant grid twice — the production path with
the filter on, and :func:`run_case` with it off — and requires
byte-identical :class:`RunStats` snapshots: traces, scheduling
(including preemption), conflicts, token release, everything.
"""

import pytest

from repro.analysis.experiments import run_cell, run_trace
from repro.workloads import cholesky, genome, vacation_high

from tests.integration.test_golden_stats import run_case

GRID = [
    (cholesky, "TokenTM", 0.004),
    (cholesky, "LogTM-SE_4xH3", 0.004),
    (vacation_high, "TokenTM", 0.004),
    (genome, "OneTM", 0.002),
]


@pytest.mark.parametrize("workload,variant,scale", GRID,
                         ids=[f"{w.__name__}-{v}" for w, v, _ in GRID])
def test_runstats_identical_across_modes(workload, variant, scale):
    fast = run_cell(workload(), variant, scale=scale, seed=7)
    trace = workload().generate(seed=7, scale=scale, threads=32)
    slow, _ = run_case(trace, variant, seed=7, filtered=False)
    assert fast.stats.snapshot() == slow.snapshot()


def test_identical_under_preemption():
    """A tiny quantum maximizes context switches and migrations,
    which spill metastate and move lines between L1s."""
    from repro.common.config import SystemConfig

    system = SystemConfig().scaled(4)   # 8 threads on 4 cores
    trace = vacation_high().generate(seed=9, scale=0.004, threads=8)
    fast = run_trace(trace, "TokenTM", system=system, seed=9,
                     quantum=25, audit=True)
    slow, _ = run_case(trace, "TokenTM", system, seed=9, quantum=25,
                       audit=True, filtered=False)
    assert fast.preemptions > 0
    assert fast.snapshot() == slow.snapshot()


def test_fast_path_actually_fires():
    """Guard against the equivalence passing vacuously because the
    filters never engage on real workloads."""
    from repro.common.config import HTMConfig, RunConfig, SystemConfig
    from repro.coherence.protocol import MemorySystem
    from repro.htm import make_htm
    from repro.runtime.executor import run_workload

    trace = cholesky().generate(seed=7, scale=0.004, threads=4)
    mem = MemorySystem(SystemConfig())
    machine = make_htm("TokenTM", mem, HTMConfig())
    run_workload(machine, trace, RunConfig(seed=7))
    fp = mem.fastpath.snapshot()
    assert fp["coherence_read_hits"] + fp["coherence_write_hits"] > 0
