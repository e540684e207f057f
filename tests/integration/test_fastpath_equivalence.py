"""The interned L1 hit must be invisible in simulated results.

Runs a small workload x variant grid twice — the production path,
whose pure L1 hits go through ``MemorySystem.fast_hit``, and
:func:`run_case` on the reference memory system, whose plain L1 hit
never does — and requires byte-identical :class:`RunStats` snapshots:
traces, scheduling (including preemption), conflicts, token release,
everything.
"""

import pytest

from repro.analysis.experiments import run_cell, run_trace
from repro.coherence.protocol import MemorySystem
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
    slow, mem = run_case(trace, variant, seed=7, reference=True)
    assert mem.fastpath.coherence_read_hits == 0
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
                       audit=True, reference=True)
    assert fast.preemptions > 0
    assert fast.snapshot() == slow.snapshot()


def test_fast_hit_calls_equal_pure_hit_counters(monkeypatch):
    """One ``fast_hit`` call per pure hit on a whole run: the counters
    perfbench's traced pass compares against its call count.  It also
    guards the equivalence above against passing vacuously."""
    calls = []
    fast_hit = MemorySystem.fast_hit

    def counted(self, core, line, is_write):
        calls.append(is_write)
        return fast_hit(self, core, line, is_write)

    monkeypatch.setattr(MemorySystem, "fast_hit", counted)
    trace = cholesky().generate(seed=7, scale=0.004, threads=4)
    stats, mem = run_case(trace, "TokenTM", seed=7)
    assert stats.commits > 0
    fp = mem.fastpath
    assert calls.count(False) == fp.coherence_read_hits > 0
    assert calls.count(True) == fp.coherence_write_hits > 0
    assert len(calls) == mem.stats.l1_hits
