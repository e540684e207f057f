"""Property test: OneTM's overflow flag agrees with a residency walk.

OneTM decides that a transaction must overflow from coherence events
alone: an eviction or remote invalidation of a read- or write-set
block sets ``needs_token``.  The reference below is the residency walk
the machine once ran before every access instead: some set block is
missing from the L1 of the thread's core.  Random dedicated-mode
traces over a block pool larger than the tiny L1s (with and without a
``way_mask`` fault shrinking the L1s) must keep the two in step before
every transactional access of a transaction that has not overflowed
yet (an overflowed one never asks again, and may refetch lost blocks).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.config import HTMConfig, RunConfig
from repro.coherence.protocol import MemorySystem
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan, FaultSpec
from repro.htm import make_htm
from repro.runtime.executor import Executor
from repro.workloads.trace import (
    ThreadTrace,
    WorkloadTrace,
    begin,
    commit,
    compute,
    read,
    write,
)
from tests.conftest import SMALL_T, small_system

BASE = 0xB000
#: Twice the 16 lines of a small L1: transactions spill, and threads
#: share blocks, so both evictions and invalidations drop set blocks.
POOL = 32


def walk_says_lost(mem, core, txn) -> bool:
    """The old residency walk: a set block is not in ``core``'s L1."""
    cache = mem.cache(core)
    return any(cache.lookup(block) is None
               for block in txn.read_set | txn.write_set)


@st.composite
def traces(draw):
    threads = []
    for tid in range(draw(st.integers(2, 4))):
        ops = []
        for _ in range(draw(st.integers(1, 3))):
            ops.append(begin())
            for _ in range(draw(st.integers(1, 14))):
                block = BASE + draw(st.integers(0, POOL - 1))
                ops.append(write(block) if draw(st.booleans())
                           else read(block))
                ops.append(compute(draw(st.integers(1, 20))))
            ops.append(commit())
            ops.append(compute(draw(st.integers(1, 40))))
        threads.append(ThreadTrace(tid, ops))
    return WorkloadTrace("onetm-overflow", threads)


def run_checked(trace, seed=0, way_mask_every=None, ways=1):
    """Run ``trace`` on OneTM, comparing flag and walk per access.

    Returns (accesses checked, checks where the walk found a loss).
    """
    htm = make_htm("OneTM", MemorySystem(small_system()),
                   HTMConfig(tokens_per_block=SMALL_T))
    counts = [0, 0]

    def checked(access):
        def run(core, tid, block):
            txn = htm._txns[tid]
            if not txn.overflowed:
                lost = walk_says_lost(htm.mem, core, txn)
                assert txn.needs_token == lost, (tid, core, block)
                counts[0] += 1
                counts[1] += lost
            return access(core, tid, block)
        return run

    htm.read = checked(htm.read)
    htm.write = checked(htm.write)
    injector = None
    if way_mask_every is not None:
        plan = FaultPlan([FaultSpec("way_mask", every=way_mask_every,
                                    params={"ways": ways})])
        injector = FaultInjector(plan, seed=seed)
    executor = Executor(htm, trace,
                        RunConfig(htm=HTMConfig(tokens_per_block=SMALL_T),
                                  seed=seed),
                        quantum=1, track_history=False, injector=injector)
    stats = executor.run().stats
    assert stats.commits == trace.transaction_count()
    assert stats.preemptions == 0
    return counts


@given(traces(), st.integers(0, 3))
@settings(max_examples=40, deadline=None)
def test_flag_matches_walk(trace, seed):
    run_checked(trace, seed)


@given(traces(), st.integers(0, 3), st.integers(1, 6), st.integers(1, 3))
@settings(max_examples=40, deadline=None)
def test_flag_matches_walk_under_way_mask(trace, seed, every, ways):
    run_checked(trace, seed, way_mask_every=every, ways=ways)


def test_walk_reference_sees_losses():
    """The comparison is not vacuous: a transaction blocked behind the
    overflow token is checked while the walk finds its lost blocks."""
    big = [begin()]
    for i in range(24):
        big += [read(BASE + 4 * i), compute(5)]
    trace = WorkloadTrace("spill", [
        ThreadTrace(0, big + [commit()]),
        ThreadTrace(1, [compute(40)] + big + [commit()]),
    ])
    checked, lost = run_checked(trace)
    assert checked > 0 and lost > 0
