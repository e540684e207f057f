"""Property tests: randomized traces keep system-wide invariants.

These are the heavyweight oracles: hypothesis generates small random
multi-threaded transactional workloads over a handful of hot blocks
(maximizing conflicts), runs them through the machines, and checks

* every transaction eventually commits (timestamp policy is live),
* the committed history is serializable,
* TokenTM's double-entry books balance at the end (audit) and
  mid-run (invariant monitor), and
* all variants commit the same transaction count on the same trace.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.config import HTMConfig, RunConfig
from repro.coherence.protocol import MemorySystem
from repro.htm import make_htm
from repro.faults.monitor import InvariantMonitor
from repro.runtime.executor import run_workload
from repro.workloads.trace import (
    ThreadTrace,
    WorkloadTrace,
    begin,
    commit,
    compute,
    nt_read,
    nt_write,
    read,
    write,
)
from tests.conftest import SMALL_T, run_audited, small_system

BASE = 0x9000
HOT_BLOCKS = 6  # tiny block pool -> dense conflicts


@st.composite
def txn_body(draw):
    """A few transactional accesses over the hot pool."""
    ops = []
    for _ in range(draw(st.integers(1, 5))):
        block = BASE + draw(st.integers(0, HOT_BLOCKS - 1))
        if draw(st.booleans()):
            ops.append(write(block))
        else:
            ops.append(read(block))
        ops.append(compute(draw(st.integers(1, 30))))
    return ops


@st.composite
def thread_ops(draw):
    ops = []
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.integers(0, 4)) == 0:
            # Occasional non-transactional access (strong atomicity).
            block = BASE + draw(st.integers(0, HOT_BLOCKS - 1))
            ops.append(nt_write(block) if draw(st.booleans())
                       else nt_read(block))
        ops.append(begin())
        ops.extend(draw(txn_body()))
        ops.append(commit())
        ops.append(compute(draw(st.integers(1, 50))))
    return ops


@st.composite
def workloads(draw):
    nthreads = draw(st.integers(2, 4))
    threads = [ThreadTrace(t, draw(thread_ops())) for t in range(nthreads)]
    return WorkloadTrace("prop", threads)


def _machine(variant):
    return make_htm(variant, MemorySystem(small_system()),
                    HTMConfig(tokens_per_block=SMALL_T))


def _cfg(seed):
    return RunConfig(htm=HTMConfig(tokens_per_block=SMALL_T), seed=seed)


@given(workloads(), st.integers(0, 3))
@settings(max_examples=60, deadline=None)
def test_tokentm_random_traces(trace, seed):
    expected = trace.transaction_count()
    result = run_audited(_machine("TokenTM"), trace, _cfg(seed),
                         quantum=1)
    assert result.stats.commits == expected
    result.history.check_serializable()


@given(workloads(), st.integers(0, 2))
@settings(max_examples=25, deadline=None)
def test_all_variants_commit_everything(trace, seed):
    expected = trace.transaction_count()
    for variant in ("TokenTM", "TokenTM_NoFast", "LogTM-SE_Perf",
                    "LogTM-SE_2xH3", "OneTM"):
        result = run_audited(_machine(variant), trace, _cfg(seed),
                             audit=variant.startswith("TokenTM"), quantum=1)
        assert result.stats.commits == expected, variant
        result.history.check_serializable()


@given(workloads())
@settings(max_examples=25, deadline=None)
def test_tokentm_books_balance_midway(trace):
    """The books balance mid-run, with transactions in flight.

    The invariant monitor runs TokenTM's full check (coherence, token
    books, undo-log shape) after every one-cycle quantum and halts on
    the first imbalance.
    """
    monitor = InvariantMonitor(cadence=1, halt=True)
    result = run_workload(_machine("TokenTM"), trace, _cfg(1), quantum=1,
                          monitor=monitor)
    assert result.stats.commits == trace.transaction_count()
    assert monitor.checks_run > 1
