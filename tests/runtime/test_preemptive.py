"""Preemptive (multiprogrammed) executor tests.

More threads than cores: the executor time-shares, issuing the HTM's
context-switch instruction on every occupancy change.  TokenTM keeps
descheduled transactions' tokens through its flash-OR metabits;
OneTM forces switched transactions into the serialized overflow mode.
"""

import pytest

from repro.common.config import HTMConfig, RunConfig
from repro.common.errors import TransactionError
from repro.coherence.protocol import MemorySystem
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
from tests.conftest import SMALL_T, run_audited, small_system
from tests.integration.test_golden_stats import digest

B = 0xA000


def machine(variant="TokenTM", cores=2):
    cfg = HTMConfig(tokens_per_block=SMALL_T)
    return make_htm(variant, MemorySystem(small_system(cores=cores)), cfg)


def cfg(**kw):
    kw.setdefault("htm", HTMConfig(tokens_per_block=SMALL_T))
    return RunConfig(**kw)


def overcommitted_trace(nthreads=6, txns=4):
    threads = []
    for t in range(nthreads):
        ops = []
        for i in range(txns):
            ops.extend([
                begin(), read(B + 64 * t + i), compute(300),
                write(B + 64 * t + i + 32), commit(), compute(200),
            ])
        threads.append(ThreadTrace(t, ops))
    return WorkloadTrace("overcommit", threads)


class TestPreemptiveBasics:
    def test_all_transactions_commit(self):
        trace = overcommitted_trace()
        result = run_audited(machine(), trace, cfg(), timeslice=1000)
        assert result.stats.commits == trace.transaction_count()
        assert result.stats.preemptions > 0
        result.history.check_serializable(skew_tolerance=5000)

    @pytest.mark.parametrize("variant", [
        "TokenTM", "TokenTM_NoFast", "LogTM-SE_Perf",
        "LogTM-SE_4xH3", "OneTM",
    ])
    def test_variants_survive_overcommit(self, variant):
        trace = overcommitted_trace(nthreads=5, txns=3)
        result = run_audited(
            machine(variant), trace,
            cfg(), audit=variant.startswith("TokenTM"),
            timeslice=800,
        )
        assert result.stats.commits == trace.transaction_count()
        result.history.check_serializable(skew_tolerance=5000)

    def test_conflicting_overcommitted_threads(self):
        # All threads hammer one block while time-sharing two cores.
        threads = [
            ThreadTrace(t, sum(
                [[begin(), write(B), compute(100), commit(),
                  compute(50)] for _ in range(3)], []))
            for t in range(5)
        ]
        trace = WorkloadTrace("hot-overcommit", threads)
        result = run_audited(machine(), trace, cfg(), timeslice=500)
        assert result.stats.commits == 15
        result.history.check_serializable(skew_tolerance=5000)


class TestSwitchSemantics:
    def test_tokens_survive_timeslicing(self):
        """A transaction spanning several timeslices keeps isolation."""
        threads = [
            ThreadTrace(0, [begin(), write(B), compute(5_000), commit()]),
            ThreadTrace(1, [compute(600), begin(), read(B),
                            compute(100), commit()]),
            ThreadTrace(2, [compute(400)] * 10),
        ]
        trace = WorkloadTrace("span", threads)
        result = run_audited(machine(cores=2), trace, cfg(),
                             timeslice=1000, quantum=100)
        assert result.stats.commits == 2
        result.history.check_serializable(skew_tolerance=6000)

    def test_switched_tokentm_txn_commits_software(self):
        # With a timeslice smaller than the transaction, TokenTM
        # commits via the log walk (fast release forfeited by the
        # flash-OR), never losing tokens.
        threads = [
            ThreadTrace(t, [begin(), read(B + t), compute(3_000),
                            write(B + 16 + t), commit()])
            for t in range(4)
        ]
        trace = WorkloadTrace("sliced", threads)
        result = run_audited(machine(cores=2), trace, cfg(),
                             timeslice=700)
        assert result.stats.commits == 4
        # Every transaction outlived its timeslice: none can use the
        # fast path.
        assert result.stats.fast.count == 0

    def test_onetm_switch_forces_overflow(self):
        threads = [
            ThreadTrace(t, [begin(), read(B + 64 * t), compute(3_000),
                            write(B + 64 * t + 1), commit()])
            for t in range(4)
        ]
        trace = WorkloadTrace("onetm-sliced", threads)
        result = run_audited(machine("OneTM", cores=2), trace,
                             cfg(), audit=False, timeslice=700)
        assert result.stats.commits == 4
        assert result.stats.machine["overflow_serializations"] > 0

    def test_dedicated_mode_unaffected(self):
        # Threads == cores: each thread keeps its core, no switches.
        threads = [ThreadTrace(t, [begin(), read(B + t), commit()])
                   for t in range(2)]
        trace = WorkloadTrace("plain", threads)
        result = run_audited(machine(cores=2), trace, cfg())
        assert result.stats.preemptions == 0


class TestCoreRegister:
    """The HTM's per-core TID register names the running thread.

    TokenTM's flash-OR and OneTM's overflow detection both act on the
    thread a core's register names, so a stale slot makes them act on
    the wrong thread's state.
    """

    @pytest.mark.parametrize("variant",
                             ["TokenTM", "OneTM", "LogTM-SE_4xH3"])
    def test_running_thread_owns_exactly_its_core(self, variant,
                                                  monkeypatch):
        # The golden "preempt" setup: 8 threads on 4 cores, quantum 50.
        # Threads move between cores here; a moved thread must not
        # stay registered on the core it left.
        run_quantum = Executor._run_quantum
        checked = []
        misplaced = []

        def checking_quantum(executor, thread):
            if thread.in_txn:
                checked.append(thread.tid)
                slots = [core for core, tid
                         in enumerate(executor.htm._core_tid)
                         if tid == thread.tid]
                if slots != [thread.core]:
                    misplaced.append((thread.tid, thread.core, slots))
            run_quantum(executor, thread)

        monkeypatch.setattr(Executor, "_run_quantum", checking_quantum)
        digest("Delaunay", variant, "preempt")
        assert len(checked) > 1000
        assert misplaced == []

    @pytest.mark.parametrize("variant",
                             ["TokenTM", "OneTM", "LogTM-SE_4xH3"])
    def test_thread_on_two_cores_is_a_violation(self, variant):
        htm = machine(variant)
        htm.begin(0, 3)
        htm.check_invariants()
        htm._core_tid[1] = 3
        with pytest.raises(TransactionError, match="cores 0 and 1"):
            htm.check_invariants()
