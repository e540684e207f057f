"""Executor tests: traces through real machines, end to end."""

import pytest

from repro.common.config import HTMConfig, RunConfig
from repro.common.errors import SimulationError
from repro.coherence.protocol import MemorySystem
from repro.htm import make_htm
from repro.runtime.executor import Executor
from repro.workloads.trace import (
    ThreadTrace,
    WorkloadTrace,
    begin,
    commit,
    compute,
    lock,
    nt_read,
    nt_write,
    read,
    syscall,
    unlock,
    write,
)
from tests.conftest import SMALL_T, run_audited, small_system

B = 0x7000


def machine(variant="TokenTM", cores=4):
    cfg = HTMConfig(tokens_per_block=SMALL_T)
    return make_htm(variant, MemorySystem(small_system(cores=cores)), cfg)


def run_cfg(**kw):
    kw.setdefault("htm", HTMConfig(tokens_per_block=SMALL_T))
    return RunConfig(**kw)


def single_thread_trace(ops, name="t"):
    return WorkloadTrace(name, [ThreadTrace(0, ops)])


class TestSequential:
    def test_one_transaction(self):
        trace = single_thread_trace(
            [begin(), read(B), write(B + 1), commit()]
        )
        result = run_audited(machine(), trace, run_cfg())
        assert result.stats.commits == 1
        assert result.stats.aborts == 0
        assert result.stats.makespan > 0
        result.history.check_serializable()

    def test_compute_advances_clock(self):
        trace = single_thread_trace([compute(1000)])
        result = run_audited(machine(), trace, run_cfg())
        assert result.stats.makespan >= 1000

    def test_nontxn_accesses(self):
        trace = single_thread_trace([nt_read(B), nt_write(B + 1)])
        result = run_audited(machine(), trace, run_cfg())
        assert result.stats.makespan > 0

    def test_set_sizes_recorded(self):
        trace = single_thread_trace(
            [begin(), read(B), read(B + 1), write(B + 2), commit()]
        )
        result = run_audited(machine(), trace, run_cfg())
        assert result.stats.avg_read_set == 2.0
        assert result.stats.avg_write_set == 1.0
        assert result.stats.max_read_set == 2


class TestConcurrent:
    def test_disjoint_transactions_all_commit(self):
        threads = [
            ThreadTrace(t, [begin(), read(B + 16 * t),
                            write(B + 16 * t + 1), commit()])
            for t in range(4)
        ]
        trace = WorkloadTrace("disjoint", threads)
        result = run_audited(machine(), trace, run_cfg())
        assert result.stats.commits == 4
        assert result.stats.aborts == 0
        result.history.check_serializable()

    @pytest.mark.parametrize("variant", [
        "TokenTM", "TokenTM_NoFast", "LogTM-SE_Perf",
        "LogTM-SE_4xH3", "OneTM",
    ])
    def test_conflicting_writers_serialize(self, variant):
        threads = [
            ThreadTrace(t, [begin(), write(B), compute(50),
                            write(B + 1), commit()])
            for t in range(4)
        ]
        trace = WorkloadTrace("hot", threads)
        result = run_audited(machine(variant), trace,
                             run_cfg(), audit=variant.startswith("TokenTM"),
                             quantum=1)
        assert result.stats.commits == 4
        result.history.check_serializable()

    @pytest.mark.parametrize("variant", [
        "TokenTM", "LogTM-SE_Perf", "OneTM",
    ])
    def test_reader_writer_contention(self, variant):
        threads = [
            ThreadTrace(0, [begin(), read(B), compute(200), commit()]),
            ThreadTrace(1, [begin(), write(B), compute(200), commit()]),
            ThreadTrace(2, [begin(), read(B), compute(200), commit()]),
        ]
        trace = WorkloadTrace("rw", threads)
        result = run_audited(machine(variant), trace,
                             run_cfg(), audit=variant == "TokenTM",
                             quantum=1)
        assert result.stats.commits == 3
        result.history.check_serializable()

    def test_repeated_transactions(self):
        threads = [
            ThreadTrace(t, sum(
                [[begin(), read(B + t), write(B + 8 + t), commit(),
                  compute(20)] for _ in range(10)], []))
            for t in range(4)
        ]
        trace = WorkloadTrace("loop", threads)
        result = run_audited(machine(), trace, run_cfg())
        assert result.stats.commits == 40
        result.history.check_serializable()


class TestAbortRestart:
    def test_victim_reruns_from_begin(self):
        # Thread 0 (older) writes B after thread 1 read it; thread 1
        # gets doomed and must retry, eventually committing.
        threads = [
            ThreadTrace(0, [compute(5), begin(), write(B),
                            compute(500), commit()]),
            ThreadTrace(1, [compute(30), begin(), read(B),
                            compute(50), commit()]),
        ]
        trace = WorkloadTrace("doom", threads)
        result = run_audited(machine(), trace, run_cfg(), quantum=1)
        assert result.stats.commits == 2
        result.history.check_serializable()

    def test_abort_counts_recorded(self):
        threads = [
            ThreadTrace(t, sum(
                [[begin(), write(B), compute(100), commit()]
                 for _ in range(5)], []))
            for t in range(4)
        ]
        trace = WorkloadTrace("contend", threads)
        result = run_audited(machine(), trace, run_cfg(), quantum=1)
        assert result.stats.commits == 20
        # With four writers on one block, some aborts are inevitable.
        assert result.stats.aborts + result.stats.stall_events > 0
        result.history.check_serializable()


class TestLocks:
    def test_lock_mutual_exclusion(self):
        threads = [
            ThreadTrace(t, [lock(1), compute(100), unlock(1)])
            for t in range(3)
        ]
        trace = WorkloadTrace("locks", threads)
        result = run_audited(machine(), trace, run_cfg())
        assert result.stats.makespan >= 300  # serialized critical sections

    def test_syscall_advances_clock(self):
        trace = single_thread_trace([lock(1), syscall(5000), unlock(1)])
        result = run_audited(machine(), trace, run_cfg())
        assert result.stats.makespan >= 5000

    def test_unlock_not_held_rejected(self):
        trace = WorkloadTrace("bad", [ThreadTrace(0, [unlock(1)])])
        with pytest.raises(SimulationError):
            run_audited(machine(), trace, run_cfg(), validate=False)


class TestLimits:
    def test_overcommit_defaults_to_preemption(self):
        threads = [ThreadTrace(t, [compute(10)]) for t in range(8)]
        trace = WorkloadTrace("big", threads)
        htm = machine(cores=4)
        result = Executor(htm, trace, run_cfg()).run()
        htm.audit()
        assert result.stats.makespan >= 10


class TestDeterminism:
    def test_same_seed_same_result(self):
        def go():
            threads = [
                ThreadTrace(t, sum(
                    [[begin(), write(B), compute(30), commit()]
                     for _ in range(5)], []))
                for t in range(4)
            ]
            trace = WorkloadTrace("det", threads)
            return run_audited(machine(), trace,
                               run_cfg(seed=9)).stats.makespan
        assert go() == go()
