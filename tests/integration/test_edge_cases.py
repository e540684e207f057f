"""Edge-case integration tests across the executor and machines."""

import pytest

from repro.common.config import HTMConfig, RunConfig
from repro.coherence.protocol import MemorySystem
from repro.htm import make_htm
from repro.workloads.trace import (
    ThreadTrace,
    WorkloadTrace,
    begin,
    commit,
    compute,
    nt_write,
    read,
    write,
)
from tests.conftest import SMALL_T, run_audited, small_system

B = 0xE000


def machine(variant="TokenTM", cores=4):
    return make_htm(variant, MemorySystem(small_system(cores=cores)),
                    HTMConfig(tokens_per_block=SMALL_T))


def cfg(**kw):
    kw.setdefault("htm", HTMConfig(tokens_per_block=SMALL_T))
    return RunConfig(**kw)


class TestDoomAtCommit:
    def test_doomed_thread_aborts_before_committing(self):
        """A transaction doomed while sitting at its COMMIT op must
        abort and re-run, not commit stale work."""
        threads = [
            # Thread 0 (older) writes B late, dooming thread 1 which
            # read B and is long since waiting at its commit point.
            ThreadTrace(0, [begin(), compute(500), write(B),
                            commit()]),
            ThreadTrace(1, [compute(20), begin(), read(B),
                            compute(2000), commit()]),
        ]
        trace = WorkloadTrace("doom-at-commit", threads)
        result = run_audited(machine(), trace, cfg(), quantum=1)
        assert result.stats.commits == 2
        result.history.check_serializable()


class TestNontxnDooming:
    def test_nontxn_write_dooms_reader(self):
        threads = [
            ThreadTrace(0, [begin(), read(B), compute(5_000), commit()]),
            ThreadTrace(1, [compute(100), nt_write(B), compute(10)]),
        ]
        trace = WorkloadTrace("nt-doom", threads)
        result = run_audited(machine(), trace, cfg(), quantum=1)
        # The transaction was doomed by the non-transactional write
        # and re-ran; both threads finish.
        assert result.stats.commits == 1
        assert result.stats.aborts >= 1

    @pytest.mark.parametrize("variant", ["LogTM-SE_Perf", "OneTM"])
    def test_nontxn_write_dooms_on_other_variants(self, variant):
        threads = [
            ThreadTrace(0, [begin(), read(B), compute(5_000), commit()]),
            ThreadTrace(1, [compute(100), nt_write(B), compute(10)]),
        ]
        trace = WorkloadTrace("nt-doom", threads)
        result = run_audited(machine(variant), trace,
                             cfg(), audit=False, quantum=1)
        assert result.stats.commits == 1


class TestRepeatedAbortRecovery:
    def test_books_balance_through_many_aborts(self):
        htm = machine()
        threads = [
            ThreadTrace(t, sum(
                [[begin(), write(B), write(B + 1), compute(50),
                  commit()] for _ in range(6)], []))
            for t in range(4)
        ]
        trace = WorkloadTrace("churn", threads)
        result = run_audited(htm, trace, cfg(), quantum=1)
        assert result.stats.commits == 24
        htm.audit()  # all tokens home after the churn
        result.history.check_serializable()


class TestMixedTxnAndLocks:
    def test_transactions_and_locks_coexist(self):
        threads = [
            ThreadTrace(0, [begin(), write(B), commit(),
                            compute(10)]),
            ThreadTrace(1, [compute(5), begin(), read(B + 1),
                            commit()]),
        ]
        from repro.workloads.trace import lock, unlock
        threads[0].ops.extend([lock(9), compute(100), unlock(9)])
        threads[1].ops.extend([lock(9), compute(100), unlock(9)])
        trace = WorkloadTrace("mixed", threads)
        result = run_audited(machine(), trace, cfg())
        assert result.stats.commits == 2


class TestWriteOnlyTransactions:
    @pytest.mark.parametrize("variant", [
        "TokenTM", "LogTM-SE_Perf", "OneTM",
    ])
    def test_blind_writes(self, variant):
        threads = [
            ThreadTrace(t, [begin(), write(B + t), write(B + 8 + t),
                            commit()])
            for t in range(4)
        ]
        trace = WorkloadTrace("blind", threads)
        result = run_audited(
            machine(variant), trace,
            cfg(), audit=variant == "TokenTM",
        )
        assert result.stats.commits == 4
        assert result.stats.avg_read_set == 0.0
        assert result.stats.avg_write_set == 2.0


class TestSameBlockReadWriteChains:
    def test_upgrade_chains_across_threads(self):
        # Each thread reads then writes the same block: a chain of
        # read-to-write upgrades with conflicts in between.
        threads = [
            ThreadTrace(t, [begin(), read(B), compute(30), write(B),
                            commit(), compute(50)])
            for t in range(4)
        ]
        trace = WorkloadTrace("upgrade-chain", threads)
        htm = machine()
        result = run_audited(htm, trace, cfg(), quantum=1)
        assert result.stats.commits == 4
        htm.audit()
        result.history.check_serializable()
