"""Flat (closed) transaction nesting tests."""

import pytest

from repro.common.config import HTMConfig, RunConfig
from repro.common.errors import TraceError
from repro.coherence.protocol import MemorySystem
from repro.htm import make_htm
from repro.workloads.trace import (
    ThreadTrace,
    WorkloadTrace,
    begin,
    commit,
    compute,
    read,
    validate_trace,
    write,
)
from tests.conftest import SMALL_T, run_audited, small_system

B = 0xB000


def machine():
    return make_htm("TokenTM", MemorySystem(small_system()),
                    HTMConfig(tokens_per_block=SMALL_T))


def cfg():
    return RunConfig(htm=HTMConfig(tokens_per_block=SMALL_T))


def nested_ops():
    return [
        begin(),
        read(B),
        begin(),            # nested
        write(B + 1),
        begin(),            # doubly nested
        read(B + 2),
        commit(),
        commit(),
        write(B + 3),
        commit(),           # outermost
    ]


class TestValidation:
    def test_nested_trace_validates(self):
        validate_trace(WorkloadTrace("n", [ThreadTrace(0, nested_ops())]))

    def test_unbalanced_nesting_rejected(self):
        with pytest.raises(TraceError):
            validate_trace(WorkloadTrace("n", [
                ThreadTrace(0, [begin(), begin(), commit()])
            ]))

    def test_transaction_count_is_outermost_only(self):
        trace = WorkloadTrace("n", [ThreadTrace(0, nested_ops())])
        assert trace.transaction_count() == 1


class TestExecution:
    def test_nested_region_commits_once(self):
        trace = WorkloadTrace("n", [ThreadTrace(0, nested_ops())])
        result = run_audited(machine(), trace, cfg())
        assert result.stats.commits == 1
        # The whole region is one transaction: all four blocks in it.
        assert result.stats.avg_read_set == 2.0
        assert result.stats.avg_write_set == 2.0
        result.history.check_serializable()

    def test_nested_region_is_atomic_under_conflict(self):
        # Thread 1 (older) writes B+1, which thread 0 writes inside
        # its *inner* transaction — the conflict must roll thread 0
        # back to its OUTERMOST begin, re-running everything.
        threads = [
            ThreadTrace(0, [compute(20)] + nested_ops()),
            ThreadTrace(1, [begin(), write(B + 1), compute(400),
                            commit()]),
        ]
        trace = WorkloadTrace("n2", threads)
        result = run_audited(machine(), trace, cfg(), quantum=1)
        assert result.stats.commits == 2
        result.history.check_serializable()

    def test_isolation_spans_nesting(self):
        # A block written in the inner transaction stays isolated
        # until the OUTER commit.
        htm = machine()
        trace = WorkloadTrace("n3", [
            ThreadTrace(0, [begin(), begin(), write(B), commit(),
                            compute(1_000), commit()]),
            ThreadTrace(1, [compute(200), begin(), read(B),
                            commit()]),
        ])
        result = run_audited(htm, trace, cfg(), quantum=1)
        assert result.stats.commits == 2
        result.history.check_serializable()
