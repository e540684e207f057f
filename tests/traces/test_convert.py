"""Converter tests: lowering, remap policies, dependency edges."""

import pytest

from repro.common.errors import ConfigError, TraceError
from repro.traces.convert import (
    FLOP_COST,
    IOP_COST,
    REMAP_SPACE,
    ConvertOptions,
    convert_events,
)
from repro.traces.events import parse_lines
from repro.workloads.base import SHARED_REGION_BASE
from repro.workloads.trace import (
    OP_BEGIN,
    OP_COMMIT,
    OP_COMPUTE,
    OP_LOCK,
    OP_NT_READ,
    OP_NT_WRITE,
    OP_READ,
    OP_SIGNAL,
    OP_SYSCALL,
    OP_UNLOCK,
    OP_WAIT,
    OP_WRITE,
)


def convert(lines, **options):
    return convert_events(lambda: parse_lines(list(lines)), "t",
                          options=ConvertOptions(**options))


def ops_of(trace, tid):
    return next(t.ops for t in trace.threads if t.thread_id == tid)


class TestComputeLowering:
    def test_iop_flop_costs(self):
        trace = convert(["0,0,10,3,0,0"])
        assert (IOP_COST, FLOP_COST) == (1, 2)
        assert ops_of(trace, 0) == [(OP_COMPUTE, 16)]

    def test_zero_work_emits_no_compute(self):
        trace = convert(["0,0,0,0,1,0 # 0"])
        assert ops_of(trace, 0) == [(OP_NT_READ, SHARED_REGION_BASE)]

    def test_accesses_fold_to_blocks(self):
        # A 256-byte read at 0x40 spans blocks 1..4 (shift 6).
        trace = convert(["0,0,0,0,1,0 # 0x40:256"], remap="none")
        assert ops_of(trace, 0) == [(OP_NT_READ, b) for b in (1, 2, 3, 4)]

    def test_default_accesses_are_non_transactional(self):
        trace = convert(["0,0,0,0,1,1 # 0 # * 64"], remap="none")
        assert ops_of(trace, 0) == [(OP_NT_READ, 0), (OP_NT_WRITE, 1)]


class TestRemapPolicies:
    def test_dense_interns_first_seen(self):
        trace = convert(["0,0,0,0,2,0 # 0x4000 0x0",
                         "1,0,0,0,1,0 # 0x4000"])
        assert ops_of(trace, 0) == [
            (OP_NT_READ, SHARED_REGION_BASE),      # 0x4000 seen first
            (OP_NT_READ, SHARED_REGION_BASE + 1),  # then 0x0
            (OP_NT_READ, SHARED_REGION_BASE),      # interned
        ]

    def test_mod_wraps_into_space(self):
        # Blocks REMAP_SPACE + 5 and 2 * REMAP_SPACE + 5 alias; block
        # REMAP_SPACE - 1 stays put.
        blocks = (REMAP_SPACE + 5, 2 * REMAP_SPACE + 5, REMAP_SPACE - 1)
        trace = convert(["0,0,0,0,3,0 # "
                         + " ".join(hex(b << 6) for b in blocks)],
                        remap="mod")
        assert REMAP_SPACE == 1 << 18
        assert ops_of(trace, 0) == [
            (OP_NT_READ, SHARED_REGION_BASE + 5),
            (OP_NT_READ, SHARED_REGION_BASE + 5),
            (OP_NT_READ, SHARED_REGION_BASE + REMAP_SPACE - 1),
        ]

    def test_none_keeps_raw_blocks(self):
        trace = convert(["0,0,0,0,1,0 # 0x9000"], remap="none")
        assert ops_of(trace, 0) == [(OP_NT_READ, 0x9000 >> 6)]

    def test_unknown_policy_rejected(self):
        with pytest.raises(ConfigError):
            ConvertOptions(remap="zigzag")


class TestTransactify:
    LINES = ["0,0,pth_ty:1^7", "1,0,0,0,1,1 # 0 # * 64", "2,0,pth_ty:2^7"]

    def test_off_keeps_locks(self):
        trace = convert(self.LINES, remap="none")
        assert ops_of(trace, 0) == [
            (OP_LOCK, 7), (OP_NT_READ, 0), (OP_NT_WRITE, 1),
            (OP_UNLOCK, 7),
        ]

    def test_on_brackets_transactions(self):
        trace = convert(self.LINES, remap="none", transactify=True)
        assert ops_of(trace, 0) == [
            (OP_BEGIN, 0), (OP_READ, 0), (OP_WRITE, 1), (OP_COMMIT, 0),
        ]

    def test_unmatched_lock_at_end_rejected(self):
        with pytest.raises(TraceError, match="ends inside"):
            convert(["0,0,pth_ty:1^7"], transactify=True)

    def test_unlock_without_lock_rejected(self):
        with pytest.raises(TraceError, match="never"):
            convert(["0,0,pth_ty:2^7"], transactify=True)

    def test_dependency_inside_section_rejected(self):
        with pytest.raises(TraceError, match="barrier inside"):
            convert(["0,0,pth_ty:1^7", "1,0,pth_ty:5^1",
                     "2,0,pth_ty:2^7"], transactify=True)


class TestDependencyLowering:
    def test_barrier_counts_participants_per_episode(self):
        # Threads 0 and 1 hit barrier 9 once; thread 0 hits it again.
        trace = convert(["0,0,pth_ty:5^9", "0,1,pth_ty:5^9",
                         "1,0,pth_ty:5^9"])
        t0 = ops_of(trace, 0)
        assert t0[0][0] == OP_SIGNAL and t0[1][0] == OP_WAIT
        first_episode = trace.waits[t0[1][1]]
        assert first_episode == (t0[0][1], 2)  # 2 participants
        second_episode = trace.waits[t0[3][1]]
        assert second_episode[1] == 1          # thread 0 alone

    def test_create_join_edges(self):
        trace = convert(["0,0,pth_ty:3^1", "0,1,1,0,0,0",
                         "1,0,pth_ty:4^1"])
        t0, t1 = ops_of(trace, 0), ops_of(trace, 1)
        assert t0[0][0] == OP_SIGNAL           # create
        assert t1[0][0] == OP_WAIT             # child waits for create
        assert trace.waits[t1[0][1]] == (t0[0][1], 1)
        assert t1[-1][0] == OP_SIGNAL          # child signals join
        assert t0[-1][0] == OP_WAIT            # joiner waits
        assert trace.waits[t0[-1][1]] == (t1[-1][1], 1)

    def test_create_of_unknown_thread_rejected(self):
        with pytest.raises(TraceError, match="no\\s+events"):
            convert(["0,0,pth_ty:3^5"])

    def test_comm_edge_orders_consumer_after_producer(self):
        trace = convert(["0,0,0,0,0,1 # * 0x40", "0,1 # 0 0 0x40"],
                        remap="none")
        t0, t1 = ops_of(trace, 0), ops_of(trace, 1)
        assert t0 == [(OP_NT_WRITE, 1), (OP_SIGNAL, t0[-1][1])]
        assert t1[0][0] == OP_WAIT
        assert trace.waits[t1[0][1]] == (t0[-1][1], 1)
        assert t1[1] == (OP_NT_READ, 1)

    def test_comm_self_edge_rejected(self):
        with pytest.raises(TraceError, match="itself"):
            convert(["0,0,0,0,0,1 # * 0x40", "1,0 # 0 0 0x40"])

    def test_condvar_is_broadcast_monotonic(self):
        trace = convert(["0,0,pth_ty:7^3", "1,0,pth_ty:7^3",
                         "0,1,pth_ty:6^3", "1,1,pth_ty:6^3"])
        t1 = ops_of(trace, 1)
        sid = ops_of(trace, 0)[0][1]
        assert trace.waits[t1[0][1]] == (sid, 1)  # first wait: 1 signal
        assert trace.waits[t1[1][1]] == (sid, 2)  # second wait: 2

    def test_condvar_deficit_rejected_before_emit(self):
        with pytest.raises(TraceError, match="deadlock"):
            convert(["0,0,pth_ty:7^3", "0,1,pth_ty:6^3",
                     "1,1,pth_ty:6^3"])

    def test_syscall_lowers_with_cost(self):
        trace = convert(["0,0,pth_ty:8^70"])
        assert ops_of(trace, 0) == [(OP_SYSCALL, 70)]

    def test_syscall_zero_cost_rejected(self):
        with pytest.raises(TraceError, match="non-positive"):
            convert(["0,0,pth_ty:8^0"])


class TestDeterminismAndMetrics:
    LINES = ["0,0,pth_ty:1^2", "1,0,10,0,1,1 # 0x400 # * 0x800",
             "2,0,pth_ty:2^2", "0,1,pth_ty:5^1", "3,0,pth_ty:5^1"]

    def test_conversion_is_deterministic(self):
        a = convert(self.LINES, transactify=True)
        b = convert(self.LINES, transactify=True)
        assert [t.ops for t in a.threads] == [t.ops for t in b.threads]
        assert a.waits == b.waits

    def test_options_are_recorded_in_params(self):
        trace = convert(self.LINES, transactify=True)
        assert trace.params["source"] == "traces"
        assert trace.params["transactify"] is True
        assert trace.params["remap"] == "dense"

