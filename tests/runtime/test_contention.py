"""Unit tests for the timestamp contention manager."""

from repro.common.config import HTMConfig
from repro.htm.base import ConflictInfo, ConflictKind
from repro.runtime.contention import Resolution, TimestampManager


def manager():
    return TimestampManager(HTMConfig(), seed=1)


def info(kind=ConflictKind.WRITER, hints=(1,)):
    return ConflictInfo(0x1, kind, hints=hints)


class TestTimestamps:
    def test_first_begin_sets_stamp(self):
        mgr = manager()
        mgr.transaction_started(0, 100)
        assert mgr.priority(0) == (100, 0)

    def test_retry_keeps_original_stamp(self):
        mgr = manager()
        mgr.transaction_started(0, 100)
        mgr.transaction_aborted(0)
        mgr.transaction_started(0, 500)
        assert mgr.priority(0) == (100, 0)

    def test_commit_consumes_stamp(self):
        mgr = manager()
        mgr.transaction_started(0, 100)
        mgr.transaction_finished(0)
        mgr.transaction_started(0, 500)
        assert mgr.priority(0) == (500, 0)


class TestResolution:
    def test_older_requester_dooms_holders(self):
        mgr = manager()
        mgr.transaction_started(0, 100)
        mgr.transaction_started(1, 200)
        decision = mgr.resolve(0, info(hints=(1,)), live_tids=[0, 1])
        assert decision.resolution is Resolution.STALL_AND_RETRY
        assert decision.victims == (1,)

    def test_younger_requester_aborts_itself(self):
        mgr = manager()
        mgr.transaction_started(0, 100)
        mgr.transaction_started(1, 200)
        decision = mgr.resolve(1, info(hints=(0,)), live_tids=[0, 1])
        assert decision.resolution is Resolution.ABORT_SELF

    def test_mixed_ages_abort_self(self):
        # Requester older than one holder but younger than another.
        mgr = manager()
        for tid, t in [(0, 100), (1, 200), (2, 300)]:
            mgr.transaction_started(tid, t)
        decision = mgr.resolve(1, info(hints=(0, 2)), live_tids=[0, 1, 2])
        assert decision.resolution is Resolution.ABORT_SELF

    def test_dead_holders_mean_retry(self):
        mgr = manager()
        mgr.transaction_started(1, 200)
        decision = mgr.resolve(1, info(hints=(0,)), live_tids=[1])
        assert decision.resolution is Resolution.STALL_AND_RETRY
        assert decision.victims == ()

    def test_nontxn_requester_always_wins(self):
        mgr = manager()
        mgr.transaction_started(0, 1)  # very old transaction
        decision = mgr.resolve(None, info(hints=(0,)), live_tids=[0])
        assert decision.resolution is Resolution.STALL_AND_RETRY
        assert decision.victims == (0,)

    def test_serialization_conflicts_just_stall(self):
        mgr = manager()
        mgr.transaction_started(0, 100)
        mgr.transaction_started(1, 50)  # holder is older
        decision = mgr.resolve(
            0, info(kind=ConflictKind.SERIALIZATION, hints=(1,)),
            live_tids=[0, 1],
        )
        assert decision.resolution is Resolution.STALL_AND_RETRY
        assert decision.victims == ()

    def test_tie_breaks_by_tid(self):
        mgr = manager()
        mgr.transaction_started(0, 100)
        mgr.transaction_started(1, 100)
        # TID 0 is "older" on ties.
        d0 = mgr.resolve(0, info(hints=(1,)), live_tids=[0, 1])
        d1 = mgr.resolve(1, info(hints=(0,)), live_tids=[0, 1])
        assert d0.resolution is Resolution.STALL_AND_RETRY
        assert d1.resolution is Resolution.ABORT_SELF


class TestDelays:
    def test_stall_delay_escalates(self):
        mgr = manager()
        early = sum(mgr.stall_delay(0) for _ in range(20))
        late = sum(mgr.stall_delay(6) for _ in range(20))
        assert late > early

    def test_backoff_grows_with_attempts(self):
        mgr = manager()
        first = sum(mgr.backoff_delay(0) for _ in range(20))
        tenth = sum(mgr.backoff_delay(6) for _ in range(20))
        assert tenth > first

    def test_backoff_capped(self):
        mgr = TimestampManager(HTMConfig(max_backoff=64), seed=1)
        assert all(mgr.backoff_delay(20) <= 64 for _ in range(50))
