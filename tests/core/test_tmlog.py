"""Unit tests for the per-thread software-visible log."""

import pytest

from repro.common.errors import TransactionError
from repro.core.tmlog import (
    LOG_REGION_BASE_BLOCK,
    READ_RECORD_WORDS,
    WRITE_RECORD_WORDS,
    LogRecord,
    TmLog,
)


class TestAppend:
    def test_read_record_is_one_word(self):
        log = TmLog(0)
        blocks = log.append(0x100, 1, False)
        assert log.pointer_words == READ_RECORD_WORDS
        assert len(blocks) == 1
        assert blocks[0] >= LOG_REGION_BASE_BLOCK

    def test_write_record_spans_ten_words(self):
        log = TmLog(0)
        log.append(0x100, 8, True)
        assert log.pointer_words == WRITE_RECORD_WORDS

    def test_write_record_can_straddle_log_blocks(self):
        log = TmLog(0)
        # A 10-word record spans words 0..9: two 8-word log blocks.
        blocks = log.append(0x200, 8, True)
        assert len(blocks) == 2
        assert blocks[1] == blocks[0] + 1

    def test_straddle_from_mid_block_touches_three(self):
        log = TmLog(0)
        for _ in range(7):
            log.append(0x100, 1, False)
        # Words 7..16 cover the tail of block 0, block 1, and the
        # head of block 2.
        blocks = log.append(0x200, 8, True)
        assert len(blocks) == 3

    def test_zero_token_record_rejected(self):
        log = TmLog(0)
        with pytest.raises(TransactionError):
            log.append(0x100, 0, False)

    def test_logs_of_threads_are_disjoint(self):
        a, b = TmLog(0), TmLog(1)
        block_a = a.append(0x1, 1, False)[0]
        block_b = b.append(0x1, 1, False)[0]
        assert block_a != block_b


class TestWalks:
    def _populated(self):
        log = TmLog(2)
        log.append(0xA, 1, False)
        log.append(0xB, 8, True)
        log.append(0xC, 1, False)
        return log

    def test_forward_order(self):
        log = self._populated()
        blocks = [rec.block for rec, _ in log.walk_forward()]
        assert blocks == [0xA, 0xB, 0xC]

    def test_backward_order(self):
        log = self._populated()
        blocks = [rec.block for rec, _ in log.walk_backward()]
        assert blocks == [0xC, 0xB, 0xA]

    def test_walk_offsets_are_consistent(self):
        log = self._populated()
        forward = {rec.block: blk for rec, blk in log.walk_forward()}
        backward = {rec.block: blk for rec, blk in log.walk_backward()}
        assert forward == backward


class TestReset:
    def test_reset_clears_everything(self):
        log = TmLog(0)
        log.append(0xA, 1, False)
        log.append(0xB, 8, True)
        log.reset()
        assert log.is_empty()
        assert log.pointer_words == 0
        assert list(log.walk_forward()) == []

    def test_high_water_mark_survives_reset(self):
        log = TmLog(0)
        log.append(0xB, 8, True)
        high = log.max_words
        log.reset()
        assert log.max_words == high


class TestTokenCredits:
    def test_credits_aggregate_per_block(self):
        log = TmLog(0)
        log.append(0xA, 1, False)
        log.append(0xA, 7, True)   # read-to-write upgrade
        log.append(0xB, 1, False)
        assert log.token_credits() == {0xA: 8, 0xB: 1}

    def test_empty_log_has_no_credits(self):
        assert TmLog(0).token_credits() == {}


class TestLogRecord:
    def test_fields(self):
        record = LogRecord(0x1, 8, True)
        assert (record.block, record.tokens, record.is_write) == (0x1, 8, True)

    def test_equality_and_hashing(self):
        assert LogRecord(0x1, 1, False) == LogRecord(0x1, 1, False)
        assert LogRecord(0x1, 1, False) != LogRecord(0x1, 1, True)
        assert LogRecord(0x1, 1, False) != LogRecord(0x2, 1, False)
        records = {LogRecord(0x1, 1, False), LogRecord(0x1, 1, False),
                   LogRecord(0x1, 8, True)}
        assert len(records) == 2

    def test_immutable(self):
        record = LogRecord(0x1, 1, False)
        with pytest.raises(AttributeError):
            record.block = 0x2

    def test_exported_from_core(self):
        import repro.core

        assert repro.core.LogRecord is LogRecord
        assert "LogRecord" in repro.core.__all__

    def test_walks_yield_the_appended_records(self):
        log = TmLog(0)
        log.append(0xA, 1, False)
        log.append(0xB, 8, True)
        assert [rec for rec, _ in log.walk_forward()] == [
            LogRecord(0xA, 1, False), LogRecord(0xB, 8, True)]
