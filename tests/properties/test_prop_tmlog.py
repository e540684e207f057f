"""Property tests: the log blocks an append touches and the walks report.

:meth:`TmLog.append` computes the blocks a record spans from its start
and end word with shifts, and records each record's first block for the
walks.  Here they are checked against a reference that converts every
word the record occupies to its byte address.
"""

from hypothesis import given
from hypothesis import strategies as st

from repro.common.config import BLOCK_SHIFT
from repro.core.tmlog import (
    LOG_REGION_BASE_BLOCK,
    LOG_REGION_BLOCKS_PER_THREAD,
    READ_RECORD_WORDS,
    WORDS_PER_BLOCK,
    WRITE_RECORD_WORDS,
    LogRecord,
    TmLog,
)

WORD_BYTES = 8


def reference_blocks(thread_id, start_word, words):
    """Every log block holding a byte of words [start, start + words)."""
    base = LOG_REGION_BASE_BLOCK + thread_id * LOG_REGION_BLOCKS_PER_THREAD
    blocks = []
    for word in range(start_word, start_word + words):
        block = base + ((word * WORD_BYTES) >> BLOCK_SHIFT)
        if block not in blocks:
            blocks.append(block)
    return tuple(blocks)


@given(st.integers(0, 63),
       st.lists(st.booleans(), min_size=1, max_size=60))
def test_append_blocks_match_reference(thread_id, writes):
    log = TmLog(thread_id)
    spans = set()
    for index, is_write in enumerate(writes):
        start = log.pointer_words
        words = WRITE_RECORD_WORDS if is_write else READ_RECORD_WORDS
        blocks = log.append(0x100 + index, 8 if is_write else 1, is_write)
        assert blocks == reference_blocks(thread_id, start, words)
        assert log.pointer_words == start + words
        assert log.max_words == log.pointer_words
        spans.add(len(blocks))
    assert spans <= {1, 2, 3}


@given(st.integers(0, WORDS_PER_BLOCK - 1), st.integers(0, 3))
def test_write_record_straddles_two_or_three_blocks(pad, thread_id):
    """A 10-word write record spans 2 blocks, or 3 when it starts in
    the last word of a block."""
    log = TmLog(thread_id)
    for _ in range(pad):
        log.append(0x1, 1, False)
    blocks = log.append(0x2, 8, True)
    assert blocks == reference_blocks(thread_id, pad, WRITE_RECORD_WORDS)
    assert len(blocks) == (3 if pad == WORDS_PER_BLOCK - 1 else 2)


@given(st.lists(st.booleans(), max_size=40))
def test_walks_match_append_start_blocks(writes):
    """walk_forward/backward report each record's first log block."""
    log = TmLog(1)
    firsts = [log.append(0x100 + i, 8 if w else 1, w)[0]
              for i, w in enumerate(writes)]
    assert [blk for _rec, blk in log.walk_forward()] == firsts
    assert [blk for _rec, blk in log.walk_backward()] == firsts[::-1]


@given(st.integers(0, 63),
       st.lists(st.lists(st.booleans(), max_size=30), min_size=1,
                max_size=4))
def test_starts_and_walks_match_reference_across_resets(thread_id, rounds):
    """Each round appends to a freshly reset log: the recorded start
    blocks and both walks follow the word-by-word reference."""
    log = TmLog(thread_id)
    for writes in rounds:
        log.reset()
        records, starts = [], []
        word = 0
        for index, is_write in enumerate(writes):
            record = LogRecord(0x100 + index, 8 if is_write else 1, is_write)
            log.append(*record)
            records.append(record)
            starts.append(reference_blocks(thread_id, word, 1)[0])
            word += WRITE_RECORD_WORDS if is_write else READ_RECORD_WORDS
        assert log.record_starts == starts
        pairs = list(zip(records, starts))
        assert list(log.walk_forward()) == pairs
        assert list(log.walk_backward()) == pairs[::-1]
