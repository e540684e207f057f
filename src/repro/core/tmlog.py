"""Per-thread software-visible transaction log.

TokenTM inherits LogTM's version management: new values are written in
place and the *old* value of every block is saved in a per-thread,
cacheable, pageable log in virtual memory.  TokenTM additionally logs
every token acquisition — the credit side of the double-entry books.

Record formats (Section 5.1), in 8-byte words:

* a **read record** is one word: the block's address (one token);
* a **write record** is the address, a token count word, and the
  64-byte old data image — ten words.

The log itself occupies memory blocks, and appending requires
exclusive coherence permission to the log block — the source of the
"log stalls" the paper measures in Table 6.  :class:`TmLog` exposes
the log-block address of every append so the executor can charge a
real coherence access for it.
"""

from __future__ import annotations

from typing import Iterator, List, NamedTuple, Tuple

from repro.common.config import BLOCK_SHIFT
from repro.common.errors import TransactionError

#: Words per cache block (64 bytes / 8-byte words).
WORDS_PER_BLOCK = 8
#: Word offset -> block offset: 8-byte words in 2**BLOCK_SHIFT-byte blocks.
_WORD_TO_BLOCK_SHIFT = BLOCK_SHIFT - 3
#: Words in a read record: address only.
READ_RECORD_WORDS = 1
#: Words in a write record: address + token count + old data image.
WRITE_RECORD_WORDS = 2 + WORDS_PER_BLOCK

#: Virtual-address region carved out for logs: each thread gets a
#: disjoint 16 MB window far above any workload data address.
LOG_REGION_BASE_BLOCK = 1 << 40
LOG_REGION_BLOCKS_PER_THREAD = 1 << 18


class LogRecord(NamedTuple):
    """One log entry: a token credit and (for writes) the old value.

    A named tuple: one is built per log append, i.e. per first touch
    of a block, and a tuple is far cheaper to build than a frozen
    dataclass while staying immutable and hashable.
    """

    block: int
    tokens: int
    is_write: bool


#: ``LogRecord``'s generated ``__new__`` is a Python function that
#: calls this; the append path calls it directly.
_tuple_new = tuple.__new__


class TmLog:
    """Software-visible log of one thread.

    Besides the records, the log tracks its bump pointer in words so
    the blocks it occupies — and therefore the coherence traffic of
    appending and walking — can be modelled faithfully.
    """

    def __init__(self, thread_id: int):
        self._thread_id = thread_id
        self._base_block = (LOG_REGION_BASE_BLOCK
                            + thread_id * LOG_REGION_BLOCKS_PER_THREAD)
        self._records: List[LogRecord] = []
        #: The first log block of each record, parallel to _records.
        self._starts: List[int] = []
        self._pointer_words = 0
        #: High-water mark across the thread's lifetime (diagnostics).
        self.max_words = 0

    @property
    def thread_id(self) -> int:
        return self._thread_id

    @property
    def records(self) -> Tuple[LogRecord, ...]:
        return tuple(self._records)

    @property
    def record_starts(self) -> List[int]:
        """First log block of each record, oldest first.

        The live list, not a copy: the software release walk iterates
        it once per commit.  Callers must not mutate it.
        """
        return self._starts

    @property
    def entry_count(self) -> int:
        return len(self._records)

    @property
    def pointer_words(self) -> int:
        """Current bump-pointer offset in words."""
        return self._pointer_words

    def is_empty(self) -> bool:
        return not self._records

    def current_block(self) -> int:
        """Log block the next append will write to."""
        return self._base_block + (self._pointer_words
                                   >> _WORD_TO_BLOCK_SHIFT)

    def append(self, block: int, tokens: int,
               is_write: bool) -> Tuple[int, ...]:
        """Append a record; returns the log block(s) the write touches.

        The executor issues a store access to each returned block so
        that log-write stalls show up in the timing model.
        """
        if tokens <= 0:
            raise TransactionError("log record must credit at least 1 token")
        self._records.append(_tuple_new(LogRecord,
                                        (block, tokens, is_write)))
        start = self._pointer_words
        end = start + (WRITE_RECORD_WORDS if is_write else READ_RECORD_WORDS)
        self._pointer_words = end
        if end > self.max_words:
            self.max_words = end
        # The record spans words [start, end): blocks first..last.
        first = self._base_block + (start >> _WORD_TO_BLOCK_SHIFT)
        self._starts.append(first)
        last = self._base_block + ((end - 1) >> _WORD_TO_BLOCK_SHIFT)
        if first == last:
            return (first,)
        return tuple(range(first, last + 1))

    def reset(self) -> None:
        """Fast release: drop all records by resetting the pointer."""
        self._records.clear()
        self._starts.clear()
        self._pointer_words = 0

    def walk_forward(self) -> Iterator[Tuple[LogRecord, int]]:
        """(record, first log block) pairs oldest-first (release order)."""
        return zip(self._records, self._starts)

    def walk_backward(self) -> Iterator[Tuple[LogRecord, int]]:
        """(record, first log block) pairs newest-first (undo order).

        LogTM-style undo must restore old values last-write-first so
        that a block written twice ends at its pre-transaction value.
        """
        return zip(reversed(self._records), reversed(self._starts))

    def token_credits(self) -> dict:
        """Total tokens credited per block — the log side of the books."""
        credits: dict = {}
        for record in self._records:
            credits[record.block] = credits.get(record.block, 0) + record.tokens
        return credits
