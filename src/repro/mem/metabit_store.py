"""In-memory metastate: 16 metabits per 64-byte block (Table 4a).

Memory encodes a block's metastate ``(Sum, TID)`` in 16 bits:

* a 2-bit ``State`` field — ``00`` an anonymous reader count,
  ``01`` one identified reader ``(1, X)``, ``10`` a writer ``(T, X)``,
  ``11`` *overflow* (software maintains part of the count, the
  "limitless" fallback of Chaiken et al. that the paper borrows);
* a 14-bit ``Attr`` field holding either the TID or the count.

The store also models where the bits live: recoded SECDED ECC frees a
22-bit codeword per 256 data bits, enough for 16 metabits plus their
own 6 check bits — so metabits cost no dedicated DRAM.  The
alternative (reserving physical memory) costs 16/512 = ~3%;
:meth:`MetabitStore.overhead_report` reports both, matching
Section 4.3's arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.common.errors import MetastateError
from repro.core.metastate import META_ZERO, Meta

#: 2-bit State encodings from Table 4(a).
STATE_COUNT = 0b00      # (u, -): Attr holds the anonymous count
STATE_READER = 0b01     # (1, X): Attr holds the reader's TID
STATE_WRITER = 0b10     # (T, X): Attr holds the writer's TID
STATE_OVERFLOW = 0b11   # count exceeds Attr; software holds the rest

ATTR_BITS = 14
ATTR_MAX = (1 << ATTR_BITS) - 1


def encode_memory_metabits(meta: Meta, tokens_per_block: int) -> int:
    """Pack a logical metastate into the 16-bit memory representation.

    Counts above the 14-bit Attr capacity use the overflow state; the
    excess is the caller's (software's) responsibility, which
    :class:`MetabitStore` models with a side table.
    """
    if meta.total == 0:
        return (STATE_COUNT << ATTR_BITS) | 0
    if meta.total == tokens_per_block:
        if meta.tid is None or not 0 <= meta.tid <= ATTR_MAX:
            raise MetastateError(f"writer TID {meta.tid} not encodable")
        return (STATE_WRITER << ATTR_BITS) | meta.tid
    if meta.total == 1 and meta.tid is not None:
        if not 0 <= meta.tid <= ATTR_MAX:
            raise MetastateError(f"reader TID {meta.tid} not encodable")
        return (STATE_READER << ATTR_BITS) | meta.tid
    if meta.total > ATTR_MAX:
        return (STATE_OVERFLOW << ATTR_BITS) | ATTR_MAX
    return (STATE_COUNT << ATTR_BITS) | meta.total


def decode_memory_metabits(bits: int, tokens_per_block: int,
                           overflow_excess: int = 0) -> Meta:
    """Unpack the 16-bit representation back to a logical metastate."""
    state = (bits >> ATTR_BITS) & 0b11
    attr = bits & ATTR_MAX
    if state == STATE_COUNT:
        return Meta(attr, None) if attr else META_ZERO
    if state == STATE_READER:
        return Meta(1, attr)
    if state == STATE_WRITER:
        return Meta(tokens_per_block, attr)
    return Meta(ATTR_MAX + overflow_excess, None)


@dataclass(frozen=True)
class EccBudget:
    """Section 4.3's recoded-ECC arithmetic for one 256-bit group."""

    data_bits: int = 256
    standard_codewords: int = 4      # four 72-bit SECDED words
    standard_bits: int = 4 * 72
    grouped_check_bits: int = 10     # SECDED over 256 bits
    metabits: int = 16
    metabit_check_bits: int = 6      # SECDED over 16 bits

    @property
    def freed_bits(self) -> int:
        """Bits recovered by grouping: 72*4 - 256 - 10 = 22."""
        return self.standard_bits - self.data_bits - self.grouped_check_bits

    @property
    def fits(self) -> bool:
        """True when metabits + their ECC fit in the freed codeword."""
        return self.metabits + self.metabit_check_bits <= self.freed_bits


class MetabitStore:
    """Home (memory) metastate for every block, stored as metabits.

    All reads and writes round-trip through the 16-bit encoding, so
    anything unrepresentable fails loudly.  Overflowed counts keep
    their excess in a software side table, modelling the "limitless"
    scheme.
    """

    def __init__(self, tokens_per_block: int):
        self._tokens_per_block = tokens_per_block
        self._bits: Dict[int, int] = {}
        self._overflow_excess: Dict[int, int] = {}

    @property
    def tokens_per_block(self) -> int:
        return self._tokens_per_block

    def load(self, block: int) -> Meta:
        """Logical metastate of ``block`` at memory."""
        bits = self._bits.get(block)
        if bits is None:
            return META_ZERO
        return decode_memory_metabits(
            bits, self._tokens_per_block,
            self._overflow_excess.get(block, 0),
        )

    def store(self, block: int, meta: Meta) -> None:
        """Write a block's home metastate (encoding it to metabits)."""
        if meta.total > ATTR_MAX and meta.total != self._tokens_per_block:
            self._overflow_excess[block] = meta.total - ATTR_MAX
        else:
            self._overflow_excess.pop(block, None)
        if meta.total == 0:
            # Keep the store sparse: absent means (0, -).
            self._bits.pop(block, None)
            return
        self._bits[block] = encode_memory_metabits(
            meta, self._tokens_per_block
        )

    def take(self, block: int) -> Meta:
        """Move a block's home metastate out, leaving ``(0, -)``.

        Exactly :meth:`load` followed by ``store(block, META_ZERO)``,
        overflow excess included, in one step: an exclusive fill or
        upgrade absorbs the whole home shard into the cached copy.
        """
        bits = self._bits.pop(block, None)
        excess = self._overflow_excess.pop(block, 0)
        if bits is None:
            return META_ZERO
        return decode_memory_metabits(bits, self._tokens_per_block, excess)

    def raw_bits(self, block: int) -> int:
        """The 16-bit in-memory representation (0 if never written)."""
        return self._bits.get(block, 0)

    def active_blocks(self) -> Tuple[int, ...]:
        """Blocks whose home metastate is not (0, -)."""
        return tuple(self._bits.keys())

    def page_out(self, blocks) -> Dict[int, int]:
        """Save and clear metabits for a page's blocks (paging support).

        Returns the saved {block: bits} map the VM system would write
        alongside the page, as the AS/400-style mechanism the paper
        cites.  Overflow excess travels too (kept internally).
        """
        saved = {}
        for block in blocks:
            bits = self._bits.pop(block, None)
            if bits is not None:
                saved[block] = bits
        return saved

    def page_in(self, saved: Dict[int, int]) -> None:
        """Restore previously saved metabits on page-in."""
        for block, bits in saved.items():
            if bits:
                self._bits[block] = bits

    @staticmethod
    def overhead_report() -> Dict[str, float]:
        """Storage-cost accounting from Section 4.3."""
        budget = EccBudget()
        return {
            "freed_codeword_bits": float(budget.freed_bits),
            "metabits_plus_check": float(
                budget.metabits + budget.metabit_check_bits
            ),
            "fits_in_recoded_ecc": float(budget.fits),
            "reserved_memory_overhead": 16.0 / (64 * 8),
        }
