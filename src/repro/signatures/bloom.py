"""Bloom-filter signatures with parallel H3 hash functions.

These model LogTM-SE's hardware signatures: a bit vector of
``SignatureConfig.bits`` bits indexed by ``num_hashes`` parallel H3
functions.  The variants evaluated in the paper are 2 Kbit filters
with 2 hashes (LogTM-SE_2xH3) and 4 hashes (LogTM-SE_4xH3).

Following Sanchez et al., the *parallel* organization partitions the
bit vector into ``num_hashes`` equal banks, one per hash function —
each hash indexes only its own bank.  This is cheaper in hardware
than a true Bloom filter and performs as well or better.

The whole vector is one packed Python int, bank ``b`` at bits
``[b * bank_bits, (b + 1) * bank_bits)``.  A block's probe is likewise
one packed mask with one bit per bank, so insert is an OR and test is
an AND and compare: every bank at once, as the hardware probes them.
"""

from __future__ import annotations

import functools
from typing import Optional, Tuple

from repro.common.config import SignatureConfig
from repro.signatures.h3 import fused_tables, paired_tables


@functools.lru_cache(maxsize=None)
def _one_hot(bits: int) -> Tuple[int, ...]:
    """``1 << p`` for every bit position ``p`` of a ``bits``-bit vector."""
    return tuple(1 << p for p in range(bits))


@functools.lru_cache(maxsize=None)
def bit_table(bits: int, num_hashes: int) -> Tuple[Tuple[int, ...], ...]:
    """The one-hot bits of a ``bits``-bit vector, split into its banks.

    Entry ``i`` of bank ``b`` is ``1 << (b * bank_bits + i)``.  A probe
    mask is the OR of one such bit per bank, so a fill looks each bit
    up here instead of building it with a shift.  Every mask cache
    over ``bits``-bit signatures shares the same int objects, whatever
    its hash count.
    """
    ones = _one_hot(bits)
    bank_bits = bits // num_hashes
    return tuple(ones[b * bank_bits:(b + 1) * bank_bits]
                 for b in range(num_hashes))


class MaskCache(dict):
    """Block address -> packed probe mask over one H3 family.

    Masks are computed on first use and kept, so a machine whose
    signatures share one family hashes each block once per run.  A
    miss XORs one entry per key byte of a fused H3 table, which hashes
    the block under every function of the family at once, then ORs
    in each function's output bit, looked up in its bank of
    :func:`bit_table`.  Blocks below 2**24 skip the top three key bytes,
    whose entry 0 is 0: H3 is linear.

    A cache built by :func:`mask_pair` has a *partner* over a second
    family.  Its table packs the partner's family below its own, so
    a miss in either hashes the block under both families in one
    chain and fills both caches.
    """

    __slots__ = ("tables", "banks", "index_bits", "index_mask", "partner")

    def __init__(self, tables, bits: int, num_hashes: int,
                 index_bits: int):
        super().__init__()
        self.tables = tables
        self.banks = bit_table(bits, num_hashes)
        self.index_bits = index_bits
        self.index_mask = (1 << index_bits) - 1
        self.partner: Optional[MaskCache] = None

    def __missing__(self, block_addr: int) -> int:
        t0, t1, t2, t3, t4, t5 = self.tables
        hashed = (t0[block_addr & 0xFF] ^ t1[block_addr >> 8 & 0xFF]
                  ^ t2[block_addr >> 16 & 0xFF])
        if block_addr >> 24:
            hashed ^= (t3[block_addr >> 24 & 0xFF]
                       ^ t4[block_addr >> 32 & 0xFF]
                       ^ t5[block_addr >> 40 & 0xFF])
        banks = self.banks
        index_bits = self.index_bits
        index_mask = self.index_mask
        partner = self.partner
        if partner is not None:
            mask = 0
            for bank in banks:
                mask |= bank[hashed & index_mask]
                hashed >>= index_bits
            partner[block_addr] = mask
        mask = 0
        for bank in banks:
            mask |= bank[hashed & index_mask]
            hashed >>= index_bits
        self[block_addr] = mask
        return mask


def _index_bits(config: SignatureConfig) -> int:
    """log2 of ``config``'s bank size (``SignatureConfig`` checks it)."""
    if config.perfect:
        raise ValueError(
            "config requests a perfect signature; use PerfectSignature"
        )
    return config.bank_index_bits


def mask_cache(config: SignatureConfig, seed: int = 0) -> MaskCache:
    """An empty mask cache over ``config``'s H3 family at ``seed``."""
    index_bits = _index_bits(config)
    return MaskCache(fused_tables(config.num_hashes, index_bits, seed),
                     config.bits, config.num_hashes, index_bits)


def mask_pair(config: SignatureConfig) -> Tuple[MaskCache, MaskCache]:
    """Partnered mask caches over ``config``'s families at seeds 0 and 1.

    Each holds the masks :func:`mask_cache` would at its seed; a miss
    in either fills both.  LogTM-SE's read (seed 0) and write (seed 1)
    signatures use the pair, since a block checked or inserted under
    one kind is almost always wanted under the other too.
    """
    index_bits = _index_bits(config)
    k = config.num_hashes
    read = MaskCache(paired_tables(k, index_bits, 1, 0), config.bits, k,
                     index_bits)
    write = MaskCache(paired_tables(k, index_bits, 0, 1), config.bits, k,
                      index_bits)
    read.partner = write
    write.partner = read
    return read, write


class BloomSignature:
    """Parallel-banked Bloom filter over block addresses.

    ``masks`` shares a machine-wide :class:`MaskCache` (it must have
    been built for ``config``); without one the signature builds its
    own over the family at ``seed``.  The signature holds only its
    bits: the exact set of inserted blocks, which classifies a hit as
    a false positive, is the transaction's to keep.
    """

    __slots__ = ("_config", "_masks", "packed")

    def __init__(self, config: SignatureConfig, seed: int = 0,
                 masks: Optional[MaskCache] = None):
        self._config = config
        if masks is None:
            masks = mask_cache(config, seed)
        self._masks = masks
        #: The bit vector, every bank packed into one int.
        self.packed = 0

    def insert(self, block_addr: int) -> int:
        """Insert ``block_addr``; returns its probe mask, now ORed in."""
        mask = self._masks[block_addr]
        self.packed |= mask
        return mask

    def test(self, block_addr: int) -> bool:
        """True if ``block_addr`` *may* have been inserted."""
        mask = self._masks[block_addr]
        return self.packed & mask == mask

    @property
    def fill_ratio(self) -> float:
        """Fraction of filter bits set (diagnostic for saturation)."""
        return self.packed.bit_count() / self._config.bits

    def expected_false_positive_rate(self, n: int) -> float:
        """Analytic FP probability for a uniformly random probe after
        ``n`` distinct insertions.

        For the parallel-banked design with per-bank size m/k, each
        bank independently has ``1 - (1 - k/m)^n`` of its probed bit
        set.
        """
        k = self._config.num_hashes
        m = self._config.bits
        per_bank = 1.0 - (1.0 - k / m) ** n
        return per_bank ** k
