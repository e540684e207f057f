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

import math
from typing import Optional, Set

from repro.common.config import SignatureConfig
from repro.signatures.base import Signature
from repro.signatures.h3 import fused_tables


class MaskCache(dict):
    """Block address -> packed probe mask over one H3 family.

    Masks are computed on first use and kept, so a machine whose
    signatures share one family hashes each block once per run.  A
    miss XORs one :func:`fused_tables` entry per key byte, which hashes
    the block under every function of the family at once, then sets
    each function's output bit in its own bank.
    """

    __slots__ = ("tables", "num_hashes", "index_bits")

    def __init__(self, num_hashes: int, index_bits: int, seed: int = 0):
        super().__init__()
        self.tables = fused_tables(num_hashes, index_bits, seed)
        self.num_hashes = num_hashes
        self.index_bits = index_bits

    def __missing__(self, block_addr: int) -> int:
        t0, t1, t2, t3, t4, t5 = self.tables
        packed = (t0[block_addr & 0xFF] ^ t1[block_addr >> 8 & 0xFF]
                  ^ t2[block_addr >> 16 & 0xFF]
                  ^ t3[block_addr >> 24 & 0xFF]
                  ^ t4[block_addr >> 32 & 0xFF]
                  ^ t5[block_addr >> 40 & 0xFF])
        index_bits = self.index_bits
        index_mask = (1 << index_bits) - 1
        # Bank b holds 2**index_bits bits starting at b << index_bits.
        mask = 0
        base = 0
        for _ in range(self.num_hashes):
            mask |= 1 << (base + (packed & index_mask))
            packed >>= index_bits
            base += index_mask + 1
        self[block_addr] = mask
        return mask


def mask_cache(config: SignatureConfig, seed: int = 0) -> MaskCache:
    """An empty mask cache over ``config``'s H3 family at ``seed``."""
    if config.perfect:
        raise ValueError(
            "config requests a perfect signature; use PerfectSignature"
        )
    if config.bits % config.num_hashes != 0:
        raise ValueError("signature bits must divide evenly into banks")
    bank_bits = config.bits // config.num_hashes
    index_bits = int(math.log2(bank_bits))
    if (1 << index_bits) != bank_bits:
        raise ValueError("per-bank size must be a power of two")
    return MaskCache(config.num_hashes, index_bits, seed)


class BloomSignature(Signature):
    """Parallel-banked Bloom filter over block addresses.

    ``masks`` shares a machine-wide :class:`MaskCache` (it must have
    been built for ``config``); without one the signature builds its
    own over the family at ``seed``.
    """

    def __init__(self, config: SignatureConfig, seed: int = 0,
                 masks: Optional[MaskCache] = None):
        self._config = config
        if masks is None:
            masks = mask_cache(config, seed)
        self._masks = masks
        #: The bit vector, every bank packed into one int; clearing it
        #: is a constant store, mirroring the hardware flash-clear.
        self.packed = 0
        self._exact: Set[int] = set()

    @property
    def config(self) -> SignatureConfig:
        return self._config

    def insert(self, block_addr: int) -> None:
        self.packed |= self._masks[block_addr]
        self._exact.add(block_addr)

    def test(self, block_addr: int) -> bool:
        mask = self._masks[block_addr]
        return self.packed & mask == mask

    def clear(self) -> None:
        self.packed = 0
        self._exact.clear()

    def is_empty(self) -> bool:
        return not self._exact

    @property
    def inserted_count(self) -> int:
        return len(self._exact)

    @property
    def exact_set(self) -> frozenset:
        return frozenset(self._exact)

    @property
    def fill_ratio(self) -> float:
        """Fraction of filter bits set (diagnostic for saturation)."""
        return self.packed.bit_count() / self._config.bits

    def expected_false_positive_rate(self) -> float:
        """Analytic FP probability for a uniformly random probe.

        For the parallel-banked design with n insertions and per-bank
        size m/k, each bank independently has
        ``1 - (1 - k/m)^n`` of its probed bit set.
        """
        n = len(self._exact)
        k = self._config.num_hashes
        m = self._config.bits
        per_bank = 1.0 - (1.0 - k / m) ** n
        return per_bank ** k
