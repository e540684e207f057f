"""H3 universal hash family for signature indexing.

LogTM-SE's best-performing signature designs (Sanchez et al., MICRO
2007, cited by the paper) use parallel H3 hash functions.  An H3 hash
of an n-bit key is computed by XOR-ing together rows of a random
binary matrix selected by the set bits of the key — cheap in hardware
(one XOR tree per output bit) and 2-universal, which is what makes the
Bloom-filter false-positive analysis hold.
"""

from __future__ import annotations

import functools
from typing import List, Sequence, Tuple

from repro.common.rng import substream

#: Width of hashed keys.  Block addresses in the simulator fit easily.
KEY_BITS = 48


class H3Hash:
    """One H3 hash function mapping ``KEY_BITS``-bit keys to ``out_bits``.

    Parameters
    ----------
    out_bits:
        Width of the hash output (log2 of the signature size).
    seed, lane:
        Select the random matrix; the same (seed, lane) pair always
        produces the same function, and distinct lanes give
        independent functions.
    """

    def __init__(self, out_bits: int, seed: int = 0, lane: int = 0):
        if not 1 <= out_bits <= 32:
            raise ValueError("out_bits must be in [1, 32]")
        self.out_bits = out_bits
        rng = substream(seed, 0x483, lane)
        mask = (1 << out_bits) - 1
        # One random row per key bit; hashing XORs the rows selected
        # by the key's set bits (matrix-vector product over GF(2)).
        self._rows: List[int] = [rng.getrandbits(out_bits) & mask
                                 for _ in range(KEY_BITS)]
        # Byte-sliced lookup tables: the XOR of any byte's contribution
        # is precomputed, so a hash is KEY_BITS/8 table lookups — the
        # software analogue of the hardware XOR tree.
        self._tables: List[List[int]] = []
        for byte_pos in range(KEY_BITS // 8):
            table = [0] * 256
            base = byte_pos * 8
            for value in range(256):
                acc = 0
                v = value
                bit = 0
                while v:
                    if v & 1:
                        acc ^= self._rows[base + bit]
                    v >>= 1
                    bit += 1
                table[value] = acc
            self._tables.append(table)

    def __call__(self, key: int) -> int:
        """Hash ``key`` to an ``out_bits``-wide index."""
        tables = self._tables
        result = tables[0][key & 0xFF]
        k = key >> 8
        i = 1
        while k and i < len(tables):
            result ^= tables[i][k & 0xFF]
            k >>= 8
            i += 1
        return result

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"H3Hash(out_bits={self.out_bits})"


@functools.lru_cache(maxsize=None)
def make_h3_family(count: int, out_bits: int,
                   seed: int = 0) -> Tuple[H3Hash, ...]:
    """``count`` independent H3 hash functions, built once per process.

    A family is a pure function of its arguments and is never mutated,
    so every signature and machine asking for the same one shares it
    instead of rebuilding its byte tables.
    """
    return tuple(H3Hash(out_bits, seed=seed, lane=i) for i in range(count))


@functools.lru_cache(maxsize=None)
def fused_tables(count: int, out_bits: int,
                 seed: int = 0) -> Tuple[Tuple[int, ...], ...]:
    """One byte table per key byte for the whole ``make_h3_family``.

    Entry ``v`` of table ``p`` packs every function's contribution of
    key byte ``p`` equal to ``v``, function ``i`` in bits
    ``[i * out_bits, (i + 1) * out_bits)``.  XOR never carries between
    fields, so XOR-ing one entry per key byte hashes the key under all
    ``count`` functions at once.
    """
    family = make_h3_family(count, out_bits, seed)
    return tuple(
        tuple(sum(h._tables[byte_pos][value] << (i * out_bits)
                  for i, h in enumerate(family))
              for value in range(256))
        for byte_pos in range(KEY_BITS // 8)
    )


@functools.lru_cache(maxsize=None)
def paired_tables(count: int, out_bits: int, low_seed: int,
                  high_seed: int) -> Tuple[Tuple[int, ...], ...]:
    """The :func:`fused_tables` of two families, side by side.

    Each entry holds the ``low_seed`` family's entry in its low
    ``count * out_bits`` bits and the ``high_seed`` family's above
    them, so one XOR chain hashes a key under both families.
    """
    width = count * out_bits
    return tuple(
        tuple(lo | hi << width for lo, hi in zip(low, high))
        for low, high in zip(fused_tables(count, out_bits, low_seed),
                             fused_tables(count, out_bits, high_seed))
    )


def hash_indices(family: Sequence[H3Hash], key: int) -> List[int]:
    """Apply every function in the family to one key."""
    return [h(key) for h in family]
