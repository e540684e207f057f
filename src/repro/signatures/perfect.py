"""Exact-set signature: the unimplementable LogTM-SE_Perf baseline.

The paper normalizes its performance results to LogTM-SE_Perf, a
variant with perfect (no-false-positive) read- and write-set tracking
that cannot be built in hardware.  Here it is just a set.
"""

from __future__ import annotations

from typing import Set

from repro.signatures.base import Signature


class PerfectSignature(Signature):
    """Signature with exact membership: no false positives."""

    def __init__(self) -> None:
        self._members: Set[int] = set()

    def insert(self, block_addr: int) -> None:
        self._members.add(block_addr)

    def test(self, block_addr: int) -> bool:
        return block_addr in self._members

    def clear(self) -> None:
        self._members.clear()

    def is_empty(self) -> bool:
        return not self._members

    @property
    def inserted_count(self) -> int:
        return len(self._members)

    @property
    def exact_set(self) -> frozenset:
        return frozenset(self._members)
