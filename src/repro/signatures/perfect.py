"""Exact-set signature: the unimplementable LogTM-SE_Perf baseline.

The paper normalizes its performance results to LogTM-SE_Perf, a
variant with perfect (no-false-positive) read- and write-set tracking
that cannot be built in hardware.  Here it is just a set, so a
transaction's perfect signature can be its exact set itself.
"""

from __future__ import annotations


class PerfectSignature(set):
    """Signature with exact membership: no false positives."""

    __slots__ = ()

    insert = set.add
    test = set.__contains__
