"""Set-associative private L1 cache model with MESI line states.

Lines carry an opaque ``meta`` slot that the HTM layer uses to attach
per-copy transactional metastate (TokenTM's in-cache metabits).  The
cache itself knows nothing about transactions; it only models
placement, MESI state, LRU replacement, and non-silent evictions.
"""

from __future__ import annotations

from enum import Enum
from typing import Any, Dict, Iterator, List, Optional

from repro.common.config import CacheGeometry
from repro.common.errors import CoherenceError


class MESI(Enum):
    """Stable coherence states of an L1 line."""

    MODIFIED = "M"
    EXCLUSIVE = "E"
    SHARED = "S"
    INVALID = "I"


class CacheLine:
    """One L1 line: block address, MESI state, LRU stamp, HTM meta.

    ``hit`` is the protocol's interned pure-hit result for this line
    (an ``AccessResult`` naming the line), made on the line's first
    L1 hit.  It refers back to the line, so :meth:`L1Cache.remove`
    clears it: a removed line is then freed by reference counting
    instead of waiting for the cyclic collector.
    """

    __slots__ = ("block", "state", "lru", "meta", "hit")

    def __init__(self, block: int, state: MESI, lru: int):
        self.block = block
        self.state = state
        self.lru = lru
        self.meta: Any = None
        self.hit: Any = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CacheLine(block={self.block:#x}, state={self.state.value})"


class L1Cache:
    """Private write-back L1 with LRU replacement.

    Evictions are *chosen* here but *performed* by the protocol layer
    (which must notify the directory — the paper requires non-silent
    evictions so TokenTM's metastate can follow the data home).

    ``sets``, ``set_mask`` and ``ways`` are read directly by the
    protocol engine's access path; only this class mutates them.
    ``tick`` is the LRU clock: the protocol's L1 hit advances it
    in place of :meth:`touch_line`, and its miss path in place of
    :meth:`install`.
    """

    def __init__(self, geometry: CacheGeometry, core: int):
        self._geometry = geometry
        self._core = core
        #: One block -> line dict per set.  Sets hold valid lines only:
        #: invalidation and eviction remove a line outright.
        self.sets: List[Dict[int, CacheLine]] = [
            {} for _ in range(geometry.num_sets)
        ]
        # ``geometry.set_index`` recomputes the set count per call;
        # the set count is a power of two, so a stored mask suffices.
        self.set_mask = geometry.num_sets - 1
        self.tick = 0
        #: Usable ways per set (<= geometry associativity); fault
        #: injection lowers this to create capacity pressure.
        self.ways = geometry.associativity

    @property
    def core(self) -> int:
        return self._core

    @property
    def geometry(self) -> CacheGeometry:
        return self._geometry

    def lookup(self, block: int) -> Optional[CacheLine]:
        """Return the line for ``block`` if present (always valid)."""
        return self.sets[block & self.set_mask].get(block)

    def touch(self, block: int) -> None:
        """Refresh LRU recency of a resident block."""
        line = self.lookup(block)
        if line is not None:
            self.tick += 1
            line.lru = self.tick

    def touch_line(self, line: CacheLine) -> None:
        """Refresh LRU recency of a line the caller already holds.

        The hot path resolves the line once (one tag lookup) and
        must not pay a second tag match just to bump recency; the tick
        sequence is identical to :meth:`touch`, so replacement victims
        are unchanged.
        """
        self.tick += 1
        line.lru = self.tick

    def victim_for(self, block: int) -> Optional[CacheLine]:
        """Pick the line to evict to make room for ``block``.

        Returns None when the set has a free way (or the block is
        already resident).  The LRU-minimal valid line is chosen.
        """
        cache_set = self.sets[block & self.set_mask]
        if block in cache_set:
            return None
        if len(cache_set) < self.ways:
            return None
        return min(cache_set.values(), key=lambda ln: ln.lru)

    def install(self, block: int, state: MESI) -> CacheLine:
        """Place a block (caller must have evicted a victim first).

        The protocol engine's miss path does not call this: it fills
        in place, storing a new line stamped with the next ``tick`` in
        the set it already holds, after making the checks here hold.
        """
        cache_set = self.sets[block & self.set_mask]
        if block in cache_set:
            raise CoherenceError(
                f"block {block:#x} already resident in core {self._core} L1"
            )
        if len(cache_set) >= self.ways:
            raise CoherenceError(
                f"set full installing block {block:#x} in core {self._core} L1"
            )
        self.tick += 1
        line = CacheLine(block, state, self.tick)
        cache_set[block] = line
        return line

    def remove(self, block: int) -> CacheLine:
        """Drop a block (eviction or invalidation)."""
        cache_set = self.sets[block & self.set_mask]
        line = cache_set.pop(block, None)
        if line is None:
            raise CoherenceError(
                f"block {block:#x} not resident in core {self._core} L1"
            )
        line.hit = None
        return line

    def set_way_limit(self, ways: int) -> List[int]:
        """Restrict (or restore) the usable ways per set.

        ``ways`` is clamped to ``[1, associativity]``.  Returns the
        blocks that now exceed the new limit (LRU-first per set); the
        caller must evict them through the protocol layer so the
        directory is notified and metastate follows the data home —
        this method only *selects* overflow, it never drops lines.
        """
        self.ways = max(1, min(ways, self._geometry.associativity))
        overflow: List[int] = []
        for cache_set in self.sets:
            excess = len(cache_set) - self.ways
            if excess > 0:
                victims = sorted(cache_set.values(), key=lambda ln: ln.lru)
                overflow.extend(ln.block for ln in victims[:excess])
        return overflow

    def lines(self) -> Iterator[CacheLine]:
        """Iterate over all valid resident lines."""
        for cache_set in self.sets:
            yield from cache_set.values()

    def resident_count(self) -> int:
        """Number of valid lines currently held."""
        return sum(len(s) for s in self.sets)
