"""Directory MESI protocol engine.

Ties the private L1 caches, the exact directory, and the tiled
interconnect into a functional coherence model.  The engine

* keeps MESI states and the directory mutually consistent,
* charges hop-count latencies for every protocol action,
* performs **non-silent evictions** (required by TokenTM so metastate
  can follow data back to memory), and
* reports every data movement to a :class:`CoherenceListener`, which
  is how the HTM layer observes fills, downgrades, invalidations, and
  evictions to apply metastate fission/fusion.

The engine never blocks or NACKs a request: TokenTM explicitly makes
no changes to coherence transitions — conflicts are detected from
metastate *after* data moves.  HTMs that conceptually NACK (LogTM-SE)
instead ask :meth:`MemorySystem.needs_directory` and simply decline
to call :meth:`MemorySystem.access`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Set, Tuple

from repro.common.config import SystemConfig
from repro.common.errors import CoherenceError
from repro.coherence.cache import CacheLine, L1Cache, MESI
from repro.coherence.directory import Directory, DirectoryEntry, DirState
from repro.interconnect.topology import TiledTopology
from repro.obs.events import NULL_BUS, EventBus, EventKind

#: Pseudo-holder id for the memory/L2 home copy in listener callbacks.
MEMORY_HOLDER = -1

# The access path compares states several times per miss, and on
# CPython 3.11 reading an enum member off its class costs several times
# a module-global read, so the members it tests are bound here once.
_MODIFIED, _EXCLUSIVE, _SHARED = MESI.MODIFIED, MESI.EXCLUSIVE, MESI.SHARED
_DIR_UNCACHED, _DIR_SHARED, _DIR_EXCLUSIVE = (
    DirState.UNCACHED, DirState.SHARED, DirState.EXCLUSIVE)


class CoherenceListener:
    """Observer hooks for data movement.  All default to no-ops.

    ``source`` identifies where the incoming copy's data (and, for
    TokenTM, metastate) came from: a core id for cache-to-cache
    transfers, or :data:`MEMORY_HOLDER` for fills from L2/memory.
    """

    def on_fill(self, core: int, block: int, line: CacheLine,
                shared: bool, source: int) -> None:
        """A new copy was installed in ``core``'s L1."""

    def on_invalidate(self, core: int, block: int, line: CacheLine,
                      requester: int) -> None:
        """``core`` lost its copy to an exclusive request by ``requester``."""

    def on_downgrade(self, core: int, block: int, line: CacheLine,
                     requester: int) -> None:
        """``core``'s exclusive copy was demoted to shared."""

    def on_evict(self, core: int, block: int, line: CacheLine) -> None:
        """``core`` wrote the copy back to memory (capacity/conflict)."""


class AccessResult:
    """Outcome of a performed access.

    A plain ``__slots__`` class rather than a dataclass: one of these
    is allocated on every access the simulator performs, and dropping
    the per-instance ``__dict__`` measurably cuts allocation cost in
    the hot path.
    """

    __slots__ = ("latency", "hit", "line", "upgraded", "filled",
                 "source", "invalidated")

    def __init__(self, latency: int, hit: bool, line: CacheLine,
                 upgraded: bool = False, filled: bool = False,
                 source: int = MEMORY_HOLDER,
                 invalidated: Tuple[int, ...] = ()):
        self.latency = latency
        self.hit = hit
        self.line = line
        self.upgraded = upgraded
        self.filled = filled
        self.source = source
        self.invalidated = invalidated


@dataclass
class ProtocolStats:
    """Aggregate protocol event counters."""

    reads: int = 0
    writes: int = 0
    l1_hits: int = 0
    l1_misses: int = 0
    upgrades: int = 0
    invalidations: int = 0
    downgrades: int = 0
    evictions: int = 0
    memory_fetches: int = 0
    cache_to_cache: int = 0

    def snapshot(self) -> dict:
        """Plain-dict copy for reporting."""
        return dict(self.__dict__)


#: Slots per core in the direct-mapped hit filter.  512 lines covers
#: the whole L1 of the paper's base system; collisions only cost a
#: filter miss (the slow path re-installs), never correctness.
FILTER_SLOTS = 512
_FILTER_MASK = FILTER_SLOTS - 1

# Filter entry layout: [block, line, writable, interned AccessResult].
# The result is interned on the entry's first filtered hit (None until
# then): most entries a miss installs are never hit.  Public so the HTM
# layer can peek at the line's metastate between fast_entry() and
# fast_hit().
F_BLOCK, F_LINE, F_WRITABLE, F_RESULT = 0, 1, 2, 3


class FastPathStats:
    """Fast-path telemetry, deliberately *outside* :class:`ProtocolStats`.

    These counters describe how the simulator computed a result, not
    what the simulated machine did, so they must not contaminate the
    snapshots that the equivalence contract compares (fast path on vs
    off produces identical ``ProtocolStats``).  Publish them through
    :func:`repro.obs.metrics.publish_fastpath` as ``perf.fastpath.*``.
    """

    __slots__ = ("coherence_read_hits", "coherence_write_hits",
                 "installs", "invalidations",
                 "htm_read_hits", "htm_write_hits")

    def __init__(self):
        self.coherence_read_hits = 0
        self.coherence_write_hits = 0
        self.installs = 0
        self.invalidations = 0
        self.htm_read_hits = 0
        self.htm_write_hits = 0

    def snapshot(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}


class MemorySystem:
    """Functional MESI CMP memory system with latency accounting."""

    def __init__(self, config: SystemConfig,
                 listener: Optional[CoherenceListener] = None,
                 bus: Optional[EventBus] = None,
                 fast_path: bool = True):
        self._config = config
        self._topology = TiledTopology(config)
        # Hot-path locals: the latency model and the bank-interleave
        # mask are consulted on every access; caching them here skips
        # two attribute chains per lookup.
        self._lat = config.latency
        self._bank_mask = config.l2_banks - 1
        self._num_mcs = config.memory_controllers
        self._listener = listener or CoherenceListener()
        #: Observability bus shared by the whole machine stack: the
        #: HTM and executor layers pick it up from here, so enabling
        #: tracing is a single constructor argument.
        self.bus = bus if bus is not None else NULL_BUS
        self._caches: List[L1Cache] = [
            L1Cache(config.l1, core) for core in range(config.num_cores)
        ]
        self._directory = Directory()
        self._dir_entries = self._directory.entries
        self._zero_filled: List[Tuple[int, int]] = []
        self.stats = ProtocolStats()
        #: The per-core direct-mapped hit filter.  Each entry memoizes
        #: a stable L1 hit — a (block, line) pair whose next access
        #: needs no directory action — so ``access`` can skip the tag
        #: walk and result allocation entirely.  Entries are dropped at
        #: every point a line mutates (install/remove/invalidate/
        #: downgrade/evict/upgrade), which keeps the filter a pure
        #: memoization: simulated outcomes are identical either way.
        self._fast_path = fast_path
        self._filters: List[List[Optional[list]]] = [
            [None] * FILTER_SLOTS for _ in range(config.num_cores)
        ]
        self.fastpath = FastPathStats()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def config(self) -> SystemConfig:
        return self._config

    @property
    def topology(self) -> TiledTopology:
        return self._topology

    @property
    def fast_path_enabled(self) -> bool:
        """Whether the hit filter is active (``--no-fastpath`` clears it)."""
        return self._fast_path

    @property
    def directory(self) -> Directory:
        return self._directory

    def set_listener(self, listener: CoherenceListener) -> None:
        """Attach the HTM's movement observer."""
        self._listener = listener

    def cache(self, core: int) -> L1Cache:
        """The private L1 of ``core``."""
        return self._caches[core]

    def holders(self, block: int) -> Set[int]:
        """Cores currently holding a copy of ``block``."""
        entry = self._directory.peek(block)
        return entry.holders() if entry else set()

    def needs_directory(self, core: int, block: int,
                        is_write: bool) -> bool:
        """Whether ``access`` with these arguments would reach the directory.

        True on an L1 miss, and on a write that finds its line SHARED
        (an upgrade).  Every other access is a pure L1 hit.  LogTM-SE
        signature-checks exactly the requests this answers True for.
        """
        cache = self._caches[core]
        line = cache.sets[block & cache.set_mask].get(block)
        if line is None:
            return True
        return is_write and line.state is _SHARED

    def mark_zero_filled(self, start: int, end: int) -> None:
        """Declare [start, end) as freshly zero-filled virtual memory.

        First-touch misses in such a range (e.g. a thread's newly
        allocated transaction log) cost an L2 hit, not a DRAM fetch:
        the OS just zeroed those pages, so they are chip-resident.
        """
        if end <= start:
            raise CoherenceError("empty zero-filled range")
        self._zero_filled.append((start, end))

    def request_latency(self, core: int, block: int) -> int:
        """Cost of a directory request that gets NACKed (LogTM-SE).

        TokenTM never NACKs, but LogTM-SE's eager conflict detection
        rejects conflicting requests at the protocol level; the
        requester still pays the round trip to the directory.
        """
        return self._directory_round_trip(core, block)

    # ------------------------------------------------------------------
    # The access path
    # ------------------------------------------------------------------

    def access(self, core: int, block: int, is_write: bool) -> AccessResult:
        """Give ``core`` read or write permission for ``block``.

        Returns the latency-charged result; all coherence side effects
        (evictions, invalidations, downgrades) have been applied and
        reported to the listener when this returns.
        """
        if self._fast_path:
            entry = self._filters[core][block & _FILTER_MASK]
            if (entry is not None and entry[F_BLOCK] == block
                    and (not is_write or entry[F_WRITABLE])):
                return self.fast_hit(core, entry, is_write)

        if is_write:
            self.stats.writes += 1
        else:
            self.stats.reads += 1

        cache = self._caches[core]
        cache_set = cache.sets[block & cache.set_mask]
        line = cache_set.get(block)
        if line is not None:
            return self._access_hit(core, cache, line, block, is_write)
        return self._access_miss(core, cache, cache_set, block, is_write)

    # ------------------------------------------------------------------
    # The hit filter
    # ------------------------------------------------------------------
    #
    # A filter entry exists only while *no* directory action can be
    # needed by the next access of that kind: any valid state for
    # reads, M (or E, with the silent E->M fold applied here) for
    # writes.  Every line mutation drops the entry, so a present entry
    # is proof the slow path would have produced exactly the interned
    # result.

    def fast_entry(self, core: int, block: int,
                   is_write: bool) -> Optional[list]:
        """Look up the hit filter without side effects.

        Returns the entry if the access is filterable, else None.  The
        HTM layer uses this to *peek* (it must still check metastate
        before committing), then calls :meth:`fast_hit` to commit.
        """
        if not self._fast_path:
            return None
        entry = self._filters[core][block & _FILTER_MASK]
        if (entry is not None and entry[F_BLOCK] == block
                and (not is_write or entry[F_WRITABLE])):
            return entry
        return None

    def fast_hit(self, core: int, entry: list,
                 is_write: bool) -> AccessResult:
        """Commit a filtered access: bump stats, recency, fold E->M.

        Performs exactly the bookkeeping the slow path's pure-hit
        branch would (counter bumps, one LRU tick, silent E->M on
        write) and returns the entry's interned result, interning it
        on first use.
        """
        stats = self.stats
        fp = self.fastpath
        line = entry[F_LINE]
        if is_write:
            stats.writes += 1
            fp.coherence_write_hits += 1
            if line.state is not _MODIFIED:
                # Silent E->M upgrade, same as the slow hit path.
                line.state = _MODIFIED
        else:
            stats.reads += 1
            fp.coherence_read_hits += 1
        stats.l1_hits += 1
        # touch_line, inlined: one LRU tick.
        cache = self._caches[core]
        tick = cache.tick = cache.tick + 1
        line.lru = tick
        result = entry[F_RESULT]
        if result is None:
            result = entry[F_RESULT] = AccessResult(self._lat.l1_hit,
                                                    True, line)
        return result

    def _filter_install(self, core: int, line: CacheLine,
                        result: Optional[AccessResult] = None) -> None:
        """Memoize a stable hit.  Callers guard on ``self._fast_path``."""
        block = line.block
        self._filters[core][block & _FILTER_MASK] = [
            block, line, line.state is not _SHARED, result,
        ]
        self.fastpath.installs += 1

    def _filter_drop(self, core: int, block: int) -> None:
        """Forget a memoized hit because its line is mutating."""
        filt = self._filters[core]
        slot = block & _FILTER_MASK
        entry = filt[slot]
        if entry is not None and entry[F_BLOCK] == block:
            filt[slot] = None
            self.fastpath.invalidations += 1

    def _access_hit(self, core: int, cache: L1Cache, line: CacheLine,
                    block: int, is_write: bool) -> AccessResult:
        lat = self._lat
        cache.touch_line(line)
        if not is_write or line.state is _MODIFIED:
            self.stats.l1_hits += 1
            result = AccessResult(lat.l1_hit, True, line)
            if self._fast_path:
                self._filter_install(core, line, result)
            return result
        if line.state is _EXCLUSIVE:
            # Silent E->M upgrade; directory already records exclusivity.
            line.state = _MODIFIED
            self.stats.l1_hits += 1
            result = AccessResult(lat.l1_hit, True, line)
            if self._fast_path:
                self._filter_install(core, line, result)
            return result

        # Write hit on a SHARED line: upgrade via the directory.
        self.stats.upgrades += 1
        invalidated = self._invalidate_others(core, block)
        self._directory.record_upgrade(block, core)
        line.state = _MODIFIED
        latency = (lat.l1_hit + self._directory_round_trip(core, block)
                   + self._invalidation_latency(core, block, invalidated))
        if self._fast_path:
            self._filter_install(core, line)
        return AccessResult(latency, True, line, upgraded=True,
                            invalidated=invalidated)

    def _access_miss(self, core: int, cache: L1Cache, cache_set: dict,
                     block: int, is_write: bool) -> AccessResult:
        """Fill ``block`` into ``core``'s L1; ``cache_set`` is its set.

        Every transactional first touch lands here, and so does every
        new log block, so the directory lookup-or-create and the round
        trip are computed inline, and the victim search runs only when
        the set is full.

        A block gets its directory entry at its first miss and never
        loses it, so a block with no entry has never been on chip: no
        L1 holds it, and the L2 has it only if its page was zero-filled.
        Such a fill takes its own short branch.  A block with an entry
        has been on chip, so the L2 holds it (L2 capacity is not
        modelled) and a fill not served by an owner costs an L2 hit.
        """
        stats = self.stats
        stats.l1_misses += 1
        if len(cache_set) >= cache.ways:
            self.evict(core, cache.victim_for(block).block)
        lat = self._lat
        topo = self._topology
        bank = block & self._bank_mask
        latency = 2 * topo.core_bank_lat[core][bank] + lat.directory
        entry = self._dir_entries.get(block)

        if entry is None:
            self._dir_entries[block] = DirectoryEntry(_DIR_EXCLUSIVE, core)
            for start, end in self._zero_filled:
                if start <= block < end:
                    latency += lat.l2_hit
                    break
            else:
                stats.memory_fetches += 1
                latency += lat.memory + 2 * topo.bank_mc_lat[bank][
                    block % self._num_mcs]
            new_line = cache.install(block,
                                     _MODIFIED if is_write else _EXCLUSIVE)
            self._listener.on_fill(core, block, new_line, False,
                                   MEMORY_HOLDER)
            if self._fast_path:
                self._filter_install(core, new_line)
            return AccessResult(latency, False, new_line, False, True)

        source = MEMORY_HOLDER
        invalidated: Tuple[int, ...] = ()
        state = entry.state

        if state is _DIR_EXCLUSIVE:
            owner = entry.owner
            assert owner is not None
            source = owner
            stats.cache_to_cache += 1
            # Forward request to owner, data comes core-to-core.
            latency += (topo.core_bank_lat[owner][bank]
                        + topo.core_core_lat[owner][core])
            if is_write:
                owner_line = self._caches[owner].remove(block)
                self._filter_drop(owner, block)
                self._listener.on_invalidate(owner, block, owner_line, core)
                stats.invalidations += 1
                entry.state = _DIR_UNCACHED
                entry.owner = None
                invalidated = (owner,)
            else:
                owner_line = self._caches[owner].lookup(block)
                assert owner_line is not None
                owner_line.state = _SHARED
                self._filter_drop(owner, block)
                self._directory.record_downgrade(block, core)
                self._listener.on_downgrade(owner, block, owner_line, core)
                stats.downgrades += 1
        else:
            if is_write and state is _DIR_SHARED:
                invalidated = self._invalidate_others(core, block)
                latency += self._invalidation_latency(core, block, invalidated)
            latency += lat.l2_hit

        if is_write:
            new_line = cache.install(block, _MODIFIED)
            # Entry may be UNCACHED or drained of sharers.
            entry.state = _DIR_EXCLUSIVE
            entry.owner = core
            entry.sharers.clear()
            shared = False
        elif entry.state is _DIR_SHARED:
            # Already shared, or the owner's downgrade just made it so.
            new_line = cache.install(block, _SHARED)
            entry.sharers.add(core)
            shared = True
        else:
            new_line = cache.install(block, _EXCLUSIVE)
            entry.state = _DIR_EXCLUSIVE
            entry.owner = core
            shared = False

        self._listener.on_fill(core, block, new_line, shared, source)
        if self._fast_path:
            self._filter_install(core, new_line)
        return AccessResult(latency, False, new_line, False, True, source,
                            invalidated)

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------

    def evict(self, core: int, block: int) -> None:
        """Non-silent eviction of ``block`` from ``core``'s L1.

        Also usable directly (paging, tests).  Dirty data conceptually
        writes back to L2; either way the directory learns the copy is
        gone and the listener can fuse metastate home.
        """
        cache = self._caches[core]
        line = cache.remove(block)
        self._filter_drop(core, block)
        self._directory.record_eviction(block, core)
        self.stats.evictions += 1
        if self.bus.enabled:
            self.bus.emit(EventKind.CACHE_EVICT, core=core, block=block,
                          state=line.state.name.lower())
        self._listener.on_evict(core, block, line)

    def mask_ways(self, core: int, ways: int) -> int:
        """Restrict ``core``'s L1 to ``ways`` usable ways per set.

        Fault-injection hook for capacity pressure: lines that no
        longer fit are evicted *non-silently* through :meth:`evict`,
        so the directory is told and the HTM listener can fuse any
        metastate home (TokenTM metabit overflow into the in-memory
        summary).  Passing ``ways >= associativity`` restores the full
        cache.  Returns the number of lines evicted.
        """
        overflow = self._caches[core].set_way_limit(ways)
        for block in overflow:
            self.evict(core, block)
        return len(overflow)

    def _invalidate_others(self, core: int, block: int) -> Tuple[int, ...]:
        entry = self._directory.entry(block)
        if entry.state is not _DIR_SHARED:
            return ()
        others = sorted(entry.sharers - {core})
        for other in others:
            other_line = self._caches[other].remove(block)
            self._filter_drop(other, block)
            entry.sharers.discard(other)
            self.stats.invalidations += 1
            self._listener.on_invalidate(other, block, other_line, core)
        return tuple(others)

    def _directory_round_trip(self, core: int, block: int) -> int:
        bank = block & self._bank_mask
        return (2 * self._topology.core_to_bank_latency(core, bank)
                + self._lat.directory)

    def _invalidation_latency(self, core: int, block: int,
                              invalidated: Tuple[int, ...]) -> int:
        """Invalidations fan out in parallel; charge the slowest."""
        if not invalidated:
            return 0
        bank = block & self._bank_mask
        topo = self._topology
        worst = 0
        for other in invalidated:
            one_way = (topo.core_to_bank_latency(other, bank)
                       + topo.core_to_core_latency(other, core))
            if one_way > worst:
                worst = one_way
        return worst

    # ------------------------------------------------------------------
    # Invariant audit
    # ------------------------------------------------------------------

    def audit(self) -> None:
        """Cross-check cache states against the directory.

        Raises :class:`CoherenceError` on the first inconsistency.
        Intended for tests; O(total resident lines).
        """
        seen: dict = {}
        for cache in self._caches:
            for line in cache.lines():
                seen.setdefault(line.block, []).append((cache.core, line))
        for block, holders in seen.items():
            entry = self._directory.peek(block)
            if entry is None:
                raise CoherenceError(f"cached block {block:#x} unknown to directory")
            cores = {core for core, _ in holders}
            if entry.holders() != cores:
                raise CoherenceError(
                    f"directory holders {entry.holders()} != caches {cores} "
                    f"for block {block:#x}"
                )
            modified = [c for c, ln in holders
                        if ln.state in (MESI.MODIFIED, MESI.EXCLUSIVE)]
            if len(modified) > 1:
                raise CoherenceError(
                    f"multiple exclusive copies of {block:#x}: {modified}"
                )
            if modified and len(holders) > 1:
                raise CoherenceError(
                    f"exclusive copy of {block:#x} coexists with sharers"
                )
        for block, entry in self._directory.blocks():
            for core in entry.holders():
                if self._caches[core].lookup(block) is None:
                    raise CoherenceError(
                        f"directory lists core {core} for {block:#x} "
                        "but the cache has no copy"
                    )
