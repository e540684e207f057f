"""The coherence-layer hit filter: installs, drops, and equivalence.

The filter is a pure memoization; its correctness crux is that every
line mutation drops the memoized entry.  These tests exercise each
mutation point directly, then hammer the invariant with a randomized
fast-vs-unfiltered lockstep comparison.
"""

import random

import pytest

from repro.coherence.cache import MESI
from repro.coherence.protocol import (
    F_BLOCK,
    F_LINE,
    F_RESULT,
    F_WRITABLE,
    FILTER_SLOTS,
    MemorySystem,
)
from tests.conftest import small_system

B = 0x1000


@pytest.fixture
def mem():
    return MemorySystem(small_system())


def entry_for(mem, core, block, is_write=False):
    """The filter entry an access of this kind would hit, else None."""
    entry = mem._filters[core][block % FILTER_SLOTS]
    if (entry is not None and entry[F_BLOCK] == block
            and (not is_write or entry[F_WRITABLE])):
        return entry
    return None


class TestInstall:
    def test_read_hit_installs_entry(self, mem):
        mem.access(0, B, False)            # miss: installed on fill
        assert entry_for(mem, 0, B) is not None
        mem.access(0, B, False)            # hit: stays installed
        entry = entry_for(mem, 0, B)
        assert entry[F_BLOCK] == B
        assert entry[F_LINE] is mem.cache(0).lookup(B)

    def test_exclusive_fill_is_writable(self, mem):
        mem.access(0, B, False)            # E fill
        assert entry_for(mem, 0, B, is_write=True) is not None

    def test_shared_fill_is_not_writable(self, mem):
        mem.access(0, B, False)
        mem.access(1, B, False)            # both now SHARED
        entry = entry_for(mem, 1, B)
        assert entry is not None and not entry[F_WRITABLE]
        assert entry_for(mem, 1, B, is_write=True) is None

    def test_upgrade_reinstalls_writable(self, mem):
        mem.access(0, B, False)
        mem.access(1, B, False)
        mem.access(0, B, True)             # S -> M upgrade
        assert entry_for(mem, 0, B, is_write=True) is not None


class TestDrop:
    """Every mutation point must forget the memoized entry."""

    def test_foreign_write_invalidates(self, mem):
        mem.access(0, B, False)
        mem.access(1, B, True)             # invalidate core 0's copy
        assert entry_for(mem, 0, B) is None

    def test_foreign_read_downgrade_keeps_read_entry(self, mem):
        mem.access(0, B, True)             # M
        assert entry_for(mem, 0, B, is_write=True) is not None
        mem.access(1, B, False)            # owner downgraded to SHARED
        # The old (writable) entry must be gone; the line itself is
        # still resident, so a fresh read re-installs a S entry.
        assert entry_for(mem, 0, B, is_write=True) is None

    def test_write_steal_drops_owner_entry(self, mem):
        mem.access(0, B, True)
        mem.access(1, B, True)             # steal M copy
        assert entry_for(mem, 0, B) is None

    def test_explicit_evict_drops_entry(self, mem):
        mem.access(0, B, False)
        mem.evict(0, B)
        assert entry_for(mem, 0, B) is None

    def test_capacity_eviction_drops_entry(self, mem):
        # 1 KB 4-way L1 -> 4 sets; blocks i*4 all map to L1 set 0.
        # Stride 4 also avoids filter-slot collisions (512 slots).
        for i in range(5):
            mem.access(0, i * 4, False)
        victim = next(b for b in range(0, 20, 4)
                      if mem.cache(0).lookup(b) is None)
        assert entry_for(mem, 0, victim) is None

    def test_upgrade_invalidation_drops_sharer_entries(self, mem):
        for core in range(3):
            mem.access(core, B, False)
        mem.access(0, B, True)             # invalidates cores 1, 2
        assert entry_for(mem, 1, B) is None
        assert entry_for(mem, 2, B) is None
        assert entry_for(mem, 0, B, is_write=True) is not None


class TestFastHit:
    def test_filtered_hit_returns_interned_result(self, mem):
        first = mem.access(0, B, False)
        second = mem.access(0, B, False)
        third = mem.access(0, B, False)
        assert second is third             # interned, not reallocated
        assert second.hit
        assert second.latency == mem.config.latency.l1_hit
        assert first.latency > second.latency

    def test_filtered_write_folds_silent_e_to_m(self, mem):
        mem.access(0, B, False)            # E
        res = mem.access(0, B, True)       # filtered write
        assert res.line.state is MESI.MODIFIED
        mem.audit()

    def test_filtered_hits_bump_protocol_stats(self, mem):
        mem.access(0, B, False)
        mem.access(0, B, False)
        mem.access(0, B, True)
        assert mem.stats.reads == 2
        assert mem.stats.writes == 1
        assert mem.stats.l1_hits == 2
        assert mem.fastpath.coherence_read_hits == 1
        assert mem.fastpath.coherence_write_hits == 1

    def test_filtered_hits_bump_lru(self, mem):
        # Blocks 0 and 4..16 share L1 set 0 (4 ways); re-touching
        # block 0 through the filter must protect it from eviction.
        mem.access(0, 0, False)
        for b in (4, 8, 12):
            mem.access(0, b, False)
        mem.access(0, 0, False)            # filtered hit -> MRU
        mem.access(0, 16, False)           # evicts LRU
        assert mem.cache(0).lookup(0) is not None
        assert mem.cache(0).lookup(4) is None

    def test_slot_collision_is_filter_miss_only(self, mem):
        other = B + FILTER_SLOTS           # same slot, different block
        mem.access(0, B, False)
        mem.access(0, other, False)        # overwrites the slot
        assert entry_for(mem, 0, B) is None
        res = mem.access(0, B, False)      # slow-path hit, re-installs
        assert res.hit
        assert entry_for(mem, 0, B) is not None


class TestDisabled:
    def test_no_fastpath_never_filters(self):
        mem = MemorySystem(small_system(), fast_path=False)
        mem.access(0, B, False)
        assert entry_for(mem, 0, B) is None
        mem.access(0, B, False)
        assert mem.fastpath.snapshot() == {
            name: 0 for name in mem.fastpath.snapshot()
        }


class TestRandomizedEquivalence:
    """Lockstep fast-vs-unfiltered runs must be indistinguishable."""

    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_lockstep(self, seed):
        rng = random.Random(seed)
        fast = MemorySystem(small_system())
        slow = MemorySystem(small_system(), fast_path=False)
        blocks = [rng.randrange(64) for _ in range(24)]
        for _ in range(600):
            core = rng.randrange(4)
            block = rng.choice(blocks)
            if rng.random() < 0.05:
                if slow.cache(core).lookup(block) is not None:
                    fast.evict(core, block)
                    slow.evict(core, block)
                continue
            is_write = rng.random() < 0.4
            a = fast.access(core, block, is_write)
            b = slow.access(core, block, is_write)
            assert a.latency == b.latency
            assert a.hit == b.hit
            assert a.line.state is b.line.state
        assert fast.stats.snapshot() == slow.stats.snapshot()
        for core in range(4):
            for block in set(blocks):
                fl = fast.cache(core).lookup(block)
                sl = slow.cache(core).lookup(block)
                assert (fl is None) == (sl is None)
                if fl is not None:
                    assert fl.state is sl.state
                assert fast.holders(block) == slow.holders(block)
        fast.audit()
        slow.audit()
