"""The L1 line is the hit filter: interned hits, drops, and equivalence.

A resident line that needs no directory action (any read; a write to
an M or E line) is served by ``MemorySystem.fast_hit``, which returns
the line's interned ``CacheLine.hit`` result, made on its first hit.
``L1Cache.remove`` clears that slot, so a line that leaves the cache
holds no reference cycle through its result.  These tests exercise
each point where a line is filled, hit, upgraded or released, then
hammer the invariant with a randomized lockstep comparison against the
reference memory system's plain L1 hit.
"""

import random

import pytest

from repro.coherence.cache import MESI
from repro.coherence.protocol import MemorySystem
from tests.conftest import ReferenceMemorySystem, small_system

B = 0x1000


@pytest.fixture
def mem():
    return MemorySystem(small_system())


def pure_hits(mem):
    fp = mem.fastpath
    return fp.coherence_read_hits + fp.coherence_write_hits


def interned(mem, core, block, is_write=False):
    """The result a pure hit of this kind would return, else None."""
    line = mem.resident(core, block, is_write)
    return None if line is None else line.hit


class TestInstall:
    def test_read_hit_installs_entry(self, mem):
        first = mem.access(0, B, False)    # miss: a fresh result
        assert first.line.hit is None
        res = mem.access(0, B, False)      # first hit interns it
        assert res is first.line.hit is interned(mem, 0, B)
        assert res.line is mem.cache(0).lookup(B)

    def test_exclusive_fill_is_writable(self, mem):
        line = mem.access(0, B, False).line    # E fill
        assert mem.resident(0, B, True) is line
        hits = pure_hits(mem)
        res = mem.access(0, B, True)
        assert pure_hits(mem) == hits + 1
        assert res is interned(mem, 0, B, is_write=True)

    def test_shared_fill_is_not_writable(self, mem):
        mem.access(0, B, False)
        mem.access(1, B, False)            # both now SHARED
        res = mem.access(1, B, False)
        assert res is interned(mem, 1, B)
        assert interned(mem, 1, B, is_write=True) is None
        assert mem.resident(1, B, True) is None

    def test_upgrade_reinstalls_writable(self, mem):
        mem.access(0, B, False)
        mem.access(1, B, False)
        res = mem.access(0, B, True)       # S -> M upgrade
        assert res.upgraded and res is not res.line.hit
        # The upgraded line's next write is a pure hit.
        assert mem.access(0, B, True) is res.line.hit
        assert interned(mem, 0, B, is_write=True) is res.line.hit


class TestDrop:
    """Every line that leaves an L1 drops its interned result."""

    def _hit_line(self, mem, core, block):
        mem.access(core, block, False)
        line = mem.access(core, block, False).line
        assert line.hit is not None
        return line

    def test_foreign_write_invalidates(self, mem):
        line = self._hit_line(mem, 0, B)
        sharer = self._hit_line(mem, 1, B)
        mem.access(2, B, True)             # invalidates cores 0 and 1
        assert line.hit is None and sharer.hit is None
        assert interned(mem, 0, B) is None

    def test_foreign_read_downgrade_keeps_read_entry(self, mem):
        mem.access(0, B, True)             # M
        res = mem.access(0, B, False)
        mem.access(1, B, False)            # owner downgraded to SHARED
        # The line stays resident: its result still serves reads, but
        # a write now needs the directory.
        assert mem.access(0, B, False) is res
        assert interned(mem, 0, B, is_write=True) is None
        assert mem.access(0, B, True).upgraded

    def test_write_steal_drops_owner_entry(self, mem):
        mem.access(0, B, True)
        line = mem.access(0, B, True).line
        assert line.hit is not None
        mem.access(1, B, True)             # steal the M copy
        assert line.hit is None

    def test_explicit_evict_drops_entry(self, mem):
        line = self._hit_line(mem, 0, B)
        mem.evict(0, B)
        assert line.hit is None

    def test_capacity_eviction_drops_entry(self, mem):
        # 1 KB 4-way L1 -> 4 sets; blocks i*4 all map to L1 set 0.
        line = self._hit_line(mem, 0, 0)
        for i in range(1, 5):
            mem.access(0, i * 4, False)
        assert mem.cache(0).lookup(0) is None
        assert line.hit is None

    def test_upgrade_invalidation_drops_sharer_entries(self, mem):
        sharers = [self._hit_line(mem, core, B) for core in range(3)]
        hits = pure_hits(mem)
        res = mem.access(0, B, True)       # invalidates cores 1, 2
        assert res.upgraded and res.invalidated == (1, 2)
        assert sharers[1].hit is None and sharers[2].hit is None
        assert res.latency > mem.config.latency.l1_hit
        assert pure_hits(mem) == hits      # not a pure hit
        assert mem.stats.upgrades == 1
        assert res.line.state is MESI.MODIFIED
        mem.audit()

    def test_refill_interns_a_new_result(self, mem):
        old = self._hit_line(mem, 0, B).hit
        mem.evict(0, B)
        mem.access(0, B, False)
        new = mem.access(0, B, False)
        assert new is not old and new.line is not old.line


class TestFastHit:
    def test_filtered_hit_returns_interned_result(self, mem):
        first = mem.access(0, B, False)
        second = mem.access(0, B, False)
        third = mem.access(0, B, True)     # write hit on E
        assert second is third is first.line.hit
        assert second.hit and second.line is first.line
        assert second.latency == mem.config.latency.l1_hit
        assert first.latency > second.latency

    def test_filtered_write_folds_silent_e_to_m(self, mem):
        mem.access(0, B, False)            # E
        res = mem.access(0, B, True)
        assert res.line.state is MESI.MODIFIED
        assert not res.upgraded and res.invalidated == ()
        assert mem.stats.upgrades == 0
        assert mem.fastpath.coherence_write_hits == 1
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
        # block 0 must protect it from eviction.
        mem.access(0, 0, False)
        for b in (4, 8, 12):
            mem.access(0, b, False)
        mem.access(0, 0, False)            # hit -> MRU
        mem.access(0, 16, False)           # evicts LRU
        assert mem.cache(0).lookup(0) is not None
        assert mem.cache(0).lookup(4) is None

    def test_slot_collision_is_filter_miss_only(self, mem):
        # Blocks B and B + 4 share L1 set 0: each line interns its own
        # result, and hits on one never disturb the other's.
        other = B + 4
        mem.access(0, B, False)
        mem.access(0, other, False)
        a = mem.access(0, B, False)
        b = mem.access(0, other, False)
        assert a is not b
        assert a.line.block == B and b.line.block == other
        assert mem.access(0, B, False) is a
        assert mem.access(0, other, False) is b


class TestRandomizedEquivalence:
    """Lockstep runs against the reference hit must be
    indistinguishable, and every resident line's interned result must
    point back at it."""

    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_lockstep(self, seed):
        rng = random.Random(seed)
        fast = MemorySystem(small_system())
        slow = ReferenceMemorySystem(small_system())
        blocks = [rng.randrange(64) for _ in range(24)]
        released = []
        for _ in range(600):
            core = rng.randrange(4)
            block = rng.choice(blocks)
            if rng.random() < 0.05:
                if slow.cache(core).lookup(block) is not None:
                    released.append(fast.cache(core).lookup(block))
                    fast.evict(core, block)
                    slow.evict(core, block)
                continue
            is_write = rng.random() < 0.4
            a = fast.access(core, block, is_write)
            b = slow.access(core, block, is_write)
            assert a.latency == b.latency
            assert a.hit == b.hit
            assert a.upgraded == b.upgraded
            assert a.invalidated == b.invalidated
            assert a.line.state is b.line.state
        assert fast.stats.snapshot() == slow.stats.snapshot()
        assert pure_hits(fast) == fast.stats.l1_hits > 0
        assert pure_hits(slow) == 0
        for core in range(4):
            for block in set(blocks):
                fl = fast.cache(core).lookup(block)
                sl = slow.cache(core).lookup(block)
                assert (fl is None) == (sl is None)
                if fl is not None:
                    assert fl.state is sl.state
                    assert fl.hit is None or fl.hit.line is fl
                assert fast.holders(block) == slow.holders(block)
        assert all(line.hit is None for line in released)
        fast.audit()
        slow.audit()
