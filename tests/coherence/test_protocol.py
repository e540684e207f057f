"""Integration tests for the MESI protocol engine."""

import pytest

from repro.coherence.cache import MESI
from repro.coherence.protocol import (
    MEMORY_HOLDER,
    CoherenceListener,
    MemorySystem,
)
from tests.conftest import small_system

B = 0x1000


class Recorder(CoherenceListener):
    """Collects listener events for assertions."""

    def __init__(self):
        self.events = []

    def on_fill(self, core, block, line, shared, source):
        self.events.append(("fill", core, block, shared, source))

    def on_invalidate(self, core, block, line, requester):
        self.events.append(("inval", core, block, requester))

    def on_downgrade(self, core, block, line, requester):
        self.events.append(("down", core, block, requester))

    def on_evict(self, core, block, line):
        self.events.append(("evict", core, block))


@pytest.fixture
def system():
    recorder = Recorder()
    mem = MemorySystem(small_system(), recorder)
    return mem, recorder


class TestBasicAccess:
    def test_cold_read_fills_exclusive(self, system):
        mem, rec = system
        res = mem.access(0, B, False)
        assert not res.hit and res.filled
        assert res.line.state is MESI.EXCLUSIVE
        assert rec.events == [("fill", 0, B, False, MEMORY_HOLDER)]
        mem.audit()

    def test_read_hit_is_cheap(self, system):
        mem, _ = system
        miss = mem.access(0, B, False)
        hit = mem.access(0, B, False)
        assert hit.hit
        assert hit.latency < miss.latency
        assert hit.latency == mem.config.latency.l1_hit

    def test_write_hit_on_exclusive_is_silent(self, system):
        mem, rec = system
        mem.access(0, B, False)  # E
        res = mem.access(0, B, True)
        assert res.hit
        assert res.line.state is MESI.MODIFIED
        assert len(rec.events) == 1  # no extra coherence events

    def test_cold_write_fills_modified(self, system):
        mem, _ = system
        res = mem.access(0, B, True)
        assert res.line.state is MESI.MODIFIED
        mem.audit()


class TestSharing:
    def test_second_reader_downgrades_owner(self, system):
        mem, rec = system
        mem.access(0, B, False)              # core 0: E
        res = mem.access(1, B, False)        # core 1 reads
        assert ("down", 0, B, 1) in rec.events
        assert res.source == 0               # data forwarded from owner
        assert mem.cache(0).lookup(B).state is MESI.SHARED
        assert mem.cache(1).lookup(B).state is MESI.SHARED
        assert mem.holders(B) == {0, 1}
        mem.audit()

    def test_third_reader_fills_from_l2(self, system):
        mem, rec = system
        mem.access(0, B, False)
        mem.access(1, B, False)
        res = mem.access(2, B, False)
        assert res.source == MEMORY_HOLDER
        assert mem.holders(B) == {0, 1, 2}
        mem.audit()

    def test_writer_invalidates_all_sharers(self, system):
        mem, rec = system
        for core in range(3):
            mem.access(core, B, False)
        res = mem.access(3, B, True)
        assert set(res.invalidated) == {0, 1, 2}
        assert mem.holders(B) == {3}
        assert mem.cache(0).lookup(B) is None
        mem.audit()

    def test_upgrade_from_shared(self, system):
        mem, rec = system
        mem.access(0, B, False)
        mem.access(1, B, False)
        res = mem.access(0, B, True)  # upgrade
        assert res.hit and res.upgraded
        assert res.invalidated == (1,)
        assert mem.cache(0).lookup(B).state is MESI.MODIFIED
        mem.audit()

    def test_write_steals_modified_copy(self, system):
        mem, rec = system
        mem.access(0, B, True)
        res = mem.access(1, B, True)
        assert res.source == 0
        assert ("inval", 0, B, 1) in rec.events
        assert mem.holders(B) == {1}
        mem.audit()


class TestEvictions:
    def test_capacity_eviction_is_non_silent(self, system):
        mem, rec = system
        # 1 KB 4-way L1 -> 4 sets; blocks i*4 all map to set 0.
        for i in range(5):
            mem.access(0, i * 4, False)
        evicts = [e for e in rec.events if e[0] == "evict"]
        assert len(evicts) == 1
        evicted_block = evicts[0][2]
        assert mem.cache(0).lookup(evicted_block) is None
        assert evicted_block not in mem.holders(evicted_block)
        mem.audit()

    def test_explicit_evict(self, system):
        mem, rec = system
        mem.access(0, B, False)
        mem.evict(0, B)
        assert mem.holders(B) == set()
        assert ("evict", 0, B) in rec.events
        mem.audit()

    def test_refetch_after_eviction_hits_l2(self, system):
        mem, _ = system
        first = mem.access(0, B, False)
        mem.evict(0, B)
        second = mem.access(0, B, False)
        assert second.latency < first.latency  # L2 hit, not memory


class TestPreview:
    """``needs_directory`` previews an access: would it reach the
    directory (an L1 miss or an upgrade), or is it a pure L1 hit?"""

    def test_preview_hit(self, system):
        mem, _ = system
        mem.access(0, B, False)
        assert not mem.needs_directory(0, B, False)
        # Sole reader holds the line EXCLUSIVE: the write is silent.
        assert not mem.needs_directory(0, B, True)
        mem.access(0, B, True)
        assert not mem.needs_directory(0, B, True)

    def test_preview_upgrade_needs_directory(self, system):
        mem, _ = system
        mem.access(0, B, False)
        mem.access(1, B, False)
        assert not mem.needs_directory(0, B, False)
        assert mem.needs_directory(0, B, True)
        assert mem.access(0, B, True).invalidated == (1,)

    def test_preview_read_of_owned_block(self, system):
        mem, _ = system
        mem.access(0, B, True)
        assert mem.needs_directory(1, B, False)
        assert mem.access(1, B, False).source == 0

    def test_preview_does_not_mutate(self, system):
        mem, rec = system
        assert mem.needs_directory(0, B, True)
        assert rec.events == []
        assert mem.holders(B) == set()
        assert mem.stats.snapshot() == MemorySystem(small_system()) \
            .stats.snapshot()


class TestLatencies:
    def test_memory_fetch_slower_than_l2(self, system):
        mem, _ = system
        cold = mem.access(0, B, False)       # memory
        mem.access(1, B + 1, False)
        mem.evict(1, B + 1)
        warm = mem.access(0, B + 1, False)   # L2
        assert cold.latency > warm.latency

    def test_stats_counters(self, system):
        mem, _ = system
        mem.access(0, B, False)
        mem.access(0, B, False)
        mem.access(1, B, True)
        stats = mem.stats
        assert stats.reads == 2
        assert stats.writes == 1
        assert stats.l1_hits == 1
        assert stats.l1_misses == 2
        assert stats.invalidations == 1
