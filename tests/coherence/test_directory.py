"""Unit tests for the exact MESI directory.

The protocol engine writes fills, evictions and downgrades into the
directory's codes inline, so those transitions are driven here through
:class:`MemorySystem`; :meth:`Directory.record_upgrade` is the one
transition the directory still checks itself.  States the protocol
must never produce are rejected by :meth:`MemorySystem.audit`.
"""

import pytest

from repro.common.errors import CoherenceError
from repro.coherence.directory import Directory, DirState
from repro.coherence.protocol import MemorySystem
from tests.conftest import small_system


def memory():
    return MemorySystem(small_system())


class TestFills:
    def test_untouched_block_is_uncached(self):
        directory = Directory()
        assert directory.entry(0x1).state is DirState.UNCACHED
        assert directory.entry(0x1).holders() == set()

    def test_shared_fills_accumulate(self):
        mem = memory()
        mem.access(0, 0x1, False)
        mem.access(2, 0x1, False)
        entry = mem.directory.entry(0x1)
        assert entry.state is DirState.SHARED
        assert entry.holders() == {0, 2}

    def test_exclusive_fill(self):
        mem = memory()
        mem.access(3, 0x1, True)
        entry = mem.directory.entry(0x1)
        assert entry.state is DirState.EXCLUSIVE
        assert entry.holders() == {3}

    def test_exclusive_fill_with_holders_rejected(self):
        mem = memory()
        mem.access(0, 0x1, False)
        mem.access(1, 0x1, False)
        mem.audit()
        # Core 1 as sole owner while core 0 still holds a copy.
        mem.directory.entries[0x1] = 1
        with pytest.raises(CoherenceError):
            mem.audit()

    def test_shared_fill_while_exclusive_rejected(self):
        mem = memory()
        mem.access(0, 0x1, True)
        mem.audit()
        # Core 1 listed as a sharer beside the modified copy.
        mem.directory.entries[0x1] = ~0b11
        with pytest.raises(CoherenceError):
            mem.audit()


class TestEvictions:
    def test_exclusive_eviction_uncaches(self):
        mem = memory()
        mem.access(0, 0x1, True)
        mem.evict(0, 0x1)
        assert mem.directory.entry(0x1).state is DirState.UNCACHED

    def test_last_sharer_eviction_uncaches(self):
        mem = memory()
        mem.access(0, 0x1, False)
        mem.access(1, 0x1, False)
        mem.evict(0, 0x1)
        assert mem.directory.entry(0x1).state is DirState.SHARED
        mem.evict(1, 0x1)
        assert mem.directory.entry(0x1).state is DirState.UNCACHED

    def test_eviction_by_non_holder_rejected(self):
        mem = memory()
        mem.access(0, 0x1, False)
        with pytest.raises(CoherenceError):
            mem.evict(1, 0x1)
        assert mem.directory.entry(0x1).holders() == {0}

    def test_eviction_of_uncached_rejected(self):
        with pytest.raises(CoherenceError):
            memory().evict(0, 0x1)


class TestUpgradeDowngrade:
    def test_upgrade_sole_sharer(self):
        directory = Directory()
        directory.entries[0x1] = ~0b1
        directory.record_upgrade(0x1, 0)
        entry = directory.entry(0x1)
        assert entry.state is DirState.EXCLUSIVE
        assert entry.owner == 0

    def test_upgrade_with_other_sharers_rejected(self):
        directory = Directory()
        directory.entries[0x1] = ~0b11
        with pytest.raises(CoherenceError):
            directory.record_upgrade(0x1, 0)

    def test_upgrade_by_non_sharer_rejected(self):
        directory = Directory()
        directory.entries[0x1] = ~0b1
        with pytest.raises(CoherenceError):
            directory.record_upgrade(0x1, 1)

    def test_downgrade_adds_requester(self):
        mem = memory()
        mem.access(0, 0x1, True)
        mem.access(2, 0x1, False)
        entry = mem.directory.entry(0x1)
        assert entry.state is DirState.SHARED
        assert entry.holders() == {0, 2}
        assert mem.stats.downgrades == 1

    def test_downgrade_of_shared_rejected(self):
        # A read of a shared block adds a sharer and demotes no one.
        mem = memory()
        mem.access(0, 0x1, False)
        mem.access(1, 0x1, False)
        downgrades = mem.stats.downgrades
        mem.access(2, 0x1, False)
        assert mem.stats.downgrades == downgrades
        assert mem.directory.entry(0x1).holders() == {0, 1, 2}
