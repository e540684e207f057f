"""Repeat transactional accesses, per variant.

A repeat access whose block is already in the transaction's set, with
the line resident and permissions held, must return a hit outcome at
L1-hit latency without re-running the token / signature / directory
machinery — and must stand down whenever the needed preconditions
(residency, metastate, no pending shards, no migration) fail.
TokenTM and OneTM short-circuit such accesses in the HTM layer;
LogTM-SE relies on the coherence hit filter alone.
"""

import pytest

from repro.common.config import HTMConfig
from repro.coherence.protocol import MemorySystem
from repro.htm import make_htm
from repro.htm.onetm import OneTM
from tests.conftest import SMALL_T, small_system

# The transaction-log region at ``1 << 40`` aliases filter slot 0 and
# each log append advances one slot, so early log traffic churns the
# low filter slots (a legal filter miss, but it would mask the
# short-circuit these tests assert on).  Park the test block in a
# high slot (0x3190 & 511 == 400) the log march never reaches here.
B = 0x3190


def build(variant):
    mem = MemorySystem(small_system())
    return make_htm(variant, mem, HTMConfig(tokens_per_block=SMALL_T))


class TestTokenTM:
    def test_repeat_read_short_circuits(self):
        htm = build("TokenTM")
        htm.begin(0, 0)
        htm.read(0, 0, B)
        entries = htm.log_entries(0)
        out = htm.read(0, 0, B)
        assert out.granted
        assert out.latency == htm.mem.config.latency.l1_hit
        assert htm.mem.fastpath.htm_read_hits == 1
        assert htm.log_entries(0) == entries
        htm.audit()

    def test_repeat_write_short_circuits(self):
        htm = build("TokenTM")
        htm.begin(0, 0)
        htm.write(0, 0, B)
        out = htm.write(0, 0, B)
        assert out.granted
        assert htm.mem.fastpath.htm_write_hits == 1
        htm.audit()

    def test_read_after_write_short_circuits(self):
        htm = build("TokenTM")
        htm.begin(0, 0)
        htm.write(0, 0, B)
        out = htm.read(0, 0, B)
        assert out.granted
        assert htm.mem.fastpath.htm_read_hits == 1
        htm.audit()

    def test_interned_outcomes_are_reused(self):
        htm = build("TokenTM")
        htm.begin(0, 0)
        htm.read(0, 0, B)
        a = htm.read(0, 0, B)
        b = htm.read(0, 0, B)
        assert a is b

    def test_first_access_is_never_fast(self):
        htm = build("TokenTM")
        htm.begin(0, 0)
        htm.read(0, 0, B)
        assert htm.mem.fastpath.htm_read_hits == 0

    def test_write_after_read_is_not_fast(self):
        """Read-set membership alone must not satisfy a write."""
        htm = build("TokenTM")
        htm.begin(0, 0)
        htm.read(0, 0, B)
        out = htm.write(0, 0, B)   # needs the full token grab
        assert out.granted
        assert htm.mem.fastpath.htm_write_hits == 0
        htm.audit()

    def test_context_switch_spills_then_recovers(self):
        """After a metastate spill the slow path must re-run (R+)."""
        htm = build("TokenTM")
        htm.begin(0, 0)
        htm.read(0, 0, B)
        htm.context_switch(0)      # spills in-cache metastate
        htm.schedule(0, 0)
        out = htm.read(0, 0, B)    # line state changed; never wrong
        assert out.granted
        htm.audit()

    def test_fastpath_off_still_correct(self):
        mem = MemorySystem(small_system(), fast_path=False)
        htm = make_htm("TokenTM", mem, HTMConfig(tokens_per_block=SMALL_T))
        htm.begin(0, 0)
        htm.read(0, 0, B)
        out = htm.read(0, 0, B)
        assert out.granted
        assert mem.fastpath.htm_read_hits == 0
        htm.audit()


class TestLogTMSE:
    """LogTM-SE has no set short-circuit of its own: a repeat access
    is an L1 hit that the coherence hit filter serves, and only a
    request that reaches the directory is signature-checked."""

    def test_repeat_read_short_circuits(self):
        htm = build("LogTM-SE_4xH3")
        htm.begin(0, 0)
        htm.read(0, 0, B)
        checks = htm.sigcheck.checks
        out = htm.read(0, 0, B)
        assert out.granted
        assert out.latency == htm.mem.config.latency.l1_hit
        assert htm.sigcheck.checks == checks  # never reached the directory

    def test_repeat_write_short_circuits(self):
        htm = build("LogTM-SE_4xH3")
        htm.begin(0, 0)
        htm.write(0, 0, B)
        entries = htm._logs[0].entry_count
        out = htm.write(0, 0, B)
        assert out.granted
        assert out.latency == htm.mem.config.latency.l1_hit
        assert htm._logs[0].entry_count == entries  # no duplicate undo log

    def test_nacked_foreign_write_leaves_fast_path_intact(self):
        """Eager conflict detection NACKs the writer at the directory;
        the victim keeps its line, so its next re-read is an L1 hit."""
        htm = build("LogTM-SE_4xH3")
        htm.begin(0, 0)
        htm.read(0, 0, B)
        htm.begin(1, 1)
        out = htm.write(1, 1, B)
        assert not out.granted     # NACKed, nothing invalidated
        assert htm.mem.cache(0).lookup(B) is not None
        assert htm.mem.cache(1).lookup(B) is None
        misses = htm.mem.stats.l1_misses
        out = htm.read(0, 0, B)
        assert out.granted
        assert out.latency == htm.mem.config.latency.l1_hit
        assert htm.mem.stats.l1_misses == misses

    def test_lost_line_falls_back_to_slow_path(self):
        """Once the victim is no longer transactional, a foreign write
        really invalidates the line — the next transactional read
        misses in the L1 and pays more than an L1 hit."""
        htm = build("LogTM-SE_4xH3")
        htm.begin(0, 0)
        htm.read(0, 0, B)
        htm.commit(0, 0)
        htm.begin(1, 1)
        assert htm.write(1, 1, B).granted  # invalidates core 0's copy
        htm.commit(1, 1)
        assert htm.mem.cache(0).lookup(B) is None
        htm.begin(0, 2)
        misses = htm.mem.stats.l1_misses
        out = htm.read(0, 2, B)
        assert out.granted
        assert out.latency > htm.mem.config.latency.l1_hit
        assert htm.mem.stats.l1_misses == misses + 1


class TestOneTM:
    def build(self):
        return OneTM(MemorySystem(small_system()),
                     HTMConfig(tokens_per_block=SMALL_T))

    def test_repeat_read_short_circuits(self):
        htm = self.build()
        htm.begin(0, 0)
        htm.read(0, 0, B)
        out = htm.read(0, 0, B)
        assert out.granted
        assert htm.mem.fastpath.htm_read_hits == 1

    def test_repeat_write_short_circuits(self):
        htm = self.build()
        htm.begin(0, 0)
        htm.write(0, 0, B)
        out = htm.write(0, 0, B)
        assert out.granted
        assert htm.mem.fastpath.htm_write_hits == 1

    def test_migration_disables_fast_path(self):
        """A migrated bounded txn must re-walk residency checks."""
        htm = self.build()
        htm.begin(0, 0)
        htm.read(0, 0, B)
        htm.context_switch(0)
        htm.schedule(1, 0)         # resume on a different core
        hits = htm.mem.fastpath.htm_read_hits
        out = htm.read(1, 0, B)
        assert out.granted
        assert htm.mem.fastpath.htm_read_hits == hits  # not filtered

    def test_lost_line_disables_fast_path(self):
        """After losing a txn line, the overflow walk must re-run."""
        htm = self.build()
        htm.begin(0, 0)
        # Blocks B + i*4 share one L1 set (4 ways); the fifth access
        # evicts a transactional line and triggers overflow mode.
        for i in range(5):
            htm.read(0, 0, B + i * 4)
        assert htm.stats.overflow_serializations == 1
        # Overflowed txns are conflict-immune; repeats may fast-hit.
        out = htm.read(0, 0, B)
        assert out.granted


@pytest.mark.parametrize("variant",
                         ["TokenTM", "LogTM-SE_4xH3", "OneTM"])
def test_counters_reach_metrics_registry(variant):
    """Every variant serves the repeat read from the coherence hit
    filter; TokenTM and OneTM reach it through their HTM
    short-circuit, while LogTM-SE has none and keeps
    ``htm_read_hits`` only as an always-zero key."""
    from repro.obs.metrics import publish_fastpath

    htm = build(variant)
    htm.begin(0, 0)
    htm.read(0, 0, B)
    htm.read(0, 0, B)
    reg = publish_fastpath(htm.mem.fastpath.snapshot())
    htm_hits = 0 if variant.startswith("LogTM-SE") else 1
    assert reg["perf.fastpath.htm_read_hits"].value == htm_hits
    assert reg["perf.fastpath.coherence_read_hits"].value == 1
