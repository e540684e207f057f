"""TokenTM fast vs. software token release (Section 4.4)."""

from repro.common.config import HTMConfig
from repro.coherence.protocol import MemorySystem
from repro.htm.tokentm import TokenTM
from tests.conftest import SMALL_T, small_system

B = 0x4000


def build(l1_kb=1):
    cfg = HTMConfig(tokens_per_block=SMALL_T)
    return TokenTM(MemorySystem(small_system(l1_kb=l1_kb)), cfg)


class TestFastPath:
    def test_small_txn_commits_fast(self):
        htm = build()
        htm.begin(0, 0)
        htm.read(0, 0, B)
        htm.write(0, 0, B + 1)
        out = htm.commit(0, 0)
        assert out.used_fast_release
        assert out.software_release_cycles == 0
        assert htm.stats.fast_releases == 1

    def test_fast_commit_is_constant_latency(self):
        lat_small = lat_large = 0
        for nblocks, slot in ((2, "small"), (10, "large")):
            htm = build(l1_kb=4)  # roomy: no evictions
            htm.begin(0, 0)
            for i in range(nblocks):
                htm.read(0, 0, B + i)
            out = htm.commit(0, 0)
            assert out.used_fast_release
            if slot == "small":
                lat_small = out.latency
            else:
                lat_large = out.latency
        assert lat_small == lat_large  # flash-clear: size-independent


class TestSoftwareFallback:
    def test_eviction_forces_software_release(self):
        htm = build(l1_kb=1)  # 4 sets: blocks i*4 collide in set 0
        htm.begin(0, 0)
        for i in range(6):
            htm.read(0, 0, B + i * 4)
        out = htm.commit(0, 0)
        assert not out.used_fast_release
        assert out.software_release_cycles > 0
        assert htm.stats.software_releases == 1
        htm.audit()

    def test_software_release_returns_evicted_tokens(self):
        htm = build(l1_kb=1)
        htm.begin(0, 0)
        blocks = [B + i * 4 for i in range(6)]
        for b in blocks:
            htm.read(0, 0, b)
        htm.commit(0, 0)
        htm.audit()
        # Every block is writable again.
        htm.begin(1, 1)
        for b in blocks:
            assert htm.write(1, 1, b).granted
        htm.audit()

    def test_remote_invalidation_forces_software_release(self):
        htm = build(l1_kb=4)
        htm.begin(0, 0)
        htm.read(0, 0, B)
        # A non-transactional remote write invalidates core 0's copy.
        # It conflicts (strong atomicity) but data still moves.
        htm.nontxn_write(1, 1, B)
        out = htm.commit(0, 0)
        assert not out.used_fast_release
        htm.audit()

    def test_downgrade_of_written_block_forces_software_release(self):
        htm = build(l1_kb=4)
        htm.begin(0, 0)
        htm.write(0, 0, B)
        htm.nontxn_read(1, 1, B)  # conflicts, but copies the line
        out = htm.commit(0, 0)
        assert not out.used_fast_release
        htm.audit()
        # The replicated (T, X) state must have been cleaned up.
        htm.begin(2, 2)
        assert htm.write(2, 2, B).granted
        htm.audit()

    def test_downgrade_of_read_block_keeps_fast_release(self):
        htm = build(l1_kb=4)
        htm.begin(0, 0)
        htm.read(0, 0, B)
        htm.nontxn_read(1, 1, B)  # harmless shared copy
        out = htm.commit(0, 0)
        assert out.used_fast_release
        htm.audit()


class TestContextSwitch:
    def test_switch_preserves_tokens(self):
        htm = build(l1_kb=4)
        htm.begin(0, 0)
        htm.read(0, 0, B)
        htm.write(0, 0, B + 1)
        htm.context_switch(0)
        htm.audit()
        # Another thread's transaction runs on the core meanwhile.
        htm.schedule(0, 5)
        htm.begin(0, 5)
        out = htm.write(0, 5, B)
        assert not out.granted  # thread 0 still holds its token
        htm.commit(0, 5)
        htm.audit()

    def test_descheduled_txn_resumes_elsewhere(self):
        htm = build(l1_kb=4)
        htm.begin(0, 0)
        htm.read(0, 0, B)
        htm.context_switch(0)
        htm.schedule(2, 0)  # resume on core 2
        assert htm.read(2, 0, B).granted  # re-reads fine
        out = htm.commit(2, 0)
        assert not out.used_fast_release  # switch killed the fast path
        htm.audit()

    def test_new_thread_can_fast_release_after_switch(self):
        htm = build(l1_kb=4)
        htm.begin(0, 0)
        htm.read(0, 0, B)
        htm.context_switch(0)
        htm.schedule(0, 5)
        htm.begin(0, 5)
        htm.read(0, 5, B + 1)
        out = htm.commit(0, 5)
        assert out.used_fast_release
        # The descheduled transaction still owes its token.
        htm.schedule(1, 0)
        htm.commit(1, 0)
        htm.audit()


class TestNoFastVariant:
    def test_nofast_never_uses_fast_release(self):
        cfg = HTMConfig(tokens_per_block=SMALL_T)
        htm = TokenTM(MemorySystem(small_system()), cfg,
                      fast_release=False)
        assert htm.name == "TokenTM_NoFast"
        htm.begin(0, 0)
        htm.read(0, 0, B)
        out = htm.commit(0, 0)
        assert not out.used_fast_release
        htm.audit()
