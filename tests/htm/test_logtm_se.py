"""Direct-drive tests of the LogTM-SE machine."""

import pytest

from repro.common.config import HTMConfig, SignatureConfig
from repro.common.errors import TransactionError
from repro.coherence.protocol import MemorySystem
from repro.htm.base import ConflictKind
from repro.htm.logtm_se import LogTMSE
from tests.conftest import small_system

B = 0x5000


def build(perfect=False, bits=2048, k=4):
    sig = SignatureConfig(perfect=True) if perfect else \
        SignatureConfig(bits=bits, num_hashes=k)
    cfg = HTMConfig(signature=sig)
    return LogTMSE(MemorySystem(small_system()), cfg, signature=sig)


class TestNaming:
    def test_perfect_name(self):
        assert build(perfect=True).name == "LogTM-SE_Perf"

    def test_hash_count_in_name(self):
        assert build(k=2).name == "LogTM-SE_2xH3"
        assert build(k=4).name == "LogTM-SE_4xH3"


class TestBasic:
    def test_read_write_commit(self):
        htm = build(perfect=True)
        htm.begin(0, 0)
        assert htm.read(0, 0, B).granted
        assert htm.write(0, 0, B + 1).granted
        out = htm.commit(0, 0)
        assert out.used_fast_release  # signature clear is O(1)
        assert htm.stats.commits == 1

    def test_double_begin_rejected(self):
        htm = build()
        htm.begin(0, 0)
        with pytest.raises(TransactionError):
            htm.begin(0, 0)

    def test_only_first_write_logs(self):
        htm = build(perfect=True)
        htm.begin(0, 0)
        first = htm.write(0, 0, B)
        second = htm.write(0, 0, B)
        assert second.latency < first.latency


class TestConflicts:
    def test_true_write_write_conflict(self):
        htm = build(perfect=True)
        htm.begin(0, 0)
        htm.write(0, 0, B)
        htm.begin(1, 1)
        out = htm.write(1, 1, B)
        assert not out.granted
        assert out.conflict.kind is ConflictKind.WRITER
        assert out.conflict.hints == (0,)
        assert not out.conflict.false_positive

    def test_true_read_write_conflict(self):
        htm = build(perfect=True)
        htm.begin(0, 0)
        htm.read(0, 0, B)
        htm.begin(1, 1)
        out = htm.write(1, 1, B)
        assert not out.granted
        assert out.conflict.kind is ConflictKind.READERS

    def test_readers_do_not_conflict(self):
        htm = build(perfect=True)
        htm.begin(0, 0)
        htm.read(0, 0, B)
        htm.begin(1, 1)
        assert htm.read(1, 1, B).granted

    def test_nack_means_no_data_movement(self):
        htm = build(perfect=True)
        htm.begin(0, 0)
        htm.write(0, 0, B)
        htm.begin(1, 1)
        htm.write(1, 1, B)  # NACKed
        assert htm.mem.holders(B) == {0}  # block never moved

    def test_conflict_clears_after_commit(self):
        htm = build(perfect=True)
        htm.begin(0, 0)
        htm.write(0, 0, B)
        htm.begin(1, 1)
        assert not htm.write(1, 1, B).granted
        htm.commit(0, 0)
        assert htm.write(1, 1, B).granted

    def test_abort_undoes_and_clears(self):
        htm = build(perfect=True)
        htm.begin(0, 0)
        htm.write(0, 0, B)
        out = htm.abort(0, 0)
        assert out.latency > 0
        assert htm.stats.aborts == 1
        htm.begin(1, 1)
        assert htm.write(1, 1, B).granted

    def test_strong_atomicity_checks(self):
        htm = build(perfect=True)
        htm.begin(0, 0)
        htm.write(0, 0, B)
        assert not htm.nontxn_read(1, 1, B).granted
        assert not htm.nontxn_write(1, 1, B).granted
        assert htm.nontxn_read(1, 1, B + 1).granted


class TestContextSwitch:
    """A transaction switched off its core leaves its lines in that
    core's L1; the next occupant's hits must still see its signatures."""

    @pytest.mark.parametrize("perfect", [True, False])
    @pytest.mark.parametrize("is_write", [False, True])
    def test_l1_hit_on_displaced_write_conflicts(self, perfect, is_write):
        htm = build(perfect=perfect)
        htm.begin(0, 0)
        assert htm.write(0, 0, B).granted
        htm.context_switch(0)
        htm.schedule(1, 0)
        htm.begin(0, 1)
        assert not htm.mem.needs_directory(0, B, is_write)  # an L1 hit
        access = htm.write if is_write else htm.read
        out = access(0, 1, B)
        assert not out.granted
        assert out.conflict.kind is ConflictKind.WRITER
        assert out.conflict.hints == (0,)
        assert not htm.nontxn_read(0, 2, B).granted

    def test_displacement_ends_at_commit(self):
        htm = build(perfect=True)
        htm.begin(0, 0)
        htm.write(0, 0, B)
        htm.context_switch(0)
        htm.schedule(1, 0)
        htm.commit(1, 0)
        htm.begin(0, 1)
        assert htm.read(0, 1, B).granted
        assert htm.stats.conflicts == 0

    def test_displaced_reader_allows_reads(self):
        htm = build(perfect=True)
        htm.begin(0, 0)
        htm.read(0, 0, B)
        htm.context_switch(0)
        htm.schedule(1, 0)
        htm.begin(0, 1)
        assert htm.read(0, 1, B).granted


class TestFalsePositives:
    def test_perfect_never_false_positive(self):
        htm = build(perfect=True)
        htm.begin(0, 0)
        for i in range(200):
            htm.read(0, 0, B + i)
            htm.write(0, 0, B + 4096 + i)
        htm.begin(1, 1)
        for i in range(200):
            assert htm.read(1, 1, B + 8192 + i).granted
        assert htm.stats.false_positive_conflicts == 0

    def test_small_saturated_signature_false_positives(self):
        # A tiny 64-bit signature saturates quickly: disjoint sets
        # must eventually collide.
        htm = build(bits=64, k=2)
        htm.begin(0, 0)
        for i in range(60):
            htm.write(0, 0, B + i)
        htm.begin(1, 1)
        conflicts = 0
        for i in range(60):
            out = htm.read(1, 1, B + 10_000 + i * 7)
            conflicts += 0 if out.granted else 1
        assert conflicts > 0
        assert htm.stats.false_positive_conflicts > 0

    def test_false_positive_flagged_as_such(self):
        # Scattered (not sequential) addresses: H3 is linear over
        # GF(2), so dense sequential keys occupy a low-dimensional
        # coset and can systematically miss each other.
        htm = build(bits=64, k=2)
        htm.begin(0, 0)
        for i in range(64):
            htm.write(0, 0, B + i * 977 + 13)
        htm.begin(1, 1)
        for i in range(400):
            out = htm.read(1, 1, B + 1_000_003 + i * 1_009)
            if not out.granted:
                assert out.conflict.false_positive
                break
        else:  # pragma: no cover
            raise AssertionError("saturated signature never matched")


class TestInstrumentation:
    def test_set_sizes(self):
        htm = build(perfect=True)
        htm.begin(0, 0)
        htm.read(0, 0, B)
        htm.read(0, 0, B + 1)
        htm.write(0, 0, B + 2)
        assert htm.read_set_size(0) == 2
        assert htm.write_set_size(0) == 1
        assert htm.active_tids() == [0]

    def test_signature_fill_reported(self):
        htm = build(k=4)
        htm.begin(0, 0)
        for i in range(50):
            htm.read(0, 0, B + i)
        read_fill, write_fill = htm.signature_fill(0)
        assert read_fill > 0.0
        assert write_fill == 0.0


class TestSummaries:
    def test_summaries_track_live_signatures(self):
        htm = build(k=2)
        htm.begin(0, 0)
        htm.read(0, 0, B)
        htm.begin(1, 1)
        htm.write(1, 1, B + 1)
        txns = htm._txns
        assert htm._read_summary == txns[0].read_sig.packed
        assert htm._write_summary == txns[1].write_sig.packed
        htm.commit(1, 1)
        assert htm._write_summary == 0
        htm.abort(0, 0)
        assert htm._read_summary == 0

    def test_oracle_rejects_a_stale_or_short_summary(self):
        htm = build(k=2)
        htm.begin(0, 0)
        htm.write(0, 0, B)
        assert "signature_summary" in htm.check_invariants()["checks"]
        htm._write_summary = 0
        with pytest.raises(TransactionError, match="write summary misses"):
            htm.check_invariants()
        htm._write_summary = htm._txns[0].write_sig.packed
        htm._read_summary = 1
        with pytest.raises(TransactionError, match="1 stale bits"):
            htm.check_invariants()

    def test_perfect_signatures_keep_an_exact_summary(self):
        htm = build(perfect=True)
        htm.begin(0, 0)
        htm.write(0, 0, B)
        htm.begin(1, 1)
        assert htm.read(1, 1, B + 1).granted
        # Txn 0's write and txn 1's read were cleared on the counts.
        assert htm.sigcheck.snapshot() == {
            "checks": 2, "summary_clears": 2, "probes": 0}
        assert not htm.write(1, 1, B).granted
        # The write count held B: the scan probed txn 0's write set,
        # hit, and made no read probe.
        assert htm.sigcheck.snapshot() == {
            "checks": 3, "summary_clears": 2, "probes": 1}
        assert htm._write_counts == {B: 1}
        assert htm._read_counts == {B + 1: 1}
        checks = htm.check_invariants()["checks"]
        assert "exact_summary" in checks
        assert "signature_summary" not in checks
        htm.commit(0, 0)
        htm.abort(1, 1)
        assert htm._write_counts == htm._read_counts == {}

    def test_oracle_rejects_a_stale_or_missing_count(self):
        htm = build(perfect=True)
        htm.begin(0, 0)
        htm.write(0, 0, B)
        htm.begin(1, 1)
        htm.read(1, 1, B + 1)
        assert "exact_summary" in htm.check_invariants()["checks"]
        htm._read_counts[B + 1] = 2
        with pytest.raises(TransactionError,
                           match="read summary counts 1 blocks wrong"):
            htm.check_invariants()
        htm._read_counts[B + 1] = 1
        htm._read_counts[B + 7] = 1
        with pytest.raises(TransactionError, match="has 1 for 0 live"):
            htm.check_invariants()
        del htm._read_counts[B + 7]
        del htm._write_counts[B]
        with pytest.raises(TransactionError,
                           match="write summary .* has 0 for 1 live"):
            htm.check_invariants()


def _vacation_sigcheck(seed):
    from repro.common.config import RunConfig, SystemConfig
    from repro.htm import make_htm
    from repro.runtime.executor import Executor
    from repro.workloads import tm_workloads

    trace = tm_workloads()["Vacation-High"].generate(
        seed=seed, scale=0.001, threads=32)
    system, cfg = SystemConfig(), HTMConfig()
    htm = make_htm("LogTM-SE_2xH3", MemorySystem(system), cfg)
    Executor(htm, trace, RunConfig(system=system, htm=cfg, seed=seed),
             validate=False, track_history=False).run()
    return htm.sigcheck.snapshot()


def test_sigcheck_counters_are_deterministic_and_mostly_cleared():
    from repro.obs.metrics import publish_sigcheck

    first = _vacation_sigcheck(3)
    assert _vacation_sigcheck(3) == first
    assert first["summary_clears"] / first["checks"] >= 0.8
    reg = publish_sigcheck(first)
    assert reg["perf.sigcheck.probes"].value == first["probes"] > 0
    empty = publish_sigcheck({})
    assert list(empty.names()) == list(reg.names())
    assert all(empty[name].value == 0 for name in empty.names())
