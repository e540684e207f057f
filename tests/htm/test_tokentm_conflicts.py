"""Direct-drive tests of TokenTM conflict detection (Section 5.2)."""

import pytest

from repro.core.metastate import Meta
from repro.htm.base import ConflictKind
from tests.conftest import SMALL_T

B = 0x3000


class TestWriterConflicts:
    def test_read_conflicts_with_foreign_writer(self, tokentm):
        tokentm.begin(0, 0)
        tokentm.write(0, 0, B)
        tokentm.begin(1, 1)
        out = tokentm.read(1, 1, B)
        assert not out.granted
        assert out.conflict.kind is ConflictKind.WRITER
        assert out.conflict.hints == (0,)  # easy case: TID in metastate
        # Every hint names a live transaction other than the requester.
        assert set(out.conflict.hints) <= set(tokentm.active_tids()) - {1}
        tokentm.audit()

    def test_write_conflicts_with_foreign_writer(self, tokentm):
        tokentm.begin(0, 0)
        tokentm.write(0, 0, B)
        tokentm.begin(1, 1)
        out = tokentm.write(1, 1, B)
        assert not out.granted
        assert out.conflict.kind is ConflictKind.WRITER
        assert out.conflict.hints == (0,)
        tokentm.audit()

    def test_conflicting_read_does_not_change_metastate(self, tokentm):
        tokentm.begin(0, 0)
        tokentm.write(0, 0, B)
        tokentm.begin(1, 1)
        tokentm.read(1, 1, B)
        # Thread 1 acquired nothing; thread 0 still owns all tokens.
        tokentm.audit()
        assert tokentm.read_set_size(1) == 0

    def test_retry_succeeds_after_owner_commits(self, tokentm):
        tokentm.begin(0, 0)
        tokentm.write(0, 0, B)
        tokentm.begin(1, 1)
        assert not tokentm.read(1, 1, B).granted
        tokentm.commit(0, 0)
        assert tokentm.read(1, 1, B).granted
        tokentm.audit()


class TestReaderConflicts:
    def test_write_conflicts_with_single_reader(self, tokentm):
        tokentm.begin(0, 0)
        tokentm.read(0, 0, B)
        tokentm.begin(1, 1)
        out = tokentm.write(1, 1, B)
        assert not out.granted
        assert out.conflict.kind is ConflictKind.READERS
        assert 0 in out.conflict.hints
        tokentm.audit()

    def test_write_conflicts_with_many_readers(self, tokentm):
        for t in range(3):
            tokentm.begin(t, t)
            assert tokentm.read(t, t, B).granted
        tokentm.begin(3, 3)
        out = tokentm.write(3, 3, B)
        assert not out.granted
        assert out.conflict.kind is ConflictKind.READERS
        # The conflictor list is completed (acks and/or log walk).
        assert set(out.conflict.hints) == {0, 1, 2}
        tokentm.audit()

    def test_write_succeeds_after_readers_finish(self, tokentm):
        for t in range(3):
            tokentm.begin(t, t)
            tokentm.read(t, t, B)
        for t in range(3):
            tokentm.commit(t, t)
        tokentm.begin(3, 3)
        assert tokentm.write(3, 3, B).granted
        tokentm.audit()

    def test_self_upgrade_after_anonymization(self, tokentm):
        """A thread whose own read token was anonymized can still write.

        Thread 0 reads B; thread 1's read anonymizes the count to
        (2,-); thread 1 commits.  Thread 0's write then sees (1,-)
        anonymous — Table 2 calls it a conflicting store, but the
        contention manager discovers all debits are thread 0's own
        and upgrades in place.
        """
        tokentm.begin(0, 0)
        tokentm.read(0, 0, B)
        tokentm.begin(1, 1)
        tokentm.read(1, 1, B)
        tokentm.commit(1, 1)
        out = tokentm.write(0, 0, B)
        assert out.granted
        tokentm.audit()
        tokentm.commit(0, 0)
        tokentm.audit()


class TestStrongAtomicity:
    def test_nontxn_read_conflicts_with_writer(self, tokentm):
        tokentm.begin(0, 0)
        tokentm.write(0, 0, B)
        out = tokentm.nontxn_read(1, 1, B)
        assert not out.granted
        assert out.conflict.kind is ConflictKind.WRITER

    def test_nontxn_read_allowed_with_readers(self, tokentm):
        tokentm.begin(0, 0)
        tokentm.read(0, 0, B)
        assert tokentm.nontxn_read(1, 1, B).granted
        tokentm.audit()

    def test_nontxn_write_conflicts_with_reader(self, tokentm):
        tokentm.begin(0, 0)
        tokentm.read(0, 0, B)
        out = tokentm.nontxn_write(1, 1, B)
        assert not out.granted
        assert out.conflict.kind is ConflictKind.READERS
        assert 0 in out.conflict.hints
        tokentm.audit()

    def test_nontxn_write_to_inactive_block_allowed(self, tokentm):
        assert tokentm.nontxn_write(1, 1, B).granted

    def test_nontxn_access_preserves_books(self, tokentm):
        tokentm.begin(0, 0)
        tokentm.read(0, 0, B)
        tokentm.nontxn_read(1, 1, B)
        tokentm.nontxn_write(2, 2, B)  # conflicts, changes nothing
        tokentm.audit()


class TestConflictAfterDataMovement:
    """TokenTM's decoupling: data moves even when tokens deny access."""

    def test_denied_writer_holds_data_but_not_tokens(self, tokentm):
        tokentm.begin(0, 0)
        tokentm.read(0, 0, B)
        tokentm.begin(1, 1)
        assert not tokentm.write(1, 1, B).granted
        # Core 1 now holds the only cached copy (coherence moved it)...
        assert tokentm.mem.holders(B) == {1}
        # ...carrying thread 0's fused token.
        line = tokentm.mem.cache(1).lookup(B)
        assert line.meta.logical(SMALL_T, 1) == Meta(1, 0)
        tokentm.audit()

    def test_reader_release_pulls_tokens_back(self, tokentm):
        tokentm.begin(0, 0)
        tokentm.read(0, 0, B)
        tokentm.begin(1, 1)
        tokentm.write(1, 1, B)  # denied; token fused at core 1
        tokentm.commit(0, 0)    # software release must chase the token
        tokentm.audit()
        assert tokentm.write(1, 1, B).granted
        tokentm.audit()
