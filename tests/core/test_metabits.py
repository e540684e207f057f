"""Unit tests for the in-cache metabit encoding (Table 4b)."""

import pytest

from repro.common.errors import MetastateError
from repro.core.metabits import CacheMetabits
from repro.core.metastate import META_ZERO, Meta

T = 8
X = 3  # the core's current thread
Y = 5  # some other thread


class TestEncodingTable4b:
    """Each Table 4(b) row encodes and decodes correctly."""

    def test_inactive(self):
        mb = CacheMetabits()
        assert mb.is_clear()
        assert mb.logical(T, X) == META_ZERO
        assert mb.state_tuple() == (0, 0, 0, 0, 0, 0)

    def test_own_read_token(self):
        mb = CacheMetabits.encode(Meta(1, X), T, X)
        assert mb.state_tuple() == (1, 0, 0, 0, 0, X)
        assert mb.logical(T, X) == Meta(1, X)

    def test_foreign_read_token_uses_primed_bit(self):
        mb = CacheMetabits.encode(Meta(1, Y), T, X)
        assert mb.state_tuple() == (0, 0, 1, 0, 0, Y)
        assert mb.logical(T, X) == Meta(1, Y)

    def test_own_write_tokens(self):
        mb = CacheMetabits.encode(Meta(T, X), T, X)
        assert mb.state_tuple() == (0, 1, 0, 0, 0, X)
        assert mb.logical(T, X) == Meta(T, X)

    def test_foreign_write_tokens_use_primed_bit(self):
        mb = CacheMetabits.encode(Meta(T, Y), T, X)
        assert mb.state_tuple() == (0, 0, 0, 1, 0, Y)
        assert mb.logical(T, X) == Meta(T, Y)

    def test_anonymous_count(self):
        mb = CacheMetabits.encode(Meta(4, None), T, X)
        assert mb.state_tuple() == (0, 0, 0, 0, 1, 4)
        assert mb.logical(T, X) == Meta(4, None)

    @pytest.mark.parametrize("meta", [
        META_ZERO, Meta(1, X), Meta(1, Y), Meta(4, None),
        Meta(T, X), Meta(T, Y),
    ])
    def test_round_trip(self, meta):
        mb = CacheMetabits.encode(meta, T, X)
        assert mb.logical(T, X) == meta


class TestIllegalCombinations:
    def test_r_and_rprime_rejected(self):
        with pytest.raises(MetastateError):
            CacheMetabits(r=True, rp=True)

    def test_w_and_wprime_rejected(self):
        with pytest.raises(MetastateError):
            CacheMetabits(w=True, wp=True)

    def test_writer_and_reader_bits_rejected(self):
        with pytest.raises(MetastateError):
            CacheMetabits(w=True, rplus=True)

    @pytest.mark.parametrize("bits,message", [
        ({"r": True, "rp": True}, "R and R' simultaneously set"),
        ({"w": True, "wp": True}, "W and W' simultaneously set"),
        ({"w": True, "r": True}, "writer and reader metabits both set"),
        ({"w": True, "rp": True}, "writer and reader metabits both set"),
        ({"wp": True, "rplus": True}, "writer and reader metabits both set"),
    ])
    def test_each_illegal_combination_has_its_own_message(self, bits,
                                                          message):
        with pytest.raises(MetastateError, match=f"^{message}$"):
            CacheMetabits(**bits)
        # check() rejects the same bits when they are set after
        # construction, as the hardware update paths do.
        mb = CacheMetabits()
        for name, value in bits.items():
            setattr(mb, name, value)
        with pytest.raises(MetastateError, match=f"^{message}$"):
            mb.check()


class TestSetRead:
    def test_from_clear(self):
        mb = CacheMetabits()
        mb.set_read(X)
        assert mb.logical(T, X) == Meta(1, X)

    def test_on_anonymous_count(self):
        mb = CacheMetabits.encode(Meta(3, None), T, X)
        mb.set_read(X)
        # R set with R+ : attr holds the other tokens.
        assert mb.r and mb.rplus and mb.attr == 3
        assert mb.logical(T, X) == Meta(4, None)

    def test_reclaims_own_primed_bit(self):
        # Case (i) of Section 4.4: R' names this very thread.
        mb = CacheMetabits(rp=True, attr=X)
        mb.set_read(X)
        assert mb.r and not mb.rp and mb.attr == X
        assert mb.logical(T, X) == Meta(1, X)

    def test_anonymizes_foreign_primed_bit(self):
        # Case (ii): R' belongs to another thread -> R+ with Attr=1.
        mb = CacheMetabits(rp=True, attr=Y)
        mb.set_read(X)
        assert mb.r and mb.rplus and mb.attr == 1 and not mb.rp
        assert mb.logical(T, X) == Meta(2, None)

    def test_folds_transient_primed_plus_count(self):
        # Post-context-switch transient: R' and R+ both set.
        mb = CacheMetabits(rp=True, rplus=True, attr=2)
        mb.set_read(X)
        assert mb.logical(T, X) == Meta(4, None)

    def test_on_writer_line_rejected(self):
        mb = CacheMetabits.encode(Meta(T, Y), T, X)
        with pytest.raises(MetastateError):
            mb.set_read(X)


class TestSetWrite:
    def test_from_clear(self):
        mb = CacheMetabits()
        mb.set_write(X)
        assert mb.logical(T, X) == Meta(T, X)

    def test_upgrade_folds_own_read_bit(self):
        mb = CacheMetabits()
        mb.set_read(X)
        mb.set_write(X)
        assert not mb.r and mb.w
        assert mb.logical(T, X) == Meta(T, X)

    def test_over_foreign_bits_rejected(self):
        mb = CacheMetabits.encode(Meta(3, None), T, X)
        with pytest.raises(MetastateError):
            mb.set_write(X)


class TestFlashClear:
    def test_clears_own_read(self):
        mb = CacheMetabits.encode(Meta(1, X), T, X)
        assert mb.flash_clear()
        assert mb.is_clear()

    def test_clears_own_write(self):
        mb = CacheMetabits.encode(Meta(T, X), T, X)
        assert mb.flash_clear()
        assert mb.is_clear()

    def test_preserves_anonymous_count(self):
        mb = CacheMetabits.encode(Meta(3, None), T, X)
        mb.set_read(X)
        assert mb.flash_clear()
        assert mb.logical(T, X) == Meta(3, None)

    def test_preserves_foreign_primed_bits(self):
        mb = CacheMetabits.encode(Meta(1, Y), T, X)
        assert not mb.flash_clear()  # nothing of ours to clear
        assert mb.logical(T, X) == Meta(1, Y)


class TestContextSwitch:
    def test_read_bit_moves_to_primed(self):
        mb = CacheMetabits.encode(Meta(1, X), T, X)
        mb.context_switch()
        assert not mb.r and mb.rp and mb.attr == X
        # Decoded on a core now running another thread:
        assert mb.logical(T, Y) == Meta(1, X)

    def test_write_bit_moves_to_primed(self):
        mb = CacheMetabits.encode(Meta(T, X), T, X)
        mb.context_switch()
        assert not mb.w and mb.wp and mb.attr == X
        assert mb.logical(T, Y) == Meta(T, X)

    def test_read_with_count_folds_anonymous(self):
        mb = CacheMetabits.encode(Meta(3, None), T, X)
        mb.set_read(X)  # (4, -) with our R bit
        mb.context_switch()
        assert mb.logical(T, Y) == Meta(4, None)

    def test_switch_preserves_logical_meta(self):
        for meta in [Meta(1, X), Meta(T, X), Meta(5, None)]:
            mb = CacheMetabits.encode(meta, T, X)
            before = mb.logical(T, X)
            mb.context_switch()
            assert mb.logical(T, Y).total == before.total

    def test_fuse_transient(self):
        mb = CacheMetabits(rp=True, rplus=True, attr=2)
        mb.fuse_transient()
        assert not mb.rp and mb.rplus and mb.attr == 3
        assert mb.logical(T, X) == Meta(3, None)
