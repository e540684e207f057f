"""Unit tests for the in-memory metabit store (Table 4a)."""

import pytest

from repro.common.errors import MetastateError
from repro.core.metastate import META_ZERO, Meta
from repro.mem.metabit_store import (
    ATTR_BITS,
    ATTR_MAX,
    STATE_COUNT,
    STATE_OVERFLOW,
    STATE_READER,
    STATE_WRITER,
    EccBudget,
    MetabitStore,
    decode_memory_metabits,
    encode_memory_metabits,
)

T = 1 << 14  # the encoding is designed around T = 2**14


class TestEncoding:
    def test_inactive(self):
        bits = encode_memory_metabits(META_ZERO, T)
        assert bits >> ATTR_BITS == STATE_COUNT
        assert bits & ATTR_MAX == 0

    def test_anonymous_count(self):
        bits = encode_memory_metabits(Meta(37, None), T)
        assert bits >> ATTR_BITS == STATE_COUNT
        assert bits & ATTR_MAX == 37

    def test_identified_reader(self):
        bits = encode_memory_metabits(Meta(1, 99), T)
        assert bits >> ATTR_BITS == STATE_READER
        assert bits & ATTR_MAX == 99

    def test_writer(self):
        bits = encode_memory_metabits(Meta(T, 99), T)
        assert bits >> ATTR_BITS == STATE_WRITER
        assert bits & ATTR_MAX == 99

    def test_sixteen_bits_total(self):
        for meta in [META_ZERO, Meta(1, ATTR_MAX), Meta(T, ATTR_MAX),
                     Meta(123, None)]:
            assert encode_memory_metabits(meta, T) < (1 << 16)

    def test_unencodable_tid_rejected(self):
        with pytest.raises(MetastateError):
            encode_memory_metabits(Meta(1, ATTR_MAX + 1), T)

    @pytest.mark.parametrize("meta", [
        META_ZERO, Meta(1, 5), Meta(42, None), Meta(T, 7),
        Meta(1, None),  # anonymous single token
    ])
    def test_round_trip(self, meta):
        bits = encode_memory_metabits(meta, T)
        assert decode_memory_metabits(bits, T) == meta


class TestOverflow:
    def test_huge_count_uses_overflow_state(self):
        big = 1 << 15  # larger than Attr capacity
        bits = encode_memory_metabits(Meta(big, None), 1 << 16)
        assert bits >> ATTR_BITS == STATE_OVERFLOW

    def test_store_keeps_overflow_excess(self):
        big_t = 1 << 16
        store = MetabitStore(big_t)
        store.store(0xA, Meta(ATTR_MAX + 100, None))
        assert store.load(0xA) == Meta(ATTR_MAX + 100, None)


class TestStore:
    def test_default_is_inactive(self):
        store = MetabitStore(T)
        assert store.load(0xA) == META_ZERO
        assert store.raw_bits(0xA) == 0

    def test_store_load_round_trip(self):
        store = MetabitStore(T)
        store.store(0xA, Meta(3, None))
        assert store.load(0xA) == Meta(3, None)

    def test_storing_zero_sparsifies(self):
        store = MetabitStore(T)
        store.store(0xA, Meta(3, None))
        store.store(0xA, META_ZERO)
        assert store.active_blocks() == ()

    def test_active_blocks(self):
        store = MetabitStore(T)
        store.store(0xA, Meta(1, 2))
        store.store(0xB, Meta(T, 3))
        assert set(store.active_blocks()) == {0xA, 0xB}


class TestTake:
    """``take`` is exactly ``load`` followed by ``store(META_ZERO)``."""

    @staticmethod
    def _pair(tokens_per_block, block, meta):
        taken, reference = (MetabitStore(tokens_per_block)
                            for _ in range(2))
        for store in (taken, reference):
            store.store(block, meta)
            store.store(block + 1, Meta(2, None))  # a bystander block
        return taken, reference

    @staticmethod
    def _load_then_clear(store, block):
        meta = store.load(block)
        store.store(block, META_ZERO)
        return meta

    @pytest.mark.parametrize("meta", [
        META_ZERO, Meta(1, 5), Meta(42, None), Meta(T, 7),
    ])
    def test_matches_load_then_clear(self, meta):
        taken, reference = self._pair(T, 0xA, meta)
        assert taken.take(0xA) == self._load_then_clear(reference, 0xA)
        for store in (taken, reference):
            assert store.load(0xA) == META_ZERO
            assert store.raw_bits(0xA) == 0
        assert taken.active_blocks() == reference.active_blocks()

    def test_matches_load_then_clear_with_overflow_excess(self):
        big_t = 1 << 16
        meta = Meta(ATTR_MAX + 100, None)
        taken, reference = self._pair(big_t, 0xA, meta)
        overflow_bits = taken.raw_bits(0xA)
        assert taken.take(0xA) == meta
        assert self._load_then_clear(reference, 0xA) == meta
        # The excess leaves with the bits: overflow bits restored later
        # (a page-in) decode without the old excess in both stores.
        for store in (taken, reference):
            store.page_in({0xA: overflow_bits})
        assert taken.load(0xA) == reference.load(0xA) == Meta(ATTR_MAX, None)

    def test_untouched_block_takes_as_inactive(self):
        store = MetabitStore(T)
        assert store.take(0xA) == META_ZERO
        assert store.active_blocks() == ()


class TestPaging:
    def test_page_out_saves_and_clears(self):
        store = MetabitStore(T)
        store.store(0xA, Meta(3, None))
        store.store(0xB, Meta(1, 7))
        saved = store.page_out([0xA, 0xB, 0xC])
        assert set(saved) == {0xA, 0xB}
        assert store.load(0xA) == META_ZERO

    def test_page_in_restores(self):
        store = MetabitStore(T)
        store.store(0xA, Meta(3, None))
        saved = store.page_out([0xA])
        store.page_in(saved)
        assert store.load(0xA) == Meta(3, None)


class TestEccBudget:
    def test_paper_arithmetic(self):
        budget = EccBudget()
        assert budget.freed_bits == 22  # 72*4 - 256 - 10
        assert budget.fits            # 16 + 6 <= 22

    def test_overhead_report(self):
        report = MetabitStore.overhead_report()
        assert report["fits_in_recoded_ecc"] == 1.0
        assert abs(report["reserved_memory_overhead"] - 0.03125) < 1e-9
