"""Unit tests for H3 hashing and Bloom/perfect signatures."""

import random

import pytest

from repro.common.config import HTMConfig, SignatureConfig
from repro.coherence.protocol import MemorySystem
from repro.htm.logtm_se import LogTMSE
from repro.signatures import BloomSignature, PerfectSignature
from repro.signatures.bloom import mask_cache
from repro.signatures.h3 import H3Hash, hash_indices, make_h3_family
from tests.conftest import small_system


def machine(sig):
    """A LogTM-SE machine whose signatures have geometry ``sig``."""
    return LogTMSE(MemorySystem(small_system()), HTMConfig(signature=sig),
                   signature=sig)


class TestH3:
    def test_deterministic(self):
        a = H3Hash(11, seed=1, lane=0)
        b = H3Hash(11, seed=1, lane=0)
        for key in (0, 1, 0xDEADBEEF, (1 << 40) + 17):
            assert a(key) == b(key)

    def test_lanes_are_independent(self):
        a = H3Hash(11, seed=1, lane=0)
        b = H3Hash(11, seed=1, lane=1)
        diffs = sum(a(k) != b(k) for k in range(256))
        assert diffs > 200  # overwhelmingly different

    def test_output_in_range(self):
        h = H3Hash(9, seed=3)
        for key in range(0, 5000, 37):
            assert 0 <= h(key) < (1 << 9)

    def test_linearity_over_gf2(self):
        # H3 is linear: h(a ^ b) == h(a) ^ h(b) (with h(0) == 0).
        h = H3Hash(12, seed=7)
        assert h(0) == 0
        for a, b in [(3, 5), (0xFF, 0x100), (12345, 67890)]:
            assert h(a ^ b) == h(a) ^ h(b)

    def test_family_and_indices(self):
        family = make_h3_family(4, 9, seed=2)
        assert len(family) == 4
        indices = hash_indices(family, 42)
        assert len(indices) == 4

    def test_bad_out_bits_rejected(self):
        with pytest.raises(ValueError):
            H3Hash(0)
        with pytest.raises(ValueError):
            H3Hash(33)


class TestBloom:
    def cfg(self, bits=2048, k=4):
        return SignatureConfig(bits=bits, num_hashes=k)

    def test_no_false_negatives(self):
        sig = BloomSignature(self.cfg())
        blocks = [i * 977 + 13 for i in range(300)]
        for b in blocks:
            sig.insert(b)
        assert all(sig.test(b) for b in blocks)

    def test_insert_returns_the_mask_it_ors(self):
        masks = mask_cache(self.cfg(k=2))
        sig = BloomSignature(self.cfg(k=2), masks=masks)
        first = sig.insert(42)
        assert first == masks[42] and sig.packed == first
        second = sig.insert(4242)
        assert second == masks[4242] and sig.packed == first | second

    def test_standalone_signature_builds_its_own_masks(self):
        shared = BloomSignature(self.cfg(k=2), seed=1,
                                masks=mask_cache(self.cfg(k=2), seed=1))
        alone = BloomSignature(self.cfg(k=2), seed=1)
        for block in (0, 7, 1 << 30, (1 << 48) - 1):
            assert alone.insert(block) == shared.insert(block)
        assert alone.packed == shared.packed
        assert alone.test(7)
        assert all(alone.test(b) == shared.test(b) for b in range(64))

    def test_empty_signature_matches_nothing(self):
        sig = BloomSignature(self.cfg())
        assert not any(sig.test(b) for b in range(100))
        assert sig.packed == 0

    def test_clear_resets(self):
        # Commit drops a transaction's signatures; the thread's next
        # transaction starts from empty ones (the hardware flash-clear).
        htm = machine(self.cfg())
        htm.begin(0, 0)
        htm.read(0, 0, 42)
        htm.write(0, 0, 43)
        htm.commit(0, 0)
        htm.begin(0, 0)
        txn = htm._txns[0]
        assert txn.read_sig.packed == txn.write_sig.packed == 0
        assert not txn.read_sig.test(42)
        assert not txn.write_sig.test(43)
        assert not txn.read_set and not txn.write_set

    def test_exact_set_tracks_members(self):
        # The exact set a Bloom hit is classified against is the
        # transaction's own read set.
        htm = machine(self.cfg())
        htm.begin(0, 0)
        htm.read(0, 0, 1)
        htm.read(0, 0, 2)
        txn = htm._txns[0]
        assert txn.read_set == {1, 2}
        assert txn.read_sig.test(1) and txn.read_sig.test(2)
        assert 3 not in txn.read_set

    def test_false_positives_exist_when_loaded(self):
        sig = BloomSignature(self.cfg(bits=256, k=2))
        members = {i * 31 + 7 for i in range(200)}
        for b in members:
            sig.insert(b)
        probes = range(100_000, 101_000)
        fps = sum(sig.test(p) and p not in members for p in probes)
        assert fps > 0

    def test_more_hashes_reduce_fp_at_low_occupancy(self):
        fp_rates = {}
        for k in (2, 4):
            sig = BloomSignature(self.cfg(bits=2048, k=k), seed=5)
            members = {i * 101 + 3 for i in range(60)}
            for b in members:
                sig.insert(b)
            probes = range(500_000, 520_000)
            fp_rates[k] = sum(
                sig.test(p) and p not in members for p in probes
            )
        assert fp_rates[4] <= fp_rates[2]

    def test_fill_ratio_grows(self):
        sig = BloomSignature(self.cfg())
        assert sig.fill_ratio == 0.0
        for i in range(100):
            sig.insert(i * 7)
        assert 0.0 < sig.fill_ratio < 1.0

    def test_analytic_fp_rate_reasonable(self):
        sig = BloomSignature(self.cfg())
        members = {i * 7 + 1 for i in range(100)}
        for b in members:
            sig.insert(b)
        analytic = sig.expected_false_positive_rate(len(members))
        probes = range(1_000_000, 1_040_000)
        measured = sum(
            sig.test(p) and p not in members for p in probes
        ) / 40_000
        assert abs(analytic - measured) < max(0.01, analytic)

    def test_perfect_config_rejected(self):
        with pytest.raises(ValueError):
            BloomSignature(SignatureConfig(perfect=True))


class TestPerfect:
    def test_exact_membership(self):
        sig = PerfectSignature()
        sig.insert(7)
        assert sig.test(7)
        assert not sig.test(8)

    def test_never_false_positive(self):
        sig = PerfectSignature()
        for i in range(1000):
            sig.insert(i * 3)
        assert not any(sig.test(i * 3 + 1) for i in range(1000))

    def test_clear(self):
        # As for Bloom: a retired transaction's exact signatures go
        # with it, and the next one starts empty.
        htm = machine(SignatureConfig(perfect=True))
        htm.begin(0, 0)
        htm.read(0, 0, 7)
        htm.abort(0, 0)
        htm.begin(0, 0)
        txn = htm._txns[0]
        assert not txn.read_sig and not txn.read_sig.test(7)


class TestFactory:
    """LogTM-SE picks each transaction's signature kind from its
    configuration."""

    def test_perfect_selection(self):
        htm = machine(SignatureConfig(perfect=True))
        htm.begin(0, 0)
        txn = htm._txns[0]
        assert isinstance(txn.read_sig, PerfectSignature)
        assert isinstance(txn.write_sig, PerfectSignature)

    def test_bloom_selection(self):
        htm = machine(SignatureConfig(bits=2048, num_hashes=2))
        htm.begin(0, 0)
        txn = htm._txns[0]
        assert isinstance(txn.read_sig, BloomSignature)
        assert isinstance(txn.write_sig, BloomSignature)


class TestPacked:
    """The packed vector against a per-bank reference built directly
    from the H3 functions: bank ``b`` is probed at ``h_b(block)``."""

    def test_packed_test_matches_per_bank_reference(self):
        rng = random.Random(11)
        for k in (2, 4):
            cfg = SignatureConfig(bits=2048, num_hashes=k)
            bank_bits = 2048 // k
            family = make_h3_family(k, bank_bits.bit_length() - 1, seed=5)
            sig = BloomSignature(cfg, seed=5)
            banks = [0] * k
            inserted = [rng.randrange(1 << 20) for _ in range(300)]
            for addr in inserted:
                sig.insert(addr)
                for bank, index in enumerate(hash_indices(family, addr)):
                    banks[bank] |= 1 << index

            def reference(addr):
                return all((banks[bank] >> index) & 1 for bank, index
                           in enumerate(hash_indices(family, addr)))

            probes = inserted[:50] + [rng.randrange(1 << 20)
                                      for _ in range(300)]
            assert [sig.test(a) for a in probes] == \
                [reference(a) for a in probes]
            assert all(sig.test(a) for a in inserted)  # no false negatives
            assert sig.packed == sum(bank << (b * bank_bits)
                                     for b, bank in enumerate(banks))

    def test_signatures_share_a_mask_cache(self):
        cfg = SignatureConfig(bits=2048, num_hashes=2)
        masks = mask_cache(cfg, seed=1)
        one = BloomSignature(cfg, masks=masks)
        two = BloomSignature(cfg, masks=masks)
        one.insert(42)
        assert list(masks) == [42]
        assert not two.test(42)
        assert list(masks) == [42]  # the probe reused the cached mask
        assert bin(masks[42]).count("1") == 2  # one bit per bank

    def test_h3_family_built_once_per_arguments(self):
        assert make_h3_family(4, 9, seed=2) is make_h3_family(4, 9, seed=2)
        assert make_h3_family(4, 9, seed=2) is not make_h3_family(4, 9,
                                                                  seed=3)
        assert isinstance(make_h3_family(2, 10), tuple)
