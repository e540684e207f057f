"""Unit tests for H3 hashing and Bloom/perfect signatures."""

import random

import pytest

from repro.common.config import SignatureConfig
from repro.signatures import (
    BloomSignature,
    PerfectSignature,
    make_signature,
)
from repro.signatures.bloom import mask_cache
from repro.signatures.h3 import H3Hash, hash_indices, make_h3_family


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

    def test_empty_signature_matches_nothing(self):
        sig = BloomSignature(self.cfg())
        assert not any(sig.test(b) for b in range(100))
        assert sig.is_empty()

    def test_clear_resets(self):
        sig = BloomSignature(self.cfg())
        sig.insert(42)
        sig.clear()
        assert sig.is_empty()
        assert not sig.test(42)
        assert sig.inserted_count == 0

    def test_exact_set_tracks_members(self):
        sig = BloomSignature(self.cfg())
        sig.insert(1)
        sig.insert(2)
        assert sig.exact_set == frozenset({1, 2})
        assert sig.test_exact(1)
        assert not sig.test_exact(3)

    def test_false_positives_exist_when_loaded(self):
        sig = BloomSignature(self.cfg(bits=256, k=2))
        for i in range(200):
            sig.insert(i * 31 + 7)
        probes = range(100_000, 101_000)
        fps = sum(sig.test(p) and not sig.test_exact(p) for p in probes)
        assert fps > 0

    def test_more_hashes_reduce_fp_at_low_occupancy(self):
        fp_rates = {}
        for k in (2, 4):
            sig = BloomSignature(self.cfg(bits=2048, k=k), seed=5)
            for i in range(60):
                sig.insert(i * 101 + 3)
            probes = range(500_000, 520_000)
            fp_rates[k] = sum(
                sig.test(p) and not sig.test_exact(p) for p in probes
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
        for i in range(100):
            sig.insert(i * 7 + 1)
        analytic = sig.expected_false_positive_rate()
        probes = range(1_000_000, 1_040_000)
        measured = sum(
            sig.test(p) and not sig.test_exact(p) for p in probes
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
        sig = PerfectSignature()
        sig.insert(7)
        sig.clear()
        assert sig.is_empty()


class TestFactory:
    def test_perfect_selection(self):
        sig = make_signature(SignatureConfig(perfect=True))
        assert isinstance(sig, PerfectSignature)

    def test_bloom_selection(self):
        sig = make_signature(SignatureConfig(bits=2048, num_hashes=2))
        assert isinstance(sig, BloomSignature)


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
            sig.clear()
            assert not any(sig.test(a) for a in probes)

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
