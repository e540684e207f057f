"""Property tests: signature soundness (never a false negative)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.config import SignatureConfig
from repro.signatures import BloomSignature, PerfectSignature
from repro.signatures.bloom import mask_cache
from repro.signatures.h3 import make_h3_family

blocks = st.integers(0, (1 << 40) - 1)


@given(st.sets(blocks, max_size=200), st.sampled_from([1, 2, 4, 8]))
@settings(max_examples=100)
def test_bloom_no_false_negatives(members, k):
    sig = BloomSignature(SignatureConfig(bits=2048, num_hashes=k))
    for b in members:
        sig.insert(b)
    assert all(sig.test(b) for b in members)
    assert sig.inserted_count == len(members)


@given(st.sets(blocks, max_size=50))
def test_bloom_clear_is_total(members):
    sig = BloomSignature(SignatureConfig())
    for b in members:
        sig.insert(b)
    sig.clear()
    assert sig.is_empty()
    assert not any(sig.test(b) for b in members)


@given(st.sets(blocks, max_size=100), st.sets(blocks, max_size=100))
def test_perfect_is_exact(members, probes):
    sig = PerfectSignature()
    for b in members:
        sig.insert(b)
    for p in probes:
        assert sig.test(p) == (p in members)


@given(st.sets(blocks, min_size=1, max_size=150))
@settings(max_examples=50)
def test_bloom_fp_classification_consistent(members):
    """test_exact never returns True where test returns False."""
    sig = BloomSignature(SignatureConfig())
    for b in members:
        sig.insert(b)
    for probe in list(members)[:20]:
        assert sig.test(probe) and sig.test_exact(probe)


@given(st.sets(blocks, max_size=300))
@settings(max_examples=50)
def test_fill_ratio_monotone(members):
    sig = BloomSignature(SignatureConfig())
    last = 0.0
    for b in members:
        sig.insert(b)
        now = sig.fill_ratio
        assert now >= last
        last = now


#: Keys up to 64 bits: H3 hashes the low 48 and ignores the rest.
wide_keys = st.integers(0, (1 << 64) - 1)


@given(st.lists(wide_keys, max_size=100), st.sampled_from([2, 4]),
       st.sampled_from([0, 1]), st.sampled_from([64, 2048]))
@settings(max_examples=100)
def test_fused_masks_equal_per_hash_reference(keys, k, seed, bits):
    """One fused table walk gives the OR of each H3 function's bit."""
    config = SignatureConfig(bits=bits, num_hashes=k)
    bank_bits = bits // k
    family = make_h3_family(k, bank_bits.bit_length() - 1, seed)
    masks = mask_cache(config, seed=seed)
    for key in keys:
        expected = 0
        for bank, h in enumerate(family):
            expected |= 1 << (bank * bank_bits + h(key))
        assert masks[key] == expected
        assert masks[key & ((1 << 48) - 1)] == expected
