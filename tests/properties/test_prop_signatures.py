"""Property tests: signature soundness (never a false negative)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.config import HTMConfig, SignatureConfig
from repro.coherence.protocol import MemorySystem
from repro.htm.logtm_se import LogTMSE
from repro.signatures import BloomSignature, PerfectSignature
from repro.signatures.bloom import mask_cache, mask_pair
from repro.signatures.h3 import make_h3_family
from tests.conftest import small_system

blocks = st.integers(0, (1 << 40) - 1)


@given(st.sets(blocks, max_size=200), st.sampled_from([1, 2, 4, 8]))
@settings(max_examples=100)
def test_bloom_no_false_negatives(members, k):
    sig = BloomSignature(SignatureConfig(bits=2048, num_hashes=k))
    for b in members:
        sig.insert(b)
    assert all(sig.test(b) for b in members)


@given(st.sets(blocks, max_size=50), st.booleans())
@settings(deadline=None)
def test_bloom_clear_is_total(members, commit):
    """A retired transaction leaves no bit behind: the thread's next
    transaction, the only one live, tests none of its blocks, and the
    machine's summaries are empty."""
    config = SignatureConfig()
    htm = LogTMSE(MemorySystem(small_system()), HTMConfig(signature=config),
                  signature=config)
    htm.begin(0, 0)
    for b in members:
        htm.read(0, 0, b)
    (htm.commit if commit else htm.abort)(0, 0)
    htm.begin(0, 0)
    txn = htm._txns[0]
    assert not any(txn.read_sig.test(b) for b in members)
    assert htm._read_summary == htm._write_summary == 0


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
    """Exact membership never holds where ``test`` says no: every
    block a probe would classify as a real conflict tests positive."""
    sig = BloomSignature(SignatureConfig())
    for b in members:
        sig.insert(b)
    for probe in list(members)[:20]:
        assert sig.test(probe) and probe in members


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


#: Addresses pinned in every example: both sides of the 2**24 edge
#: below which a fill skips the top three key bytes, the log region
#: (``1 << 40``) and the widest key.
EDGE_BLOCKS = (0, (1 << 24) - 1, 1 << 24, 1 << 40, (1 << 48) - 1)

keys48 = st.one_of(st.integers(0, (1 << 24) - 1),
                   st.integers(0, (1 << 48) - 1))


@given(st.lists(keys48, max_size=60), st.sampled_from([1, 2, 4, 8]),
       st.sampled_from([256, 2048, 8192]), st.booleans())
@settings(max_examples=100, deadline=None)
def test_paired_fill_equals_each_family(keys, k, bits, write_first):
    """``mask_pair`` fills both caches from one hash of a block, bit
    for bit as ``mask_cache`` at seeds 0 and 1 fills each alone,
    whichever of the pair misses first."""
    config = SignatureConfig(bits=bits, num_hashes=k)
    read, write = mask_pair(config)
    alone = (mask_cache(config, seed=0), mask_cache(config, seed=1))
    bank_bits = bits // k
    families = [make_h3_family(k, bank_bits.bit_length() - 1, seed)
                for seed in (0, 1)]
    for key in EDGE_BLOCKS + tuple(keys):
        first = write if write_first else read
        fresh = key not in first
        first[key]
        if fresh:
            # One miss filled the partner too.
            assert key in read and key in write
        for pair, single, family in zip((read, write), alone, families):
            expected = 0
            for bank, h in enumerate(family):
                expected |= 1 << (bank * bank_bits + h(key))
            assert pair[key] == single[key] == expected
