"""Read-/write-set signatures (the LogTM-SE conflict-detection substrate).

A signature supports insertion and membership testing.  Bloom
signatures may report false positives but never false negatives; the
unimplementable "perfect" signature is exact.  The exact sets that
classify a conflict as a false positive live in the transaction's
``TxnRecord``, not here.
"""

from repro.common.config import SignatureConfig
from repro.signatures.bloom import BloomSignature
from repro.signatures.h3 import H3Hash, hash_indices, make_h3_family
from repro.signatures.perfect import PerfectSignature

__all__ = [
    "SignatureConfig",
    "BloomSignature",
    "PerfectSignature",
    "H3Hash",
    "make_h3_family",
    "hash_indices",
]
