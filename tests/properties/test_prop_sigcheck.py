"""Property tests: LogTM-SE's summary-first conflict check is exact.

``LogTMSE._check`` first tests the machine-wide read/write summaries
(the OR of the live Bloom signatures, or on a perfect machine the
block -> holder-count maps of the live exact sets) and scans the live
transactions only when a summary may hold the block.  Driven through
random begin/read/write/commit/abort/nontxn sequences, on Bloom and
perfect machines, it must return exactly what a reference scan calling
``Signature.test`` on every live transaction returns — same kind,
same hint order, same false-positive flag — and move the
``conflicts``/``false_positive_conflicts`` counters the same way.
Its ``probes`` counter must match the ``test`` calls it really made.
"""

from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.config import HTMConfig, SignatureConfig
from repro.coherence.protocol import MemorySystem
from repro.htm.base import ConflictInfo, ConflictKind
from repro.htm.logtm_se import LogTMSE
from repro.signatures.bloom import BloomSignature
from repro.signatures.perfect import PerfectSignature
from tests.conftest import small_system

CORES = 4
B = 0x5000

#: Accesses outweigh lifecycle events, so transactions grow sets
#: before they end.
OPS = ("begin", "read", "read", "read", "write", "write", "write",
       "commit", "abort", "nontxn_read", "nontxn_write")

#: A small pool of neighbouring blocks gives true conflicts; scattered
#: addresses (H3 is linear, so dense keys hash alike) give false
#: positives in the small signatures.
blocks = st.one_of(st.integers(0, 7).map(lambda i: B + i),
                   st.integers(0, 1 << 12).map(lambda i: i * 977 + 13),
                   st.just((1 << 40) + 7))

ops_strategy = st.lists(
    st.tuples(st.sampled_from(OPS), st.integers(0, CORES - 1), blocks),
    min_size=10, max_size=150,
)


def reference_check(htm, tid, block, is_write):
    """The full scan: ``Signature.test`` on every other live txn."""
    writers, readers, real = [], [], False
    for other_tid, txn in htm._txns.items():
        if other_tid == tid:
            continue
        if txn.write_sig.test(block):
            writers.append(other_tid)
            real = real or block in txn.write_set
        elif is_write and txn.read_sig.test(block):
            readers.append(other_tid)
            real = real or block in txn.read_set
    if writers:
        return ConflictInfo(block, ConflictKind.WRITER,
                            hints=tuple(writers + readers),
                            false_positive=not real)
    if readers:
        return ConflictInfo(block, ConflictKind.READERS,
                            hints=tuple(readers), false_positive=not real)
    return None


def checked(htm, tid, block, is_write):
    """``_check`` equals the reference, counters included."""
    expected = reference_check(htm, tid, block, is_write)
    before = (htm.stats.conflicts, htm.stats.false_positive_conflicts)
    probes = htm.sigcheck.probes
    calls = []

    def counting(real_test):
        def counted_test(sig, addr):
            calls.append(addr)
            return real_test(sig, addr)
        return counted_test

    with mock.patch.object(BloomSignature, "test",
                           counting(BloomSignature.test)), \
            mock.patch.object(PerfectSignature, "test",
                              counting(PerfectSignature.test)):
        got = htm._check(tid, block, is_write)
    assert got == expected
    assert htm.sigcheck.probes - probes == len(calls)
    after = (htm.stats.conflicts, htm.stats.false_positive_conflicts)
    if expected is None:
        assert after == before
    else:
        assert after == (before[0] + 1,
                         before[1] + int(expected.false_positive))


def drive(sig, ops, summary_check):
    """Run ``ops`` on a fresh machine, checking every conflict check."""
    htm = LogTMSE(MemorySystem(small_system(cores=CORES)),
                  HTMConfig(signature=sig), signature=sig)
    for tid in range(CORES):
        htm.begin(tid, tid)
    live = set(range(CORES))
    for op, tid, block in ops:
        core = tid
        if op == "begin":
            if tid not in live:
                htm.begin(core, tid)
                live.add(tid)
        elif op in ("commit", "abort"):
            if tid in live:
                getattr(htm, op)(core, tid)
                live.discard(tid)
        elif op.startswith("nontxn"):
            is_write = op == "nontxn_write"
            checked(htm, tid, block, is_write)
            getattr(htm, op)(core, tid, block)
        elif tid in live:
            is_write = op == "write"
            checked(htm, tid, block, is_write)
            getattr(htm, op)(core, tid, block)
        report = htm.check_invariants()
        assert summary_check in report["checks"]


@given(ops_strategy, st.sampled_from([2, 4]),
       st.sampled_from([16, 64, 2048]))
@settings(max_examples=80, deadline=None)
def test_summary_check_matches_reference_scan(ops, hashes, bits):
    drive(SignatureConfig(bits=bits, num_hashes=hashes), ops,
          "signature_summary")


@given(ops_strategy)
@settings(max_examples=80, deadline=None)
def test_exact_summary_check_matches_reference_scan(ops):
    drive(SignatureConfig(perfect=True), ops, "exact_summary")
