"""LogTM-SE: signature-based eager conflict detection (Yen et al.).

The paper's principal comparison points.  LogTM-SE represents each
transaction's read and write sets with per-thread signatures; every
memory request that reaches the directory is checked against the
signatures of all other running transactions, and a hit NACKs the
request (the requester stalls or aborts per the contention policy).
Version management is LogTM's eager in-place update with a per-thread
undo log, shared with TokenTM.

Variants are selected by the signature configuration:

* ``LogTM-SE_2xH3`` — 2 Kbit Bloom signatures, 2 parallel H3 hashes;
* ``LogTM-SE_4xH3`` — 2 Kbit, 4 hashes;
* ``LogTM-SE_Perf`` — unimplementable exact signatures (the paper's
  normalization baseline).

Other hash counts ``k`` run as ``LogTM-SE_{k}xH3`` (the signature
ablation); every Bloom variant takes its size from ``HTMConfig``.

Bloom variants suffer *false positives*: conflicts flagged between
transactions whose actual sets are disjoint.  The machine counts them,
classifying each hit against the exact read and write sets every
``TxnRecord`` keeps — the effect behind the paper's Figure 1.  A Bloom
signature holds only its bits; a perfect signature is an exact set, so
on ``LogTM-SE_Perf`` it *is* the transaction's read (write) set.

Modelling note: real LogTM-SE probes the cores named by the directory
plus "sticky" ownership left behind by evictions, and falls back to
broadcast with summary signatures after thread migration.  We check
every directory-reaching request against all other live transactions'
signatures, which is what sticky states + summaries conservatively
amount to, and preserves the false-positive dynamics.  A transaction
switched off its core leaves its lines in that core's L1, where the
next occupant can hit them without reaching the directory; until it
commits or aborts it is *displaced*, and every access that stays in
the L1 is also checked against the displaced transactions' signatures
(the summary-signature fallback).  One L1 probe per access,
:meth:`MemorySystem.resident`, tells the two apart: None sends the
request to the directory, through the full check and ``access``; a
line is a hit, checked against the displaced transactions (if any)
and committed by ``fast_hit`` on that line.  Every machine
first tests a machine-wide summary of each set kind: Bloom machines
keep the OR of every live signature, and perfect machines a
block -> holder-count map of the live exact sets.  A summary miss
proves that no live signature can hit, so most checks end there
without probing any transaction.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.common.config import HTMConfig, SignatureConfig
from repro.common.errors import TransactionError
from repro.coherence.protocol import MemorySystem
from repro.obs.events import EventKind
from repro.htm.base import (
    AccessOutcome,
    CommitOutcome,
    ConflictInfo,
    ConflictKind,
    HTM,
    TxnRecord,
)
from repro.signatures.bloom import BloomSignature, mask_pair
from repro.signatures.perfect import PerfectSignature


class _SigTxn(TxnRecord):
    """A live transaction with its read and write signatures."""

    __slots__ = ("read_sig", "write_sig")

    def __init__(self, tid: int, read_sig: BloomSignature | PerfectSignature,
                 write_sig: BloomSignature | PerfectSignature):
        super().__init__(tid)
        self.read_sig = read_sig
        self.write_sig = write_sig


class SigCheckStats:
    """Conflict-check work counters, deliberately *outside* ``HTMStats``.

    They describe how the simulator computed a check, not what the
    simulated machine did, so they stay out of ``RunStats`` and its
    golden digests.  Publish them through
    :func:`repro.obs.metrics.publish_sigcheck` as ``perf.sigcheck.*``.
    """

    __slots__ = ("checks", "summary_clears", "probes")

    def __init__(self):
        #: Directory-reaching requests checked against the signatures.
        self.checks = 0
        #: Checks the machine-wide summary cleared without a scan.
        self.summary_clears = 0
        #: Per-transaction signature ``test`` calls made by scans.
        self.probes = 0

    def snapshot(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}


class LogTMSE(HTM):
    """LogTM-SE machine parameterized by signature geometry."""

    _conflict_event = EventKind.NACK

    def __init__(self, mem: MemorySystem, config: HTMConfig,
                 signature: Optional[SignatureConfig] = None):
        super().__init__(mem)
        self._config = config
        self._sig_config = signature or config.signature
        if self._sig_config.perfect:
            self.name = "LogTM-SE_Perf"
        else:
            self.name = (f"LogTM-SE_{self._sig_config.num_hashes}xH3")
        #: Live transactions switched off a core since they began.
        self._displaced: Dict[int, _SigTxn] = {}
        self.sigcheck = SigCheckStats()
        # All transactions share one H3 family per set kind (as the
        # hardware does: the hash wiring is fixed at design time), so
        # probe masks are cached per block across the whole run, both
        # kinds filled by one hash of the block (``mask_pair``).  The
        # Bloom summaries are the OR of every live read (write)
        # signature.  Perfect machines instead count, per block, the
        # live transactions whose exact read (write) set holds it.
        self._read_masks = self._write_masks = None
        self._read_summary = self._write_summary = 0
        self._read_counts: Optional[Dict[int, int]] = None
        self._write_counts: Optional[Dict[int, int]] = None
        if self._sig_config.perfect:
            self._read_counts = {}
            self._write_counts = {}
        else:
            self._read_masks, self._write_masks = mask_pair(self._sig_config)

    def _live_summaries(self) -> Tuple[int, int]:
        """(read, write) OR of the live transactions' packed signatures."""
        read = write = 0
        for txn in self._txns.values():
            read |= txn.read_sig.packed
            write |= txn.write_sig.packed
        return read, write

    def _live_counts(self) -> Tuple[Dict[int, int], Dict[int, int]]:
        """(read, write) block -> number of live txns whose set holds it."""
        read: Dict[int, int] = {}
        write: Dict[int, int] = {}
        for txn in self._txns.values():
            for block in txn.read_set:
                read[block] = read.get(block, 0) + 1
            for block in txn.write_set:
                write[block] = write.get(block, 0) + 1
        return read, write

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def _new_txn(self, tid: int) -> _SigTxn:
        if self._read_masks is None:
            # A perfect signature is an exact set: it serves as the
            # transaction's own read (write) set.
            txn = _SigTxn(tid, PerfectSignature(), PerfectSignature())
            txn.read_set = txn.read_sig
            txn.write_set = txn.write_sig
            return txn
        config = self._sig_config
        return _SigTxn(tid, BloomSignature(config, masks=self._read_masks),
                       BloomSignature(config, masks=self._write_masks))

    def _retire(self, tid: int) -> _SigTxn:
        """Retire ``tid``'s transaction from the live set and summaries."""
        txn = super()._retire(tid)
        self._displaced.pop(tid, None)
        if self._read_masks is not None:
            self._read_summary, self._write_summary = self._live_summaries()
            return txn
        for counts, blocks in ((self._read_counts, txn.read_set),
                               (self._write_counts, txn.write_set)):
            for block in blocks:
                n = counts[block]
                if n == 1:
                    del counts[block]
                else:
                    counts[block] = n - 1
        return txn

    # ------------------------------------------------------------------
    # Conflict checks
    # ------------------------------------------------------------------

    def _check(self, tid: int, block: int, is_write: bool,
               txns: Optional[Dict[int, _SigTxn]] = None
               ) -> Optional[ConflictInfo]:
        """Signature-check a request against ``txns`` (default: all live).

        A load conflicts with remote write signatures; a store with
        remote read *and* write signatures.  Returns None when clear.

        A summary that misses the block proves every signature of its
        kind misses it too, so those probes are skipped, and the scan
        itself when no kind remains.
        """
        sigcheck = self.sigcheck
        sigcheck.checks += 1
        write_counts = self._write_counts
        if write_counts is not None:
            probe_writers = block in write_counts
            probe_readers = is_write and block in self._read_counts
        else:
            mask = self._write_masks[block]
            probe_writers = self._write_summary & mask == mask
            probe_readers = False
            if is_write:
                mask = self._read_masks[block]
                probe_readers = self._read_summary & mask == mask
        if not (probe_writers or probe_readers):
            sigcheck.summary_clears += 1
            return None
        writer_hits: List[int] = []
        reader_hits: List[int] = []
        any_real = False
        if txns is None:
            txns = self._txns
        for other_tid, other in txns.items():
            if other_tid == tid:
                continue
            if probe_writers and other.write_sig.test(block):
                writer_hits.append(other_tid)
                if block in other.write_set:
                    any_real = True
            elif probe_readers and other.read_sig.test(block):
                reader_hits.append(other_tid)
                if block in other.read_set:
                    any_real = True
        # Count the probes made: a write probe per other transaction,
        # then a read probe for each whose write probe missed.
        others = len(txns) - (tid in txns)
        if probe_writers:
            sigcheck.probes += others
            others -= len(writer_hits)
        if probe_readers:
            sigcheck.probes += others
        if not writer_hits and not reader_hits:
            return None
        # The directory NACKs the request on a signature hit.
        return self._conflict(
            tid, block,
            ConflictKind.WRITER if writer_hits else ConflictKind.READERS,
            tuple(writer_hits + reader_hits),
            false_positive=not any_real, write=is_write,
        )

    # ------------------------------------------------------------------
    # Transactional accesses
    # ------------------------------------------------------------------

    def read(self, core: int, tid: int, block: int) -> AccessOutcome:
        txn = self._txns.get(tid)
        if txn is None:
            raise TransactionError(f"thread {tid} has no live transaction")
        self.stats.txn_reads += 1
        mem = self.mem
        line = mem.resident(core, block, False)
        if line is None:
            conflict = self._check(tid, block, False)
            if conflict is not None:
                return self._nack(core, block, conflict)
            latency = mem.access(core, block, False).latency
        else:
            if self._displaced:
                conflict = self._check(tid, block, False, self._displaced)
                if conflict is not None:
                    return self._nack(core, block, conflict)
            latency = mem.fast_hit(core, line, False).latency
        read_set = txn.read_set
        if block not in read_set:
            # First read of the block: re-inserting would change
            # neither the signature nor the summary.
            read_set.add(block)
            if self._read_masks is not None:
                self._read_summary |= txn.read_sig.insert(block)
            else:
                counts = self._read_counts
                counts[block] = counts.get(block, 0) + 1
        return self._granted.get(latency) or self._grant(latency)

    def write(self, core: int, tid: int, block: int) -> AccessOutcome:
        txn = self._txns.get(tid)
        if txn is None:
            raise TransactionError(f"thread {tid} has no live transaction")
        self.stats.txn_writes += 1
        mem = self.mem
        line = mem.resident(core, block, True)
        if line is None:
            conflict = self._check(tid, block, True)
            if conflict is not None:
                return self._nack(core, block, conflict)
            latency = mem.access(core, block, True).latency
        else:
            if self._displaced:
                conflict = self._check(tid, block, True, self._displaced)
                if conflict is not None:
                    return self._nack(core, block, conflict)
            latency = mem.fast_hit(core, line, True).latency
        write_set = txn.write_set
        if block not in write_set:
            # First write of the block: log the old value once.
            write_set.add(block)
            if self._write_masks is not None:
                self._write_summary |= txn.write_sig.insert(block)
            else:
                counts = self._write_counts
                counts[block] = counts.get(block, 0) + 1
            latency += self._log_append(core, tid, block)
        return self._granted.get(latency) or self._grant(latency)

    # ------------------------------------------------------------------
    # Commit / abort
    # ------------------------------------------------------------------

    def commit(self, core: int, tid: int) -> CommitOutcome:
        self._txn(tid)
        self._retire(tid)
        self.stats.commits += 1
        self.stats.fast_releases += 1  # signature flash-clear is O(1)
        return CommitOutcome(self.mem.config.latency.txn_commit,
                             used_fast_release=True)

    def abort(self, core: int, tid: int) -> CommitOutcome:
        self._txn(tid)
        cycles = self._undo(core, tid)
        self._retire(tid)
        self.stats.aborts += 1
        return CommitOutcome(cycles)

    # ------------------------------------------------------------------
    # Strong atomicity
    # ------------------------------------------------------------------

    def nontxn_read(self, core: int, tid: int, block: int) -> AccessOutcome:
        return self._nontxn_access(core, tid, block, False)

    def nontxn_write(self, core: int, tid: int, block: int) -> AccessOutcome:
        return self._nontxn_access(core, tid, block, True)

    def _nontxn_access(self, core: int, tid: int, block: int,
                       is_write: bool) -> AccessOutcome:
        mem = self.mem
        line = mem.resident(core, block, is_write)
        if line is None:
            conflict = self._check(tid, block, is_write)
        elif self._displaced:
            conflict = self._check(tid, block, is_write, self._displaced)
        else:
            conflict = None
        if conflict is not None:
            return self._nack(core, block, conflict)
        if line is None:
            return self._grant(mem.access(core, block, is_write).latency)
        return self._grant(mem.fast_hit(core, line, is_write).latency)

    # ------------------------------------------------------------------
    # Context switching
    # ------------------------------------------------------------------

    def context_switch(self, core: int) -> int:
        """Deschedule ``core``'s thread; its live transaction is displaced.

        The transaction's lines stay in this core's L1, where the next
        occupant can hit them without a directory request, so from now
        until it commits or aborts every L1 hit is also checked against
        its signatures.  The signatures stay where they are, so the
        switch costs no cycles.
        """
        tid = self._core_tid[core]
        txn = self._txns.get(tid)
        if txn is not None:
            self._displaced[tid] = txn
        return super().context_switch(core)

    # ------------------------------------------------------------------
    # Instrumentation
    # ------------------------------------------------------------------

    def _check_core_registers(self) -> None:
        """The base register check, plus: off its core means displaced.

        An access that hits in the L1 is checked against the displaced
        transactions only, so a live transaction that no core register
        names and that is not displaced would let another thread hit
        its lines unchecked.
        """
        super()._check_core_registers()
        registered = set(self._core_tid)
        for tid in self._txns:
            if tid not in registered and tid not in self._displaced:
                raise TransactionError(
                    f"txn {tid} is live on no core and not displaced: "
                    f"L1 hits on its lines skip its signatures"
                )

    def check_invariants(self) -> Dict[str, object]:
        """Coherence audit, signature-superset and summary consistency.

        A Bloom signature may report false positives but never false
        negatives: every block in a live transaction's exact read
        (write) set must test positive in its read (write) signature,
        or conflict detection has silently lost isolation.  Each Bloom
        summary must equal the OR of the live signatures of its kind:
        one missing a bit would clear a check that a scan would NACK.
        On a perfect machine each count must equal the number of live
        transactions holding the block, for the same reason.
        """
        report = super().check_invariants()
        for tid, txn in self._txns.items():
            for block in txn.read_set:
                if not txn.read_sig.test(block):
                    raise TransactionError(
                        f"txn {tid} read block {block:#x} missing from "
                        f"its read signature (false negative)"
                    )
            for block in txn.write_set:
                if not txn.write_sig.test(block):
                    raise TransactionError(
                        f"txn {tid} wrote block {block:#x} missing from "
                        f"its write signature (false negative)"
                    )
        checks = ["signature_superset"]
        if self._read_masks is not None:
            summaries = (self._read_summary, self._write_summary)
            for kind, live, summary in zip(("read", "write"),
                                           self._live_summaries(),
                                           summaries):
                if summary != live:
                    raise TransactionError(
                        f"{kind} summary misses "
                        f"{(live & ~summary).bit_count()} bits of the live "
                        f"{kind} signatures and holds "
                        f"{(summary & ~live).bit_count()} stale bits"
                    )
            checks.append("signature_summary")
        else:
            summaries = (self._read_counts, self._write_counts)
            for kind, live, counts in zip(("read", "write"),
                                          self._live_counts(), summaries):
                wrong = sorted(block for block in live.keys() | counts.keys()
                               if counts.get(block) != live.get(block))
                if wrong:
                    block = wrong[0]
                    raise TransactionError(
                        f"{kind} summary counts {len(wrong)} blocks wrong: "
                        f"block {block:#x} has {counts.get(block, 0)} "
                        f"for {live.get(block, 0)} live {kind} sets"
                    )
            checks.append("exact_summary")
        report["checks"] = list(report["checks"]) + checks
        report["live_txns"] = len(self._txns)
        return report
