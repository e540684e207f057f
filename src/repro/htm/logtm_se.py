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

Bloom variants suffer *false positives*: conflicts flagged between
transactions whose actual sets are disjoint.  The machine counts them
(it also tracks exact sets purely for instrumentation) — the effect
behind the paper's Figure 1.

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
(the summary-signature fallback).  Every machine
first tests a machine-wide summary of each set kind: Bloom machines
keep the OR of every live signature, and perfect machines a
block -> holder-count map of the live exact sets.  A summary miss
proves that no live signature can hit, so most checks end there
without probing any transaction.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.common.config import HTMConfig, SignatureConfig
from repro.common.errors import TransactionError
from repro.coherence.protocol import MemorySystem
from repro.core.tmlog import TmLog
from repro.obs.events import EventKind
from repro.htm.base import (
    AccessOutcome,
    CommitOutcome,
    ConflictInfo,
    ConflictKind,
    HTM,
)
from repro.signatures import Signature, make_signature
from repro.signatures.bloom import BloomSignature, mask_cache


class _SigTxn:
    """Per-transaction signature and undo-log state."""

    __slots__ = ("tid", "core", "read_sig", "write_sig",
                 "read_set", "write_set")

    def __init__(self, tid: int, core: int, read_sig: Signature,
                 write_sig: Signature):
        self.tid = tid
        self.core = core
        self.read_sig = read_sig
        self.write_sig = write_sig
        self.read_set: Set[int] = set()
        self.write_set: Set[int] = set()


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
        #: Per-transaction ``Signature.test`` calls made by scans.
        self.probes = 0

    def snapshot(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}


class LogTMSE(HTM):
    """LogTM-SE machine parameterized by signature geometry."""

    def __init__(self, mem: MemorySystem, config: HTMConfig,
                 signature: Optional[SignatureConfig] = None,
                 name: Optional[str] = None):
        super().__init__(mem)
        self._config = config
        self._sig_config = signature or config.signature
        if name is not None:
            self.name = name
        elif self._sig_config.perfect:
            self.name = "LogTM-SE_Perf"
        else:
            self.name = (f"LogTM-SE_{self._sig_config.num_hashes}xH3")
        self._txns: Dict[int, _SigTxn] = {}
        #: Live transactions switched off a core since they began.
        self._displaced: Dict[int, _SigTxn] = {}
        self._logs: Dict[int, TmLog] = {}
        self.sigcheck = SigCheckStats()
        # All transactions share one H3 family per set kind (as the
        # hardware does: the hash wiring is fixed at design time), so
        # probe masks are cached per block across the whole run.  The
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
            self._read_masks = mask_cache(self._sig_config, seed=0)
            self._write_masks = mask_cache(self._sig_config, seed=1)

    def _new_signature(self, masks) -> Signature:
        """Fresh signature over the machine-wide hash family."""
        if masks is None:
            return make_signature(self._sig_config)
        return BloomSignature(self._sig_config, masks=masks)

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

    def _end(self, tid: int) -> None:
        """Retire ``tid``'s transaction from the live set and summaries."""
        txn = self._txns.pop(tid)
        self._displaced.pop(tid, None)
        if self._read_masks is not None:
            self._read_summary, self._write_summary = self._live_summaries()
            return
        for counts, blocks in ((self._read_counts, txn.read_set),
                               (self._write_counts, txn.write_set)):
            for block in blocks:
                n = counts[block]
                if n == 1:
                    del counts[block]
                else:
                    counts[block] = n - 1

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def begin(self, core: int, tid: int) -> int:
        if tid in self._txns:
            raise TransactionError(f"thread {tid} already in a transaction")
        self._txns[tid] = _SigTxn(
            tid, core,
            self._new_signature(self._read_masks),
            self._new_signature(self._write_masks),
        )
        if tid not in self._logs:
            self._logs[tid] = TmLog(tid)
        return self.mem.config.latency.txn_begin

    def _txn(self, tid: int) -> _SigTxn:
        txn = self._txns.get(tid)
        if txn is None:
            raise TransactionError(f"thread {tid} has no live transaction")
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
        self.stats.conflicts += 1
        if not any_real:
            self.stats.false_positive_conflicts += 1
        if self.bus.enabled:
            # The directory NACKed the request on a signature hit.
            self.bus.emit(
                EventKind.NACK, tid=tid, block=block,
                conflict_kind="writer" if writer_hits else "readers",
                false_positive=not any_real, write=is_write,
            )
        if writer_hits:
            return ConflictInfo(block, ConflictKind.WRITER,
                                hints=tuple(writer_hits + reader_hits),
                                complete=True,
                                false_positive=not any_real)
        return ConflictInfo(block, ConflictKind.READERS,
                            hints=tuple(reader_hits), complete=True,
                            false_positive=not any_real)

    def _log_append(self, core: int, tid: int, block: int) -> int:
        lat = self.mem.config.latency
        log = self._logs[tid]
        cycles = 0
        for log_block in log.append(block, 1, True):
            res = self.mem.access(core, log_block, True)
            cycles += res.latency + lat.log_write
            stall = res.latency - lat.l1_hit
            if stall > 0:
                self.stats.log_stall_cycles += stall
        self.stats.log_write_cycles += cycles
        return cycles

    # ------------------------------------------------------------------
    # Transactional accesses
    # ------------------------------------------------------------------

    def read(self, core: int, tid: int, block: int) -> AccessOutcome:
        txn = self._txns.get(tid)
        if txn is None:
            raise TransactionError(f"thread {tid} has no live transaction")
        self.stats.txn_reads += 1
        mem = self.mem
        if mem.needs_directory(core, block, False):
            conflict = self._check(tid, block, False)
        elif self._displaced:
            conflict = self._check(tid, block, False, self._displaced)
        else:
            conflict = None
        if conflict is not None:
            # NACKed at the directory: no data movement.
            return AccessOutcome(
                False, mem.request_latency(core, block), conflict
            )
        res = mem.access(core, block, False)
        read_set = txn.read_set
        if block not in read_set:
            # First read of the block: re-inserting would change
            # neither the signature nor the summary.
            read_set.add(block)
            txn.read_sig.insert(block)
            masks = self._read_masks
            if masks is not None:
                self._read_summary |= masks[block]
            else:
                counts = self._read_counts
                counts[block] = counts.get(block, 0) + 1
        return AccessOutcome(True, res.latency)

    def write(self, core: int, tid: int, block: int) -> AccessOutcome:
        txn = self._txns.get(tid)
        if txn is None:
            raise TransactionError(f"thread {tid} has no live transaction")
        self.stats.txn_writes += 1
        mem = self.mem
        if mem.needs_directory(core, block, True):
            conflict = self._check(tid, block, True)
        elif self._displaced:
            conflict = self._check(tid, block, True, self._displaced)
        else:
            conflict = None
        if conflict is not None:
            return AccessOutcome(
                False, mem.request_latency(core, block), conflict
            )
        res = mem.access(core, block, True)
        latency = res.latency
        write_set = txn.write_set
        if block not in write_set:
            # First write of the block: log the old value once.
            write_set.add(block)
            txn.write_sig.insert(block)
            masks = self._write_masks
            if masks is not None:
                self._write_summary |= masks[block]
            else:
                counts = self._write_counts
                counts[block] = counts.get(block, 0) + 1
            latency += self._log_append(core, tid, block)
        return AccessOutcome(True, latency)

    # ------------------------------------------------------------------
    # Commit / abort
    # ------------------------------------------------------------------

    def commit(self, core: int, tid: int) -> CommitOutcome:
        self._txn(tid)
        self._logs[tid].reset()
        self._end(tid)
        self.stats.commits += 1
        self.stats.fast_releases += 1  # signature flash-clear is O(1)
        return CommitOutcome(self.mem.config.latency.txn_commit,
                             used_fast_release=True)

    def abort(self, core: int, tid: int) -> CommitOutcome:
        self._txn(tid)
        lat = self.mem.config.latency
        log = self._logs[tid]
        cycles = lat.conflict_trap
        for record, log_block in log.walk_backward():
            res = self.mem.access(core, log_block, False)
            cycles += res.latency
            if record.is_write:
                data = self.mem.access(core, record.block, True)
                cycles += data.latency + lat.undo_write
                self.stats.undo_cycles += data.latency + lat.undo_write
        log.reset()
        self._end(tid)
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
        if mem.needs_directory(core, block, is_write):
            conflict = self._check(tid, block, is_write)
        elif self._displaced:
            conflict = self._check(tid, block, is_write, self._displaced)
        else:
            conflict = None
        if conflict is not None:
            return AccessOutcome(
                False, mem.request_latency(core, block), conflict
            )
        return AccessOutcome(True, mem.access(core, block, is_write).latency)

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
        for tid, txn in self._txns.items():
            if txn.core == core:
                self._displaced[tid] = txn
        return 0

    def schedule(self, core: int, tid: int) -> None:
        txn = self._txns.get(tid)
        if txn is not None:
            txn.core = core

    # ------------------------------------------------------------------
    # Instrumentation
    # ------------------------------------------------------------------

    def active_tids(self) -> List[int]:
        return list(self._txns)

    def read_set_size(self, tid: int) -> int:
        txn = self._txns.get(tid)
        return len(txn.read_set) if txn else 0

    def write_set_size(self, tid: int) -> int:
        txn = self._txns.get(tid)
        return len(txn.write_set) if txn else 0

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

    def signature_fill(self, tid: int) -> Tuple[float, float]:
        """(read, write) signature fill ratios, for diagnostics."""
        txn = self._txns.get(tid)
        if txn is None:
            return (0.0, 0.0)
        read_fill = getattr(txn.read_sig, "fill_ratio", 0.0)
        write_fill = getattr(txn.write_sig, "fill_ratio", 0.0)
        return (read_fill, write_fill)
