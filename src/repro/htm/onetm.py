"""OneTM-style baseline: at most one *overflowed* transaction at a time.

OneTM (Blundell et al., ISCA 2007 — discussed in the paper's Sections
2.2 and 5.4) makes the common case fast by tracking bounded
transactions in the L1 and the uncommon case simple by allowing only
one transaction at a time to run in the *overflowed* mode backed by
per-block persistent metadata.  The paper argues (via Amdahl's law)
that this serialization becomes a bottleneck as transactions scale —
TokenTM's headline advantage is running many large transactions
concurrently.

This model keeps OneTM's essence for the ablation benchmark:

* conflict detection is precise (per-block metadata, no signatures);
* a transaction *overflows* when any block of its read/write set
  leaves its L1 (eviction or remote invalidation);
* an overflowing transaction must acquire the single system-wide
  overflow token; while it is taken, other overflowing transactions
  stall at their overflow point (reported as SERIALIZATION conflicts
  for the executor to retry) — non-overflowed transactions proceed.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.common.config import HTMConfig
from repro.common.errors import TransactionError
from repro.coherence.cache import CacheLine
from repro.coherence.protocol import CoherenceListener, MemorySystem
from repro.obs.events import EventKind
from repro.htm.base import (
    AccessOutcome,
    CommitOutcome,
    ConflictInfo,
    ConflictKind,
    HTM,
    TxnRecord,
)


class _OneTxn(TxnRecord):
    __slots__ = ("overflowed", "needs_token")

    def __init__(self, tid: int):
        super().__init__(tid)
        self.overflowed = False
        #: Set when a read- or write-set block left the L1 or a
        #: context switch destroyed the in-L1 tracking: the
        #: transaction must enter overflowed mode to continue.
        self.needs_token = False


class OneTM(HTM, CoherenceListener):
    """Serialized-overflow HTM baseline."""

    def __init__(self, mem: MemorySystem, config: HTMConfig):
        super().__init__(mem)
        self.name = "OneTM"
        self._config = config
        #: TID currently holding the single overflow token, if any.
        self._overflow_holder: Optional[int] = None
        mem.set_listener(self)

    # ------------------------------------------------------------------
    # Overflow detection via coherence events
    # ------------------------------------------------------------------

    def _txn_of_core(self, core: int) -> Optional[_OneTxn]:
        return self._txns.get(self._core_tid[core])

    def _note_line_lost(self, core: int, block: int) -> None:
        txn = self._txn_of_core(core)
        if txn is None or txn.overflowed:
            return
        if block in txn.read_set or block in txn.write_set:
            txn.needs_token = True
            self._request_overflow(txn)

    def _request_overflow(self, txn: _OneTxn) -> None:
        """Move a transaction into overflowed mode if the token is free.

        If another transaction holds the token, ``txn`` is *not*
        overflowed yet; its next access will report a SERIALIZATION
        conflict and the executor will stall it until the token frees.
        """
        if self._overflow_holder is None:
            self._overflow_holder = txn.tid
            txn.overflowed = True
            self.stats.overflow_serializations += 1

    def _blocked_on_token(self, txn: _OneTxn) -> bool:
        """True when txn needs the overflow token but cannot have it."""
        if txn.overflowed or not txn.needs_token:
            return False
        self._request_overflow(txn)
        return not txn.overflowed

    def on_invalidate(self, core: int, block: int, line: CacheLine,
                      requester: int) -> None:
        self._note_line_lost(core, block)

    def on_evict(self, core: int, block: int, line: CacheLine) -> None:
        self._note_line_lost(core, block)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def _new_txn(self, tid: int) -> _OneTxn:
        return _OneTxn(tid)

    def _check(self, tid: int, block: int,
               is_write: bool) -> Optional[ConflictInfo]:
        """Precise conflict check against all other live transactions."""
        writer: List[int] = []
        readers: List[int] = []
        for other_tid, other in self._txns.items():
            if other_tid == tid:
                continue
            if block in other.write_set:
                writer.append(other_tid)
            elif is_write and block in other.read_set:
                readers.append(other_tid)
        if writer:
            return self._conflict(tid, block, ConflictKind.WRITER,
                                  tuple(writer))
        if readers:
            return self._conflict(tid, block, ConflictKind.READERS,
                                  tuple(readers))
        return None

    def _serialization_stall(self, tid: int, block: int) -> AccessOutcome:
        """Stall a transaction that needs the overflow token another
        holds: not a data conflict, so it is traced but not counted."""
        holder = self._overflow_holder
        if self.bus.enabled:
            self.bus.emit(EventKind.CONFLICT, tid=tid, block=block,
                          conflict_kind="serialization",
                          holder=holder)
        return AccessOutcome(False, self._lat.l1_hit, ConflictInfo(
            block, ConflictKind.SERIALIZATION,
            hints=(holder,) if holder is not None else (),
        ))

    def read(self, core: int, tid: int, block: int) -> AccessOutcome:
        txn = self._txn(tid)
        self.stats.txn_reads += 1
        if self._blocked_on_token(txn):
            return self._serialization_stall(tid, block)
        conflict = self._check(tid, block, is_write=False)
        if conflict is not None:
            return self._nack(core, block, conflict)
        latency = self.mem.access(core, block, False).latency
        txn.read_set.add(block)
        return self._granted.get(latency) or self._grant(latency)

    def write(self, core: int, tid: int, block: int) -> AccessOutcome:
        txn = self._txn(tid)
        self.stats.txn_writes += 1
        if self._blocked_on_token(txn):
            return self._serialization_stall(tid, block)
        conflict = self._check(tid, block, is_write=True)
        if conflict is not None:
            return self._nack(core, block, conflict)
        res = self.mem.access(core, block, True)
        latency = res.latency
        if block not in txn.write_set:
            txn.write_set.add(block)
            latency += self._log_append(core, tid, block)
        return self._granted.get(latency) or self._grant(latency)

    def commit(self, core: int, tid: int) -> CommitOutcome:
        txn = self._txn(tid)
        self._release_overflow(txn)
        self._retire(tid)
        self.stats.commits += 1
        return CommitOutcome(self.mem.config.latency.txn_commit,
                             used_fast_release=not txn.overflowed)

    def abort(self, core: int, tid: int) -> CommitOutcome:
        txn = self._txn(tid)
        cycles = self._undo(core, tid)
        self._release_overflow(txn)
        self._retire(tid)
        self.stats.aborts += 1
        return CommitOutcome(cycles)

    def _release_overflow(self, txn: _OneTxn) -> None:
        if self._overflow_holder == txn.tid:
            self._overflow_holder = None

    # ------------------------------------------------------------------
    # Context switching
    # ------------------------------------------------------------------

    def context_switch(self, core: int) -> int:
        """OneTM has no flash-OR: a switched transaction must go to
        overflowed (persistent-metadata) mode to survive, competing
        for the single overflow token."""
        txn = self._txn_of_core(core)
        if txn is not None:
            txn.needs_token = True
        return super().context_switch(core)

    # ------------------------------------------------------------------
    # Strong atomicity
    # ------------------------------------------------------------------

    def nontxn_read(self, core: int, tid: int, block: int) -> AccessOutcome:
        return self._nontxn_access(core, tid, block, False)

    def nontxn_write(self, core: int, tid: int, block: int) -> AccessOutcome:
        return self._nontxn_access(core, tid, block, True)

    def _nontxn_access(self, core: int, tid: int, block: int,
                       is_write: bool) -> AccessOutcome:
        conflict = self._check(tid, block, is_write)
        if conflict is not None:
            return self._nack(core, block, conflict)
        return self._grant(self.mem.access(core, block, is_write).latency)

    # ------------------------------------------------------------------
    # Instrumentation
    # ------------------------------------------------------------------

    def check_invariants(self) -> Dict[str, object]:
        """Coherence audit plus overflow-token uniqueness.

        OneTM's whole design rests on a single machine-wide overflow
        token: at most one live transaction may be overflowed, and the
        token holder must be that transaction.
        """
        report = super().check_invariants()
        overflowed = [tid for tid, txn in self._txns.items()
                      if txn.overflowed]
        if len(overflowed) > 1:
            raise TransactionError(
                f"multiple overflowed transactions hold the single "
                f"overflow token: {sorted(overflowed)}"
            )
        holder = self._overflow_holder
        if holder is not None and overflowed != [holder]:
            raise TransactionError(
                f"overflow token holder {holder} does not match the "
                f"overflowed transaction set {sorted(overflowed)}"
            )
        if holder is None and overflowed:
            raise TransactionError(
                f"transaction {overflowed[0]} overflowed without "
                f"holding the overflow token"
            )
        report["checks"] = list(report["checks"]) + ["overflow_token"]
        report["live_txns"] = len(self._txns)
        report["overflowed"] = len(overflowed)
        return report
