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

from typing import Dict, List, Optional, Set

from repro.common.config import HTMConfig
from repro.common.errors import TransactionError
from repro.coherence.cache import CacheLine
from repro.coherence.protocol import CoherenceListener, MemorySystem
from repro.core.tmlog import TmLog
from repro.obs.events import EventKind
from repro.htm.base import (
    AccessOutcome,
    CommitOutcome,
    ConflictInfo,
    ConflictKind,
    HTM,
)


class _OneTxn:
    __slots__ = ("tid", "core", "read_set", "write_set", "overflowed",
                 "needs_token")

    def __init__(self, tid: int, core: int):
        self.tid = tid
        self.core = core
        self.read_set: Set[int] = set()
        self.write_set: Set[int] = set()
        self.overflowed = False
        #: Set when a context switch destroyed the in-L1 tracking:
        #: the transaction must enter overflowed mode to continue.
        self.needs_token = False


class OneTM(HTM, CoherenceListener):
    """Serialized-overflow HTM baseline."""

    def __init__(self, mem: MemorySystem, config: HTMConfig):
        super().__init__(mem)
        self.name = "OneTM"
        self._config = config
        self._txns: Dict[int, _OneTxn] = {}
        self._logs: Dict[int, TmLog] = {}
        self._core_tid: List[Optional[int]] = [None] * mem.config.num_cores
        #: TID currently holding the single overflow token, if any.
        self._overflow_holder: Optional[int] = None
        mem.set_listener(self)

    # ------------------------------------------------------------------
    # Overflow detection via coherence events
    # ------------------------------------------------------------------

    def _txn_of_core(self, core: int) -> Optional[_OneTxn]:
        tid = self._core_tid[core]
        if tid is None:
            return None
        return self._txns.get(tid)

    def _note_line_lost(self, core: int, block: int) -> None:
        txn = self._txn_of_core(core)
        if txn is None or txn.overflowed:
            return
        if block in txn.read_set or block in txn.write_set:
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
        if txn.overflowed:
            return False
        if not txn.needs_token and not self._needs_overflow(txn):
            return False
        self._request_overflow(txn)
        return not txn.overflowed

    def _needs_overflow(self, txn: _OneTxn) -> bool:
        """A transaction needs overflow mode once a set block left L1."""
        cache = self.mem.cache(txn.core)
        for block in txn.read_set | txn.write_set:
            if cache.lookup(block) is None:
                return True
        return False

    def on_invalidate(self, core: int, block: int, line: CacheLine,
                      requester: int) -> None:
        self._note_line_lost(core, block)

    def on_evict(self, core: int, block: int, line: CacheLine) -> None:
        self._note_line_lost(core, block)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def begin(self, core: int, tid: int) -> int:
        if tid in self._txns:
            raise TransactionError(f"thread {tid} already in a transaction")
        self._txns[tid] = _OneTxn(tid, core)
        self._core_tid[core] = tid
        if tid not in self._logs:
            self._logs[tid] = TmLog(tid)
        return self.mem.config.latency.txn_begin

    def _txn(self, tid: int) -> _OneTxn:
        txn = self._txns.get(tid)
        if txn is None:
            raise TransactionError(f"thread {tid} has no live transaction")
        return txn

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
            self.stats.conflicts += 1
            if self.bus.enabled:
                self.bus.emit(EventKind.CONFLICT, tid=tid, block=block,
                              conflict_kind="writer")
            return ConflictInfo(block, ConflictKind.WRITER,
                                hints=tuple(writer), complete=True)
        if readers:
            self.stats.conflicts += 1
            if self.bus.enabled:
                self.bus.emit(EventKind.CONFLICT, tid=tid, block=block,
                              conflict_kind="readers")
            return ConflictInfo(block, ConflictKind.READERS,
                                hints=tuple(readers), complete=True)
        return None

    def _serialization_stall(self, block: int,
                             tid: Optional[int] = None) -> ConflictInfo:
        holder = self._overflow_holder
        if self.bus.enabled:
            self.bus.emit(EventKind.CONFLICT, tid=tid, block=block,
                          conflict_kind="serialization",
                          holder=holder)
        return ConflictInfo(
            block, ConflictKind.SERIALIZATION,
            hints=(holder,) if holder is not None else (), complete=True,
        )

    def _log_append(self, core: int, tid: int, block: int) -> int:
        lat = self.mem.config.latency
        cycles = 0
        for log_block in self._logs[tid].append(block, 1, True):
            res = self.mem.access(core, log_block, True)
            cycles += res.latency + lat.log_write
        return cycles

    def read(self, core: int, tid: int, block: int) -> AccessOutcome:
        txn = self._txn(tid)
        self.stats.txn_reads += 1
        if self._blocked_on_token(txn):
            return AccessOutcome(False, self.mem.config.latency.l1_hit,
                                 self._serialization_stall(block, tid))
        conflict = self._check(tid, block, is_write=False)
        if conflict is not None:
            return AccessOutcome(
                False, self.mem.request_latency(core, block), conflict
            )
        latency = self.mem.access(core, block, False).latency
        txn.read_set.add(block)
        return self._granted.get(latency) or self._grant(latency)

    def write(self, core: int, tid: int, block: int) -> AccessOutcome:
        txn = self._txn(tid)
        self.stats.txn_writes += 1
        if self._blocked_on_token(txn):
            return AccessOutcome(False, self.mem.config.latency.l1_hit,
                                 self._serialization_stall(block, tid))
        conflict = self._check(tid, block, is_write=True)
        if conflict is not None:
            return AccessOutcome(
                False, self.mem.request_latency(core, block), conflict
            )
        res = self.mem.access(core, block, True)
        latency = res.latency
        if block not in txn.write_set:
            txn.write_set.add(block)
            latency += self._log_append(core, tid, block)
        return self._granted.get(latency) or self._grant(latency)

    def commit(self, core: int, tid: int) -> CommitOutcome:
        txn = self._txn(tid)
        self._release_overflow(txn)
        self._logs[tid].reset()
        self._end(core, tid)
        self.stats.commits += 1
        return CommitOutcome(self.mem.config.latency.txn_commit,
                             used_fast_release=not txn.overflowed)

    def abort(self, core: int, tid: int) -> CommitOutcome:
        txn = self._txn(tid)
        lat = self.mem.config.latency
        log = self._logs[tid]
        cycles = lat.conflict_trap
        for record, log_block in log.walk_backward():
            res = self.mem.access(core, log_block, False)
            cycles += res.latency
            if record.is_write:
                data = self.mem.access(core, record.block, True)
                cycles += data.latency + lat.undo_write
        self._release_overflow(txn)
        log.reset()
        self._end(core, tid)
        self.stats.aborts += 1
        return CommitOutcome(cycles)

    def _release_overflow(self, txn: _OneTxn) -> None:
        if self._overflow_holder == txn.tid:
            self._overflow_holder = None

    def _end(self, core: int, tid: int) -> None:
        del self._txns[tid]
        self._core_tid[core] = None

    # ------------------------------------------------------------------
    # Context switching
    # ------------------------------------------------------------------

    def context_switch(self, core: int) -> int:
        """OneTM has no flash-OR: a switched transaction must go to
        overflowed (persistent-metadata) mode to survive, competing
        for the single overflow token."""
        tid = self._core_tid[core]
        if tid is not None:
            txn = self._txns.get(tid)
            if txn is not None and not txn.overflowed:
                txn.needs_token = True
        self._core_tid[core] = None
        return 0

    def schedule(self, core: int, tid: int) -> None:
        for other_core, other_tid in enumerate(self._core_tid):
            if other_tid == tid:
                self._core_tid[other_core] = None
        self._core_tid[core] = tid
        txn = self._txns.get(tid)
        if txn is not None:
            txn.core = core

    # ------------------------------------------------------------------
    # Strong atomicity
    # ------------------------------------------------------------------

    def nontxn_read(self, core: int, tid: int, block: int) -> AccessOutcome:
        conflict = self._check(tid, block, is_write=False)
        if conflict is not None:
            return AccessOutcome(
                False, self.mem.request_latency(core, block), conflict
            )
        return self._grant(self.mem.access(core, block, False).latency)

    def nontxn_write(self, core: int, tid: int, block: int) -> AccessOutcome:
        conflict = self._check(tid, block, is_write=True)
        if conflict is not None:
            return AccessOutcome(
                False, self.mem.request_latency(core, block), conflict
            )
        return self._grant(self.mem.access(core, block, True).latency)

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
