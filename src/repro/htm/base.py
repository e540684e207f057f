"""Common interface for the simulated HTM variants.

Each HTM machine owns a :class:`~repro.coherence.protocol.MemorySystem`
and mediates every load and store of every simulated thread.  The
executor drives the machine through this interface and implements the
policy side (contention management, retries, back-off, restart); the
machine implements the mechanism side (conflict detection, version
management, commit/abort work) and charges latencies.

Every variant shares LogTM's eager version management, which lives
here: new values go in place and each thread's old values go into its
undo log (:class:`~repro.core.tmlog.TmLog`).  :class:`HTM` owns the
live-transaction table, the logs, ``begin``, the log append and the
newest-first undo walk; a variant adds only its conflict detection.

A transactional access either *succeeds* — returning the cycles it
took, including any logging — or reports a conflict.  On conflict the
machine has performed no transactional state change for the requester
(though for TokenTM the underlying *coherence* movement may have
happened: the paper decouples the two).

Conflicts take one path.  Each machine names the conflictors its
hardware can — LogTM-SE every thread whose signature hit, OneTM the
exact holders, TokenTM the metastate TID and the TIDs piggybacked on
invalidation acks, walking the logs itself when those cannot cover a
reader count — and hands :meth:`HTM._conflict` the finished list,
which counts the conflict, traces it and returns the
:class:`ConflictInfo` the executor's contention manager resolves.
When a stall persists with hints that name no live transaction, the
executor traps to :meth:`HTM.software_conflictors` (Section 5.2's
hardest case): TokenTM walks the logs, and the exact-hint machines
have nothing more to find.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Optional, Set, Tuple

from repro.common.errors import SimulationError, TransactionError
from repro.coherence.protocol import AccessResult, MemorySystem
from repro.core.tmlog import (
    LOG_REGION_BASE_BLOCK,
    LOG_REGION_BLOCKS_PER_THREAD,
    TmLog,
)
from repro.obs.events import EventKind


class ConflictKind(Enum):
    """What the requester collided with."""

    WRITER = "writer"
    READERS = "readers"
    #: Not a data conflict: the machine is serializing the requester
    #: (OneTM's single-overflow rule).  The executor stalls without
    #: dooming anyone.
    SERIALIZATION = "serialization"


@dataclass(frozen=True)
class ConflictInfo:
    """Description of a detected conflict, for the contention manager.

    ``hints`` lists the TIDs of the conflicting transactions the
    machine named: for LogTM-SE every thread whose signature matched,
    for OneTM the exact holders, for TokenTM the metastate TID and the
    TIDs piggybacked on invalidation acks, or the log walk's readers
    when those could not cover the block's reader count.  A hint may
    have finished by the time the conflict is resolved; the executor's
    hardware-retry trap covers hints that name no live transaction.
    """

    block: int
    kind: ConflictKind
    hints: Tuple[int, ...] = ()
    #: True when every hinted conflictor was a signature false
    #: positive (LogTM-SE only; TokenTM conflicts are always real).
    false_positive: bool = False


@dataclass(frozen=True)
class AccessOutcome:
    """Result of one transactional (or strong-atomicity) access.

    Frozen: granted outcomes are interned per machine and shared by
    every access with the same latency (see :meth:`HTM._grant`).
    """

    granted: bool
    latency: int
    conflict: Optional[ConflictInfo] = None


@dataclass
class CommitOutcome:
    """Result of a commit (or abort) operation."""

    latency: int
    used_fast_release: bool = False
    #: Cycles of the latency spent releasing tokens in software
    #: (Table 6's "Software Release" column; zero for fast release).
    software_release_cycles: int = 0


@dataclass
class HTMStats:
    """Machine-level counters common to all variants."""

    txn_reads: int = 0
    txn_writes: int = 0
    conflicts: int = 0
    false_positive_conflicts: int = 0
    fast_releases: int = 0
    software_releases: int = 0
    aborts: int = 0
    commits: int = 0
    log_stall_cycles: int = 0
    log_write_cycles: int = 0
    software_release_cycles: int = 0
    undo_cycles: int = 0
    #: Conflicts where hardware hints were incomplete and the
    #: contention manager had to walk logs (TokenTM hardest case).
    log_walk_resolutions: int = 0
    overflow_serializations: int = 0

    def snapshot(self) -> Dict[str, int]:
        return dict(self.__dict__)


class TxnRecord:
    """One live transaction: its thread and its exact read/write sets.

    Variants extend it with their conflict-detection state.
    """

    __slots__ = ("tid", "read_set", "write_set")

    def __init__(self, tid: int):
        self.tid = tid
        self.read_set: Set[int] = set()
        self.write_set: Set[int] = set()


class HTM(ABC):
    """Abstract hardware transactional memory machine."""

    #: Human-readable variant name (e.g. "TokenTM", "LogTM-SE_4xH3").
    name: str = "HTM"

    #: The event a detected conflict is traced as.  Signature machines
    #: NACK the request, and their NACKs say whether the hit was a
    #: false positive.
    _conflict_event: EventKind = EventKind.CONFLICT

    def __init__(self, mem: MemorySystem):
        self.mem = mem
        self.stats = HTMStats()
        self._lat = mem.config.latency
        #: Live transactions by TID: ``begin`` adds, ``_retire`` pops.
        self._txns: Dict[int, TxnRecord] = {}
        #: Each thread's undo log, made at its first ``begin`` and
        #: reset (never dropped) when a transaction retires.
        self._logs: Dict[int, TmLog] = {}
        #: Latency -> the interned granted outcome with that latency.
        #: A granted access carries nothing else, so one immutable
        #: outcome per distinct latency serves every grant; access
        #: paths return ``self._granted.get(latency) or
        #: self._grant(latency)``.
        self._granted: Dict[int, AccessOutcome] = {}
        #: Per-core TID register: the thread whose transactional state
        #: each core's L1 holds, or None.  ``begin`` and ``schedule``
        #: set a core's slot and ``context_switch`` clears it, so no
        #: TID is ever in two slots.
        self._core_tid: List[Optional[int]] = [None] * mem.config.num_cores
        #: Observability bus, shared with the memory system (see
        #: repro.obs): disabled by default, zero-cost when off.
        self.bus = mem.bus
        # Per-thread logs live in freshly allocated (OS-zeroed)
        # virtual memory: their first touches hit the L2, not DRAM.
        mem.mark_zero_filled(
            LOG_REGION_BASE_BLOCK,
            LOG_REGION_BASE_BLOCK
            + (1 << 14) * LOG_REGION_BLOCKS_PER_THREAD,
        )

    def _grant(self, latency: int) -> AccessOutcome:
        """The interned granted outcome for ``latency``."""
        outcome = self._granted.get(latency)
        if outcome is None:
            outcome = self._granted[latency] = AccessOutcome(True, latency)
        return outcome

    # -- transaction lifecycle -----------------------------------------

    def begin(self, core: int, tid: int) -> int:
        """Start a transaction for thread ``tid`` on ``core``.

        Returns the begin latency in cycles.  A core whose register
        names another thread with a live transaction must switch that
        thread out first: the core's L1 state is that thread's.
        """
        if tid in self._txns:
            raise TransactionError(f"thread {tid} already in a transaction")
        current = self._core_tid[core]
        if current is not None and current != tid and current in self._txns:
            raise SimulationError(
                f"core {core} is running thread {current}'s transaction; "
                f"switch it out before thread {tid} begins"
            )
        self._txns[tid] = self._new_txn(tid)
        self._core_tid[core] = tid
        if tid not in self._logs:
            self._logs[tid] = TmLog(tid)
        return self._lat.txn_begin

    def _new_txn(self, tid: int) -> TxnRecord:
        """A fresh record for ``tid``'s transaction."""
        return TxnRecord(tid)

    def _txn(self, tid: int) -> TxnRecord:
        txn = self._txns.get(tid)
        if txn is None:
            raise TransactionError(f"thread {tid} has no live transaction")
        return txn

    @abstractmethod
    def read(self, core: int, tid: int, block: int) -> AccessOutcome:
        """Transactional load of ``block``."""

    @abstractmethod
    def write(self, core: int, tid: int, block: int) -> AccessOutcome:
        """Transactional store to ``block``."""

    @abstractmethod
    def commit(self, core: int, tid: int) -> CommitOutcome:
        """Commit the running transaction, releasing its isolation."""

    @abstractmethod
    def abort(self, core: int, tid: int) -> CommitOutcome:
        """Abort: undo tentative writes and release isolation."""

    # -- version management (LogTM's eager undo log) ---------------------

    def _log_append(self, core: int, tid: int, block: int, tokens: int = 1,
                    is_write: bool = True) -> int:
        """Write a log record; returns cycles including log stalls.

        Each log block the record spans is a real store, so a log
        block that misses in the L1 stalls the append (Table 6's log
        stalls).
        """
        lat = self._lat
        access = self.mem.access
        stats = self.stats
        cycles = 0
        for log_block in self._logs[tid].append(block, tokens, is_write):
            latency = access(core, log_block, True).latency
            cycles += latency + lat.log_write
            if latency > lat.l1_hit:
                stats.log_stall_cycles += latency - lat.l1_hit
        stats.log_write_cycles += cycles
        return cycles

    def _undo(self, core: int, tid: int) -> int:
        """Restore ``tid``'s old values from its log; returns the cycles.

        Walks newest-first, so a block written twice ends at its
        pre-transaction value.  Charges the abort trap, a read of each
        record's log block and, per write record, a store of the old
        value.  Does not retire the transaction.
        """
        lat = self._lat
        access = self.mem.access
        stats = self.stats
        cycles = lat.conflict_trap
        for record, log_block in self._logs[tid].walk_backward():
            cycles += access(core, log_block, False).latency
            if record.is_write:
                result = access(core, record.block, True)
                self._restored(core, record.block, result)
                undo = result.latency + lat.undo_write
                cycles += undo
                stats.undo_cycles += undo
        return cycles

    def _restored(self, core: int, block: int, result: AccessResult) -> None:
        """Hook: the undo walk just rewrote ``block`` with ``result``."""

    def _retire(self, tid: int) -> TxnRecord:
        """End ``tid``'s transaction: reset its log, pop its record."""
        self._logs[tid].reset()
        return self._txns.pop(tid)

    # -- strong atomicity ----------------------------------------------

    @abstractmethod
    def nontxn_read(self, core: int, tid: int, block: int) -> AccessOutcome:
        """Non-transactional load (checked for strong atomicity)."""

    @abstractmethod
    def nontxn_write(self, core: int, tid: int, block: int) -> AccessOutcome:
        """Non-transactional store (checked for strong atomicity)."""

    # -- context switching (multiprogramming) ----------------------------

    def context_switch(self, core: int) -> int:
        """Deschedule whatever thread runs on ``core``.

        Returns the cycle cost of the hardware's part of the switch.
        The base implementation only clears the core's TID register,
        which costs nothing; variants that act on the descheduled
        thread's state do so first and then call this.
        """
        self._core_tid[core] = None
        return 0

    def schedule(self, core: int, tid: Optional[int]) -> None:
        """Thread ``tid`` starts (or resumes) running on ``core``.

        ``tid=None`` clears the register of a core whose thread has
        exited, with no switch instruction.  A core whose register
        names another thread must be switched out first.
        """
        current = self._core_tid[core]
        if tid is not None and current is not None and current != tid:
            raise SimulationError(
                f"core {core} is running thread {current}; switch it "
                f"out before scheduling thread {tid}"
            )
        self._core_tid[core] = tid

    def running(self, core: int) -> Optional[int]:
        """The TID ``core``'s register names, or None."""
        return self._core_tid[core]

    # -- conflicts -------------------------------------------------------

    def _conflict(self, tid: Optional[int], block: int, kind: ConflictKind,
                  hints: Tuple[int, ...], core: Optional[int] = None,
                  false_positive: bool = False, **attrs) -> ConflictInfo:
        """Record one detected conflict and describe it.

        The one site that counts conflicts (and false positives) and
        traces them; ``attrs`` are the detecting site's extra event
        fields.  Returns the :class:`ConflictInfo` for the contention
        manager.
        """
        stats = self.stats
        stats.conflicts += 1
        if false_positive:
            stats.false_positive_conflicts += 1
        if self.bus.enabled:
            event = self._conflict_event
            if event is EventKind.NACK:
                attrs = {"false_positive": false_positive, **attrs}
            self.bus.emit(event, tid=tid, core=core, block=block,
                          conflict_kind=kind.value, **attrs)
        return ConflictInfo(block, kind, hints, false_positive)

    def _nack(self, core: int, block: int,
              conflict: ConflictInfo) -> AccessOutcome:
        """Refuse a request on a conflict: no data movement, and the
        requester pays the round trip to the directory."""
        return AccessOutcome(False, self.mem.request_latency(core, block),
                             conflict)

    def _walk_logs(self, block: int, exclude: Optional[int]
                   ) -> Tuple[int, ...]:
        """Live transactions other than ``exclude`` that hold ``block``.

        The software contention manager's log walk (Section 5.2's
        hardest case): the logs record each transaction's exact read
        and write sets.  Counted in ``log_walk_resolutions``.
        """
        self.stats.log_walk_resolutions += 1
        return tuple(tid for tid, txn in self._txns.items()
                     if tid != exclude
                     and (block in txn.read_set or block in txn.write_set))

    def software_conflictors(self, tid: int, block: int) -> Tuple[int, ...]:
        """The trap to software for a conflict hardware could not name.

        The executor calls this when a stalled request has retried
        ``HW_RETRIES`` times on hints that name no live transaction.
        A machine whose hints are exact sets has nothing more to find,
        so the default is empty; TokenTM walks the logs.
        """
        return ()

    # -- instrumentation -------------------------------------------------

    def active_tids(self) -> List[int]:
        """TIDs with a live transaction (for audits/diagnostics)."""
        return list(self._txns)

    def read_set_size(self, tid: int) -> int:
        """Distinct blocks in ``tid``'s current read set."""
        txn = self._txns.get(tid)
        return len(txn.read_set) if txn else 0

    def write_set_size(self, tid: int) -> int:
        """Distinct blocks in ``tid``'s current write set."""
        txn = self._txns.get(tid)
        return len(txn.write_set) if txn else 0

    def log_entries(self, tid: int) -> int:
        """Live log records for ``tid`` (diagnostics)."""
        log = self._logs.get(tid)
        return log.entry_count if log else 0

    def audit(self) -> None:
        """Check machine invariants (may be expensive).

        Raises a :class:`~repro.common.errors.ReproError` subtype on
        the first violation.  Used by tests and, at a configurable
        cadence, by the invariant monitor (``repro.faults``).
        Checks the coherence state and the per-core TID registers.
        """
        self.mem.audit()
        self._check_core_registers()

    def _check_core_registers(self) -> None:
        """No thread may be registered on two cores at once."""
        seen: Dict[int, int] = {}
        for core, tid in enumerate(self._core_tid):
            if tid is None:
                continue
            if tid in seen:
                raise TransactionError(
                    f"thread {tid} is registered on cores {seen[tid]} "
                    f"and {core}"
                )
            seen[tid] = core

    def check_invariants(self) -> Dict[str, object]:
        """Run every invariant check and describe what was verified.

        The monitor-path entry point: like :meth:`audit` this raises
        on the first violation, but on success it returns a
        JSON-serializable report of which checks ran (variants extend
        it with their own checks — token conservation, signature
        consistency, overflow-token uniqueness).
        """
        self.audit()
        return {"checks": ["coherence"]}
