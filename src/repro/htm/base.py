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
took, including any logging — or reports a conflict with whatever
owner hints the mechanism can provide.  On conflict the machine has
performed no transactional state change for the requester (though for
TokenTM the underlying *coherence* movement may have happened: the
paper decouples the two).
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

    ``hints`` lists TIDs of conflicting transactions that the hardware
    could identify (the metastate TID, or TIDs piggybacked on
    invalidation acks; for LogTM-SE, every thread whose signature
    matched).  ``complete`` says whether ``hints`` provably covers all
    conflictors; when False the contention manager must fall back to
    walking logs (TokenTM's "hardest case").
    """

    block: int
    kind: ConflictKind
    hints: Tuple[int, ...] = ()
    complete: bool = True
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

    # -- conflict resolution support -------------------------------------

    def identify_conflictors(self, info: ConflictInfo) -> Tuple[int, ...]:
        """Complete the conflictor list for the contention manager.

        Default: trust the hints.  TokenTM overrides this to walk the
        software logs in the hardest case (incomplete hints).
        """
        return info.hints

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
