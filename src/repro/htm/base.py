"""Common interface for the simulated HTM variants.

Each HTM machine owns a :class:`~repro.coherence.protocol.MemorySystem`
and mediates every load and store of every simulated thread.  The
executor drives the machine through this interface and implements the
policy side (contention management, retries, back-off, restart); the
machine implements the mechanism side (conflict detection, version
management, commit/abort work) and charges latencies.

A transactional access either *succeeds* — returning the cycles it
took, including any logging — or reports a conflict with whatever
owner hints the mechanism can provide.  On conflict the machine has
performed no transactional state change for the requester (though for
TokenTM the underlying *coherence* movement may have happened: the
paper decouples the two).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional, Tuple

from repro.coherence.protocol import MemorySystem
from repro.core.tmlog import (
    LOG_REGION_BASE_BLOCK,
    LOG_REGION_BLOCKS_PER_THREAD,
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


class HTM(ABC):
    """Abstract hardware transactional memory machine."""

    #: Human-readable variant name (e.g. "TokenTM", "LogTM-SE_4xH3").
    name: str = "HTM"

    def __init__(self, mem: MemorySystem):
        self.mem = mem
        self.stats = HTMStats()
        #: Latency -> the interned granted outcome with that latency.
        #: A granted access carries nothing else, so one immutable
        #: outcome per distinct latency serves every grant; access
        #: paths return ``self._granted.get(latency) or
        #: self._grant(latency)``.
        self._granted: Dict[int, AccessOutcome] = {}
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

    @abstractmethod
    def begin(self, core: int, tid: int) -> int:
        """Start a transaction for thread ``tid`` on ``core``.

        Returns the begin latency in cycles.
        """

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
        The base implementation has no per-core transactional state
        tied to the running thread, so it costs nothing extra.
        """
        return 0

    def schedule(self, core: int, tid: int) -> None:
        """Thread ``tid`` starts (or resumes) running on ``core``."""

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
        return []

    def read_set_size(self, tid: int) -> int:
        """Distinct blocks in ``tid``'s current read set."""
        return 0

    def write_set_size(self, tid: int) -> int:
        """Distinct blocks in ``tid``'s current write set."""
        return 0

    def audit(self) -> None:
        """Check machine invariants (may be expensive).

        Raises a :class:`~repro.common.errors.ReproError` subtype on
        the first violation.  Used by tests and, at a configurable
        cadence, by the invariant monitor (``repro.faults``).
        """
        self.mem.audit()

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
