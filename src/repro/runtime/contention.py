"""Software contention management (Section 5.2).

All HTM variants in the paper's evaluation use *timestamp-based*
conflict resolution, which both performs well and keeps comparisons
fair; this module implements that policy for the executor.

The policy: every transaction carries the wall-clock timestamp of its
*first* BEGIN (retained across retries, so a transaction ages rather
than being reborn — the classic starvation-freedom argument).  On a
conflict, the older party wins:

* requester older than every conflicting holder → the holders are
  doomed (they abort at their next step) and the requester stalls
  briefly and retries;
* otherwise the requester aborts itself and backs off.

SERIALIZATION conflicts (OneTM's overflow token) are not data
conflicts; the requester just stalls until the token frees.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from typing import Dict, Optional, Sequence, Tuple

from repro.common.config import HTMConfig
from repro.htm.base import ConflictInfo, ConflictKind
from repro.obs.events import NULL_BUS, EventBus, EventKind

#: A non-winning stall waits up to ``STALL_BACKOFF_BASE << min(n, 6)``
#: cycles (jittered), ``n`` being the consecutive stalls so far.
STALL_BACKOFF_BASE = 20


class Resolution(Enum):
    """What the conflicting requester must do."""

    #: Retry after a short stall; the named victims have been doomed.
    STALL_AND_RETRY = "stall"
    #: Abort the requester's own transaction and back off.
    ABORT_SELF = "abort-self"


@dataclass(frozen=True)
class Decision:
    """Contention-manager verdict for one conflict event."""

    resolution: Resolution
    #: TIDs the requester's side decided to doom (empty on ABORT_SELF).
    victims: Tuple[int, ...] = ()


class ContentionPolicy:
    """Base contention manager: lifecycle tracking and delays.

    The paper's conflicts trap to a *software* contention manager, so
    the policy is swappable; :class:`TimestampManager` is the one the
    evaluation uses, :class:`RequesterLosesPolicy` and
    :class:`RequesterWinsPolicy` are the classic polite/aggressive
    alternatives for the policy ablation.
    """

    def __init__(self, config: HTMConfig, seed: int = 0,
                 bus: Optional[EventBus] = None):
        self._config = config
        self._rng = random.Random(seed ^ 0x7E57)
        self._bus = bus if bus is not None else NULL_BUS
        #: First-begin stamp per live transaction, (sequence, tid)
        #: so ties break deterministically by TID.
        self._stamps: Dict[int, Tuple[int, int]] = {}

    # -- lifecycle -------------------------------------------------------

    def transaction_started(self, tid: int, now: int) -> None:
        """Record the first BEGIN; retries keep the original stamp."""
        if tid not in self._stamps:
            self._stamps[tid] = (now, tid)

    def transaction_finished(self, tid: int) -> None:
        """Commit: the stamp is consumed."""
        self._stamps.pop(tid, None)

    def transaction_aborted(self, tid: int) -> None:
        """Abort keeps the stamp so the retry ages properly."""

    def priority(self, tid: int) -> Tuple[int, int]:
        """Stamp used for comparisons (older = smaller)."""
        return self._stamps.get(tid, (-1, tid))

    def _live_holders(self, requester_tid: Optional[int],
                      info: ConflictInfo,
                      live_tids: Sequence[int]) -> list:
        live = set(live_tids)
        return [t for t in info.hints if t in live and t != requester_tid]

    def resolve(self, requester_tid: Optional[int],
                info: ConflictInfo,
                live_tids: Sequence[int]) -> Decision:
        """Decide one conflict and publish the decision as an event."""
        decision = self._decide(requester_tid, info, live_tids)
        bus = self._bus
        if bus.enabled:
            bus.emit(EventKind.CM_DECISION, tid=requester_tid,
                     block=info.block, conflict_kind=info.kind.value,
                     resolution=decision.resolution.value,
                     victims=list(decision.victims))
        return decision

    def _decide(self, requester_tid: Optional[int],
                info: ConflictInfo,
                live_tids: Sequence[int]) -> Decision:
        raise NotImplementedError

    # -- delays ------------------------------------------------------------

    def stall_delay(self, consecutive_stalls: int,
                    winning: bool = False) -> int:
        """Cycles to wait before retrying a stalled request.

        A *winning* requester — one that just doomed its conflictors —
        retries almost immediately, mirroring hardware that re-issues
        the coherence request as soon as the NACKing owner aborts; a
        long escalating wait here would let fresh transactions steal
        the block and re-form the conflict cycle (livelock).  A
        non-winning stall (waiting on an older holder) escalates
        geometrically so a long-held block is not hammered.
        """
        if winning:
            return self._jitter(30)
        step = min(consecutive_stalls, 6)
        return self._jitter(STALL_BACKOFF_BASE << step)

    def backoff_delay(self, attempt: int) -> int:
        """Randomized exponential back-off after a self-abort."""
        exp = min(attempt, 10)
        ceiling = min(self._config.max_backoff, 32 << exp)
        return self._jitter(ceiling)

    def spurious_nack_delay(self) -> int:
        """Cycles charged for a fault-injected spurious NACK.

        Fault injection models a transient interconnect NACK (a
        retried coherence request that was never really conflicting):
        the thread just loses a short, jittered stall.  Uses the same
        policy RNG as the real delays so replays are deterministic.
        """
        return self._jitter(40)

    def _jitter(self, ceiling: int) -> int:
        ceiling = max(2, ceiling)
        return self._rng.randint(ceiling // 2, ceiling)


class TimestampManager(ContentionPolicy):
    """Oldest-wins timestamp contention manager (the paper's policy)."""

    def _decide(self, requester_tid: Optional[int],
                info: ConflictInfo,
                live_tids: Sequence[int]) -> Decision:
        """Decide the outcome of one detected conflict.

        ``requester_tid`` is None for a non-transactional access,
        which is treated as infinitely old (it cannot abort, so it
        must eventually win).  ``live_tids`` filters hints against
        transactions that already finished between detection and
        resolution.
        """
        if info.kind is ConflictKind.SERIALIZATION:
            return Decision(Resolution.STALL_AND_RETRY)
        holders = self._live_holders(requester_tid, info, live_tids)
        if not holders:
            # Conflictors vanished (committed/aborted); just retry.
            return Decision(Resolution.STALL_AND_RETRY)
        if requester_tid is None:
            return Decision(Resolution.STALL_AND_RETRY, tuple(holders))
        mine = self.priority(requester_tid)
        if all(mine < self.priority(h) for h in holders):
            return Decision(Resolution.STALL_AND_RETRY, tuple(holders))
        return Decision(Resolution.ABORT_SELF)


class RequesterLosesPolicy(ContentionPolicy):
    """Polite policy: the requester always backs off and retries.

    Never dooms a victim — conflicts resolve purely by the requester
    aborting itself (with exponential back-off) until the holder has
    finished.  Simple hardware, no victim-abort wiring, but prone to
    starving writers behind long readers.
    """

    def _decide(self, requester_tid: Optional[int],
                info: ConflictInfo,
                live_tids: Sequence[int]) -> Decision:
        if info.kind is ConflictKind.SERIALIZATION:
            return Decision(Resolution.STALL_AND_RETRY)
        holders = self._live_holders(requester_tid, info, live_tids)
        if not holders:
            return Decision(Resolution.STALL_AND_RETRY)
        if requester_tid is None:
            # A non-transactional access cannot abort; it must win.
            return Decision(Resolution.STALL_AND_RETRY, tuple(holders))
        return Decision(Resolution.ABORT_SELF)


class RequesterWinsPolicy(ContentionPolicy):
    """Aggressive policy: the requester dooms every live conflictor.

    Minimizes requester latency but wastes the victims' work and can
    thrash under contention (two transactions repeatedly killing each
    other); the randomized restart back-off is the only brake.
    """

    def _decide(self, requester_tid: Optional[int],
                info: ConflictInfo,
                live_tids: Sequence[int]) -> Decision:
        if info.kind is ConflictKind.SERIALIZATION:
            return Decision(Resolution.STALL_AND_RETRY)
        holders = self._live_holders(requester_tid, info, live_tids)
        return Decision(Resolution.STALL_AND_RETRY, tuple(holders))


#: Contention managers by name: the executor builds the named one, and
#: ``CellSpec.policy`` picks it for a grid cell.  ``timestamp`` is the
#: paper's policy; the other two are the policy ablation's baselines.
POLICIES = {
    "timestamp": TimestampManager,
    "requester-loses": RequesterLosesPolicy,
    "requester-wins": RequesterWinsPolicy,
}
