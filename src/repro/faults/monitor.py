"""Continuous invariant monitoring during executor runs.

The monitor promotes the repo's test-only oracles to the run path: at
a configurable cadence of quantum boundaries (and once more at run
end) it calls :meth:`repro.htm.base.HTM.check_invariants` — the
coherence audit plus each variant's own checks (TokenTM's
double-entry token books, pending-shard drains, and undo-log shape;
OneTM's overflow-token uniqueness; LogTM-SE's signature-superset
consistency) — and, when the executor records history, the
serializability oracle with a clock-skew tolerance defaulting to the
skew the executor's scheduler allows (:attr:`Executor.max_skew`).

Two modes:

* ``halt=True`` (chaos campaigns) — the first violation raises
  :class:`~repro.common.errors.InvariantViolationError` with the
  oracle error chained, so the campaign can capture a repro bundle;
* ``halt=False`` (``repro run --monitor``) — violations are recorded
  (deduplicated, capped) and surfaced through the run's
  ``RunStats.monitor`` summary and a nonzero CLI exit code.

:data:`NULL_MONITOR` is the zero-cost disabled default, mirroring
:data:`repro.obs.events.NULL_BUS`.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.common.errors import (
    InvariantViolationError,
    ReproError,
    SerializabilityError,
    SimulationError,
)
from repro.obs.events import NULL_BUS, EventBus, EventKind

#: Default cadence: check every N quantum boundaries.  Full audits are
#: O(resident state), so every boundary would dominate the run.
DEFAULT_CADENCE = 64

#: Cap on distinct recorded violations in non-halting mode.
MAX_RECORDED = 20


class NullMonitor:
    """Disabled monitor: one attribute load + branch, nothing else."""

    __slots__ = ()

    enabled = False

    def on_quantum(self, executor) -> None:  # pragma: no cover
        raise SimulationError(
            "NULL_MONITOR must never be driven; guard call sites "
            "with `if monitor.enabled:`"
        )


#: The shared disabled monitor every executor defaults to.
NULL_MONITOR = NullMonitor()


class InvariantMonitor:
    """Runs machine and history oracles at a configurable cadence."""

    def __init__(self, cadence: int = DEFAULT_CADENCE,
                 skew_tolerance: Optional[int] = None,
                 halt: bool = False,
                 bus: Optional[EventBus] = None,
                 max_recorded: int = MAX_RECORDED):
        self.enabled = True
        self._cadence = max(1, cadence)
        #: None = the skew the executor's scheduler allows.
        self._skew = skew_tolerance
        self._halt = halt
        self._bus = bus if bus is not None else NULL_BUS
        self._max_recorded = max_recorded
        self._boundary = 0
        self.checks_run = 0
        self.violations: List[Dict[str, object]] = []
        self._seen: set = set()
        self.last_report: Dict[str, object] = {}

    @property
    def ok(self) -> bool:
        return not self.violations

    # ------------------------------------------------------------------

    def on_quantum(self, executor) -> None:
        """Cadence-gated mid-run check (executor hook)."""
        self._boundary += 1
        if self._boundary % self._cadence:
            return
        self._check(executor)

    def finalize(self, executor) -> Dict[str, object]:
        """End-of-run check; returns the ``RunStats.monitor`` summary.

        In halting mode a final violation still raises, so campaigns
        never report a corrupted run as clean.
        """
        self._check(executor)
        return {
            "ok": self.ok,
            "checks_run": self.checks_run,
            "cadence": self._cadence,
            "violations": [dict(v) for v in self.violations],
            "report": dict(self.last_report),
        }

    # ------------------------------------------------------------------

    def _check(self, executor) -> None:
        self.checks_run += 1
        if self._bus.enabled:
            self._bus.emit(EventKind.INVARIANT_CHECK,
                           boundary=self._boundary)
        try:
            self.last_report = executor.htm.check_invariants()
        except ReproError as exc:
            self._violation(executor, "machine", exc)
        history = executor.history
        if history.enabled:
            skew = self._skew if self._skew is not None \
                else executor.max_skew
            try:
                history.check_serializable(skew_tolerance=skew)
            except SerializabilityError as exc:
                self._violation(executor, "serializability", exc)

    def _violation(self, executor, check: str, exc: ReproError) -> None:
        if self._bus.enabled:
            self._bus.emit(EventKind.INVARIANT_VIOLATION,
                           check=check, error=type(exc).__name__,
                           message=str(exc), boundary=self._boundary)
        if self._halt:
            raise InvariantViolationError(
                f"{check} invariant violated at quantum boundary "
                f"{self._boundary}: {exc}"
            ) from exc
        key = (check, type(exc).__name__, str(exc))
        if key in self._seen or len(self.violations) >= self._max_recorded:
            return
        self._seen.add(key)
        self.violations.append({
            "check": check,
            "error": type(exc).__name__,
            "message": str(exc),
            "boundary": self._boundary,
        })
