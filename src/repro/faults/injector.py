"""Deterministic fault injector driven by a :class:`FaultPlan`.

The executor calls :meth:`FaultInjector.on_quantum` at every quantum
boundary (after a thread's quantum retires, before it is re-queued).
The injector numbers boundaries globally, evaluates every spec's
trigger in plan order, and applies fired faults against the executor
and its machine.  All randomness comes from one
:func:`repro.common.rng.substream` lane derived from ``(seed, plan
content hash)``, so a failing campaign replays byte-identically.

:data:`NULL_INJECTOR` follows the NULL_BUS idiom: it is the
always-attached disabled default, and the only cost it imposes on a
run is one attribute load and branch per quantum boundary.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.common.errors import SimulationError
from repro.common.rng import substream
from repro.core.tmlog import LOG_REGION_BASE_BLOCK
from repro.faults.plan import FaultPlan, FaultSpec
from repro.htm.tokentm import TokenTM
from repro.obs.events import NULL_BUS, EventBus, EventKind
from repro.syssupport.paging import PageManager, page_of

#: Integer RNG lane tag for fault-injection substreams (arbitrary
#: constant; distinct from every other subsystem's lane).
FAULT_RNG_LANE = 0xFA17


class NullInjector:
    """Disabled injector: one attribute load + branch, nothing else."""

    __slots__ = ()

    enabled = False

    def on_quantum(self, executor, thread) -> None:  # pragma: no cover
        raise SimulationError(
            "NULL_INJECTOR must never be driven; guard call sites "
            "with `if injector.enabled:`"
        )

    def snapshot(self) -> Dict[str, object]:
        return {"enabled": False, "injected": {}, "skipped": {}}


#: The shared disabled injector every executor defaults to.
NULL_INJECTOR = NullInjector()


class FaultInjector:
    """Applies a fault plan at executor quantum boundaries."""

    def __init__(self, plan: FaultPlan, seed: int = 0,
                 bus: Optional[EventBus] = None):
        self._plan = plan
        self.enabled = bool(plan.specs)
        self._rng = substream(seed, FAULT_RNG_LANE, plan.rng_lane())
        self._bus = bus if bus is not None else NULL_BUS
        #: Fired-and-applied counts per fault kind.
        self.injected: Dict[str, int] = {}
        #: Fired-but-inapplicable counts (e.g. page_remap on a
        #: non-TokenTM machine, spurious_abort with no live txn).
        self.skipped: Dict[str, int] = {}
        self._boundary = 0
        self._pager: Optional[PageManager] = None

    @property
    def plan(self) -> FaultPlan:
        return self._plan

    @property
    def boundaries(self) -> int:
        """Quantum boundaries observed so far."""
        return self._boundary

    def snapshot(self) -> Dict[str, object]:
        """JSON-ready summary (for RunStats / repro bundles)."""
        return {
            "plan": self._plan.name or self._plan.content_hash(),
            "boundaries": self._boundary,
            "injected": dict(sorted(self.injected.items())),
            "skipped": dict(sorted(self.skipped.items())),
        }

    # ------------------------------------------------------------------

    def on_quantum(self, executor, thread) -> None:
        """Evaluate every spec at one quantum boundary of ``thread``.

        Probabilistic draws happen for every prob-spec at every
        boundary, in plan order, regardless of what fires — the RNG
        stream position depends only on (boundary count, plan), which
        is what makes replays exact.
        """
        boundary = self._boundary
        self._boundary = boundary + 1
        rng = self._rng
        for spec in self._plan.specs:
            if spec.at is not None:
                fired = spec.at == boundary
            elif spec.every is not None:
                fired = boundary > 0 and boundary % spec.every == 0
            else:
                fired = rng.random() < spec.prob
            if not fired:
                continue
            if spec.tid is not None and spec.tid != thread.tid:
                continue
            applied = self._apply(spec, executor, thread)
            bucket = self.injected if applied else self.skipped
            bucket[spec.kind] = bucket.get(spec.kind, 0) + 1
            if self._bus.enabled:
                self._bus.emit(EventKind.FAULT_INJECT, cycle=thread.clock,
                               tid=thread.tid, core=thread.core,
                               fault=spec.kind, boundary=boundary,
                               applied=applied)

    # ------------------------------------------------------------------

    def _apply(self, spec: FaultSpec, executor, thread) -> bool:
        kind = spec.kind
        if kind == "preempt":
            return executor.fault_preempt(thread)
        if kind == "migrate":
            return executor.fault_migrate(thread, self._rng)
        if kind == "spurious_abort":
            return executor.fault_spurious_abort(self._rng)
        if kind == "spurious_nack":
            return executor.fault_spurious_nack(thread)
        if kind == "latency_jitter":
            executor.htm.mem.topology.apply_jitter(
                self._rng, spec.param("amplitude")
            )
            return True
        if kind == "way_mask":
            executor.htm.mem.mask_ways(thread.core, spec.param("ways"))
            return True
        if kind == "page_remap":
            return self._page_remap(spec, executor, thread)
        raise SimulationError(f"unhandled fault kind {kind!r}")

    def _page_remap(self, spec: FaultSpec, executor, thread) -> bool:
        """Page a transactionally-held data page out and back in.

        The round trip force-evicts every cached copy (fusing
        metastate shards home), detaches the home metabits into a
        swap image, and restores them — the paper's Section 5.3
        paging path.  Only meaningful on TokenTM; other variants (and
        boundaries with no live transactional data) count as skipped.
        """
        htm = executor.htm
        if not isinstance(htm, TokenTM):
            return False
        candidates = sorted({
            block
            for txn in htm._txns.values()
            for block in txn.read_set | txn.write_set
            if block < LOG_REGION_BASE_BLOCK
        })
        if not candidates:
            return False
        block = candidates[self._rng.randrange(len(candidates))]
        page = page_of(block)
        if self._pager is None:
            self._pager = PageManager(htm)
        if page in self._pager.swapped_pages:  # pragma: no cover - guard
            return False
        self._pager.page_out(page)
        self._pager.page_in(page)
        thread.clock += spec.param("cycles")
        return True
