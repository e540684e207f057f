"""Conflicts take one path: counted and traced at one site in ``HTM``.

Every machine hands :meth:`HTM._conflict` a finished conflictor list,
which counts the conflict and emits its CONFLICT or NACK event; the
executor's hardware-retry trap is one
:meth:`HTM.software_conflictors` call.
"""

from __future__ import annotations

import pytest

from repro.common.config import HTMConfig, RunConfig
from repro.coherence.protocol import MemorySystem
from repro.htm import make_htm
from repro.htm.base import ConflictInfo, ConflictKind
from repro.obs.events import EventBus, EventKind
from repro.perf.runner import CellSpec, simulate_cell
from repro.runtime.executor import HW_RETRIES, Executor
from repro.workloads import tm_workloads
from repro.workloads.trace import (
    ThreadTrace,
    WorkloadTrace,
    begin,
    commit,
    read,
)
from tests.conftest import SMALL_T, small_system

VARIANTS = ("TokenTM", "TokenTM_NoFast", "LogTM-SE_2xH3", "LogTM-SE_4xH3",
            "LogTM-SE_Perf", "OneTM")

B = 0xC000


class _ConflictTally:
    """Sink counting the conflict events the machine counts."""

    def __init__(self):
        self.conflicts = 0
        self.false_positives = 0

    def accept(self, event) -> None:
        if event.kind not in (EventKind.CONFLICT, EventKind.NACK):
            return
        if event.attrs["conflict_kind"] == "serialization":
            return
        self.conflicts += 1
        if event.kind is EventKind.NACK and event.attrs["false_positive"]:
            self.false_positives += 1


@pytest.mark.parametrize("variant", VARIANTS)
def test_every_counted_conflict_is_traced_once(variant):
    spec = CellSpec(tm_workloads()["Vacation-High"].spec, variant,
                    seed=2008, scale=0.005)
    bus = EventBus()
    tally = _ConflictTally()
    bus.attach(tally)
    cell, _ = simulate_cell(spec, bus=bus)
    machine = cell.stats.machine
    assert machine["conflicts"] > 0, "expected contention at this scale"
    assert tally.conflicts == machine["conflicts"]
    assert tally.false_positives == machine["false_positive_conflicts"]


class TestHardwareRetryTrap:
    """Section 5.2: a stall on hints that name no live transaction
    retries in hardware, then traps to the software log walk."""

    def _setup(self, variant):
        htm = make_htm(variant, MemorySystem(small_system()),
                       HTMConfig(tokens_per_block=SMALL_T))
        trace = WorkloadTrace("trap", [
            ThreadTrace(t, [begin(), read(B), commit()]) for t in range(2)
        ])
        executor = Executor(htm, trace,
                            RunConfig(htm=HTMConfig(tokens_per_block=SMALL_T)))
        holder, requester = executor._by_tid[0], executor._by_tid[1]
        # Thread 0 holds B in a live transaction; thread 1 is older.
        htm.begin(holder.core, 0)
        assert htm.read(holder.core, 0, B).granted
        htm.begin(requester.core, 1)
        holder.in_txn = requester.in_txn = True
        executor._manager.transaction_started(1, 1)
        executor._manager.transaction_started(0, 2)
        resolved = []
        resolve = executor._manager.resolve

        def recording(tid, info, live):
            resolved.append(info)
            return resolve(tid, info, live)

        executor._manager.resolve = recording
        return htm, executor, holder, requester, resolved

    def test_tokentm_walks_the_logs_after_hw_retries(self):
        htm, executor, holder, requester, resolved = self._setup("TokenTM")
        stale = ConflictInfo(B, ConflictKind.READERS, hints=(),
                             false_positive=True)
        for attempt in range(HW_RETRIES):
            executor._resolve_conflict(requester, stale)
            assert requester.stalls == attempt + 1
            assert not holder.doomed
        assert htm.stats.log_walk_resolutions == 0
        executor._resolve_conflict(requester, stale)
        assert holder.doomed
        assert htm.stats.log_walk_resolutions == 1
        # The trap re-resolved once, on the walk's holders, keeping
        # everything else the machine said about the conflict.
        assert len(resolved) == HW_RETRIES + 2
        assert resolved[-1].hints == (0,)
        assert resolved[-1].false_positive
        assert resolved[-1].block == B

    @pytest.mark.parametrize("variant", ["LogTM-SE_Perf", "OneTM"])
    def test_exact_hints_do_not_re_resolve(self, variant):
        htm, executor, holder, requester, resolved = self._setup(variant)
        stale = ConflictInfo(B, ConflictKind.READERS, hints=())
        for _ in range(HW_RETRIES + 1):
            executor._resolve_conflict(requester, stale)
        assert len(resolved) == HW_RETRIES + 1
        assert requester.stalls == HW_RETRIES + 1
        assert not holder.doomed
        assert htm.stats.log_walk_resolutions == 0
