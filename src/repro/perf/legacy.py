"""The pre-optimization interpreter loop, kept as a benchmark baseline.

:class:`LegacyExecutor` overrides the executor's quantum loop with a
faithful copy of the original implementation: an ``if``/``elif``
opcode chain, a property-based doom check, per-operation bus and
bounds lookups, and an unconditional history call on every access.
``repro bench`` runs the same trace through both loops and reports
the ops/sec ratio, so the interpreter speedup is measured against the
real former code rather than a synthetic strawman.

The same role is played for the memory system by
:func:`unfiltered_memory_system`: a machine with the PR's access
filters disabled, which ``repro bench``'s memory-stack
microbenchmark times against the filtered default (and whose
statistics the filtered run must match exactly) — and for the faults
subsystem by :class:`PreFaultsExecutor`: the scheduling loop exactly
as it was before quantum-boundary fault hooks existed, which the
``faultbench`` section times against the shipped NULL-injector path
to prove the disabled subsystem costs nothing.

Because it is written independently of ``Executor._run_quantum``,
:class:`LegacyExecutor` is also the reference that tests hold the
executor's hot loop to (identical statistics).  Nothing outside the
benchmark harness and those tests should use this module.
"""

from __future__ import annotations

import heapq
from typing import Optional

from repro.common.config import SystemConfig
from repro.common.errors import SimulationError
from repro.coherence.protocol import MemorySystem
from repro.obs.events import AbortCause
from repro.runtime.executor import Executor, _Thread
from repro.workloads.trace import (
    OP_BEGIN,
    OP_COMMIT,
    OP_COMPUTE,
    OP_LOCK,
    OP_NT_READ,
    OP_NT_WRITE,
    OP_READ,
    OP_SYSCALL,
    OP_UNLOCK,
    OP_WRITE,
)


class LegacyExecutor(Executor):
    """Executor with the original (pre-dispatch-table) hot loop."""

    def _run_quantum(self, thread: _Thread) -> None:
        deadline = thread.clock + self._quantum
        bus = self._bus
        while not thread.done and thread.clock < deadline:
            if bus.enabled:
                bus.now = thread.clock
            if thread.doomed:
                self._abort(thread, AbortCause.CM_KILL)
                continue
            if thread.pc >= len(thread.ops):
                thread.done = True
                return
            opcode, arg = thread.ops[thread.pc]
            if opcode == OP_COMPUTE or opcode == OP_SYSCALL:
                thread.clock += arg
                thread.pc += 1
            elif opcode == OP_READ:
                self._legacy_txn_access(thread, arg, is_write=False)
            elif opcode == OP_WRITE:
                self._legacy_txn_access(thread, arg, is_write=True)
            elif opcode == OP_BEGIN:
                self._begin(thread)
            elif opcode == OP_COMMIT:
                self._commit(thread)
            elif opcode == OP_NT_READ:
                self._nontxn_access(thread, arg, is_write=False)
            elif opcode == OP_NT_WRITE:
                self._nontxn_access(thread, arg, is_write=True)
            elif opcode == OP_LOCK:
                if not self._lock(thread, arg):
                    return  # blocked; re-queued with a later clock
            elif opcode == OP_UNLOCK:
                self._unlock(thread, arg)
            else:  # pragma: no cover - validate_trace prevents this
                raise SimulationError(f"unknown opcode {opcode}")

    def _legacy_txn_access(self, thread: _Thread, block: int,
                           is_write: bool) -> None:
        tid, core = thread.tid, thread.core
        grant_point = thread.clock  # isolation starts at the grant
        if is_write:
            outcome = self._htm.write(core, tid, block)
        else:
            outcome = self._htm.read(core, tid, block)
        thread.clock += outcome.latency
        if outcome.granted:
            thread.stalls = 0
            self._history.access(tid, block, is_write, grant_point)
            thread.pc += 1
            return
        self._resolve_conflict(thread, outcome.conflict)


class PreFaultsExecutor(Executor):
    """Executor with the pre-faults dedicated scheduling loop.

    A faithful copy of ``_run_dedicated`` from before the faults
    subsystem added its quantum-boundary hook: no ``faults_on``
    hoist, no boundary call.  The ``faultbench`` section runs the
    same trace through this and the shipped executor (whose injector
    and monitor are the NULL defaults) — the ratio is the true cost
    of the disabled faults path.  Dedicated mode only; the benchmark
    trace never time-shares.
    """

    def _run_dedicated(self) -> None:
        heap = [(t.clock, t.tid) for t in self._threads if not t.done]
        heapq.heapify(heap)
        while heap:
            _, tid = heapq.heappop(heap)
            thread = self._by_tid[tid]
            if thread.done:
                continue
            self._run_quantum(thread)
            if not thread.done:
                heapq.heappush(heap, (thread.clock, thread.tid))


def unfiltered_memory_system(
        config: Optional[SystemConfig] = None, **kwargs) -> MemorySystem:
    """A memory system with the access fast path disabled.

    This is the pre-filter baseline for the memory-stack
    microbenchmark: every access walks the full protocol path
    (lookup, hit/miss classification, result allocation).  Simulated
    outcomes are identical to the filtered default — only the wall
    clock differs.
    """
    return MemorySystem(config or SystemConfig(), fast_path=False, **kwargs)
