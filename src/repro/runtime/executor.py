"""Trace-driven multi-threaded executor.

Drives one :class:`~repro.workloads.trace.WorkloadTrace` through an
HTM machine, interleaving threads by a min-clock discrete scheduler:
the thread with the smallest local cycle count runs next, for up to a
small quantum of cycles, so cross-thread interactions happen in
near-global-time order without simulating every core every cycle.

The executor owns all *policy*: timestamp contention management,
dooming losers, stall/retry with escalation, abort back-off, and
transaction restart (re-running the trace region from its BEGIN).
It also aggregates the statistics the paper's figures and tables are
built from.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, replace
from typing import Dict, List, Optional

from repro.common.config import RunConfig
from repro.common.errors import ConfigError, SimulationError
from repro.faults.injector import NULL_INJECTOR
from repro.faults.monitor import NULL_MONITOR
from repro.htm.base import HTM, ConflictInfo, ConflictKind
from repro.obs.events import AbortCause, EventBus, EventKind
from repro.runtime.contention import POLICIES, Resolution
from repro.runtime.history import HistoryValidator
from repro.runtime.stats import RunStats
from repro.workloads.trace import (
    OP_BEGIN,
    OP_COMMIT,
    OP_COMPUTE,
    OP_LOCK,
    OP_NT_READ,
    OP_NT_WRITE,
    OP_READ,
    OP_SIGNAL,
    OP_SYSCALL,
    OP_UNLOCK,
    OP_WAIT,
    OP_WRITE,
    WorkloadTrace,
    validate_trace,
)

#: Scheduler quantum: a thread runs at most this many cycles per turn.
DEFAULT_QUANTUM = 200

#: Cycles a time-shared thread runs before it yields its core.
DEFAULT_TIMESLICE = 50_000

#: Hard cap on retries of one transaction before the run is declared
#: livelocked (a simulator bug; the timestamp policy should converge).
MAX_TXN_ATTEMPTS = 50_000

#: Hardware retries of a stalled request whose conflict hints name no
#: live transaction before it traps to software: one
#: :meth:`~repro.htm.base.HTM.software_conflictors` call, which on
#: TokenTM walks the logs (Section 5.2: "conflicting requests may be
#: retried in hardware").  Machines with exact hints find no one more.
HW_RETRIES = 4

#: Cross-thread wait (OP_WAIT) spin parameters.  A blocked waiter
#: retries with exponentially growing simulated delays so the
#: min-clock scheduler quickly hands the cycles to the threads that
#: can actually signal; on release the waiter's clock rewinds to
#: max(arrival, satisfying signal) so the spin probing never inflates
#: simulated time (schedule-faithful barrier exit = last arrival).
WAIT_SPIN_BASE = 50
WAIT_SPIN_CAP = 20_000
#: Consecutive failed probes of one wait before the run is declared
#: deadlocked (every producer had ~200M cycles to signal by then).
WAIT_SPIN_LIMIT = 10_000
#: Cycles charged for a satisfied wait / an issued signal (futex-ish).
WAIT_RESUME_COST = 10
SIGNAL_COST = 5


class _Thread:
    """Executor-side state of one simulated thread."""

    __slots__ = (
        "tid", "core", "ops", "pc", "clock", "in_txn", "begin_pc",
        "nesting", "doomed", "attempts", "stalls",
        "txn_start", "done", "blocked_lock", "wait_started",
        "wait_spins",
    )

    def __init__(self, tid: int, core: int, ops: List) -> None:
        self.tid = tid
        self.core = core
        self.ops = ops
        self.pc = 0
        self.clock = 0
        self.in_txn = False
        self.begin_pc = -1
        self.nesting = 0
        #: The contention manager killed the live transaction; it
        #: aborts at the thread's next step.  Set only while
        #: ``in_txn``, cleared at commit and abort.
        self.doomed = False
        self.attempts = 0
        self.stalls = 0
        self.txn_start = 0
        self.done = not ops
        self.blocked_lock: Optional[int] = None
        #: Clock at first probe of the currently blocked OP_WAIT
        #: (-1 = not blocked on a wait); the release clock is computed
        #: from this, not from the spin-inflated running clock.
        self.wait_started = -1
        self.wait_spins = 0


@dataclass
class RunResult:
    """Executor output: statistics plus the commit history."""

    stats: RunStats
    history: HistoryValidator


class Executor:
    """Runs a workload trace on an HTM machine."""

    def __init__(self, htm: HTM, trace: WorkloadTrace, config: RunConfig,
                 quantum: int = DEFAULT_QUANTUM,
                 validate: bool = True,
                 track_history: bool = True,
                 timeslice: int = DEFAULT_TIMESLICE,
                 policy: str = "timestamp",
                 bus: Optional[EventBus] = None,
                 injector=None,
                 monitor=None):
        if validate:
            validate_trace(trace)
        ncores = htm.mem.config.num_cores
        #: More threads than cores time-share them.
        self._preemptive = trace.num_threads > ncores
        self._timeslice = timeslice
        self._htm = htm
        self._trace = trace
        self._config = config
        self._quantum = quantum
        #: Event bus: explicit argument, else whatever the machine's
        #: memory system carries (NULL_BUS unless tracing was set up).
        self._bus = bus if bus is not None else htm.bus
        if policy not in POLICIES:
            raise ConfigError(f"unknown contention policy {policy!r}; "
                              f"choose from {sorted(POLICIES)}")
        self._manager = POLICIES[policy](config.htm, seed=config.seed,
                                         bus=self._bus)
        self._threads = [
            _Thread(t.thread_id, core % ncores, t.ops)
            for core, t in enumerate(trace.threads)
        ]
        self._by_tid: Dict[int, _Thread] = {
            t.tid: t for t in self._threads
        }
        self._locks: Dict[int, tuple] = {}
        self._stats = RunStats(workload=trace.name, variant=htm.name)
        # Transaction priorities come from a global begin sequence,
        # not thread-local clocks: under time-sharing, clocks skew by
        # whole timeslices, and skewed stamps starve threads whose
        # clocks run ahead.
        self._begin_seq = 0
        self._history = HistoryValidator(enabled=track_history)
        self._record_history = self._history.enabled
        #: Fault injection & invariant monitoring (repro.faults): the
        #: NULL defaults keep the disabled path at one attribute load
        #: plus branch per quantum boundary, like NULL_BUS.
        self._injector = injector if injector is not None else NULL_INJECTOR
        self._monitor = monitor if monitor is not None else NULL_MONITOR
        #: Cross-thread dependency state (recorded-trace replays):
        #: signal counters and, per signal id, the clock of each
        #: increment so a satisfied wait can release at the exact
        #: simulated time its condition became true.
        self._signals: Dict[int, int] = {}
        self._signal_times: Dict[int, List[int]] = {}
        # Opcode dispatch table: the quantum loop indexes this list
        # instead of walking an if/elif chain.  Every handler takes
        # (thread, arg) and returns None, except _lock and _wait,
        # which return False when the thread blocked and must yield
        # its quantum.  Transactional READ/WRITE never reach the
        # table: the quantum loop handles them itself.
        table = [self._op_unknown] * (OP_WAIT + 1)
        table[OP_BEGIN] = self._begin
        table[OP_COMMIT] = self._commit
        table[OP_NT_READ] = self._nt_read
        table[OP_NT_WRITE] = self._nt_write
        table[OP_COMPUTE] = self._op_compute
        table[OP_LOCK] = self._lock
        table[OP_UNLOCK] = self._unlock
        table[OP_SYSCALL] = self._op_compute
        table[OP_SIGNAL] = self._signal
        table[OP_WAIT] = self._wait
        self._dispatch = table
        #: The quantum loop's per-run invariants: :meth:`run` binds
        #: them once, and each quantum unpacks them.
        self._loop: tuple = ()

    # ------------------------------------------------------------------

    def run(self) -> RunResult:
        """Execute the whole trace; returns stats and commit history."""
        htm = self._htm
        self._loop = (
            self._bus, self._bus.enabled, self._dispatch, htm.read,
            htm.write,
            self._history.access if self._record_history else None,
            self._quantum,
        )
        if self._preemptive:
            self._run_preemptive()
        else:
            self._run_dedicated()
        stats = self._stats
        stats.makespan = max((t.clock for t in self._threads), default=0)
        stats.machine = self._htm.stats.snapshot()
        stats.machine["_threads"] = len(self._threads)
        stats.machine["_trace_ops"] = sum(
            len(t.ops) for t in self._threads
        )
        if self._injector.enabled:
            stats.faults = self._injector.snapshot()
        if self._monitor.enabled:
            stats.monitor = self._monitor.finalize(self)
        self._history.finish()
        return RunResult(stats=stats, history=self._history)

    def _run_dedicated(self) -> None:
        """One thread per core: min-clock quantum interleaving.

        Every thread is scheduled on its core before the first quantum,
        and its core register is cleared, with no switch instruction,
        once it has finished: the thread exited, nothing is
        descheduled.  The registers then name exactly the cores'
        occupants, which an injected preemption or migration acts on.
        Under time-sharing a finished thread keeps its register
        instead, so the next thread placed on that core pays the
        switch.
        """
        faults_on = self._injector.enabled or self._monitor.enabled
        htm = self._htm
        run_quantum = self._run_quantum
        by_tid = self._by_tid
        heappop = heapq.heappop
        heapreplace = heapq.heapreplace
        heap = [(t.clock, t.tid) for t in self._threads if not t.done]
        for _, tid in heap:
            htm.schedule(by_tid[tid].core, tid)
        heapq.heapify(heap)
        while heap:
            # The next thread stays at the heap top while it runs and
            # is then replaced in one sift: (clock, tid) keys are
            # unique, so the order is that of a pop and a push.
            thread = by_tid[heap[0][1]]
            if not thread.done:
                run_quantum(thread)
                if faults_on:
                    self._quantum_boundary(thread)
            if thread.done:
                heappop(heap)
                htm.schedule(thread.core, None)
            else:
                heapreplace(heap, (thread.clock, thread.tid))

    def _run_preemptive(self) -> None:
        """Time-share more threads than cores (OS scheduling model).

        Each dispatch runs a thread for up to a timeslice on the core
        that frees earliest (with affinity for the core whose register
        still names it); placing it on any other core is a
        :meth:`_switch`.
        """
        ncores = self._htm.mem.config.num_cores
        running = self._htm.running
        faults_on = self._injector.enabled or self._monitor.enabled
        core_free = [0] * ncores
        # Min-heap of (free_at, core) so finding the earliest-free core
        # is O(log cores) per dispatch instead of an O(cores) min().
        # Entries go stale when a core's free time advances; they are
        # lazily popped when they surface.  Ties break on the lower
        # core id, exactly like min() over range(ncores).
        free_heap: List[tuple] = [(0, c) for c in range(ncores)]
        run_quantum = self._run_quantum
        heap = [(t.clock, t.tid) for t in self._threads if not t.done]
        heapq.heapify(heap)
        while heap:
            _, tid = heapq.heappop(heap)
            thread = self._by_tid[tid]
            if thread.done:
                continue
            # Affinity: keep the previous core unless another frees
            # strictly earlier (avoids gratuitous switches).
            while free_heap[0][0] != core_free[free_heap[0][1]]:
                heapq.heappop(free_heap)
            best = free_heap[0][1]
            core = thread.core
            if running(core) != tid or core_free[core] > core_free[best]:
                core = best
            start = max(thread.clock, core_free[core])
            if running(core) != tid:
                start = self._switch(thread, core, start)
            thread.clock = start
            deadline = thread.clock + self._timeslice
            while not thread.done and thread.clock < deadline:
                run_quantum(thread)
                if faults_on:
                    self._quantum_boundary(thread)
            core_free[core] = thread.clock
            heapq.heappush(free_heap, (thread.clock, core))
            if not thread.done:
                heapq.heappush(heap, (thread.clock, thread.tid))

    def _switch(self, thread: _Thread, core: int, start: int) -> int:
        """Place ``thread`` on ``core`` at cycle ``start``.

        The one context switch, shared by the time-sharing scheduler
        and injected preemption and migration.  The HTM's switch
        instruction deschedules the thread from ``thread.core`` if that
        core's register still names it, then the target core's
        registered occupant; on TokenTM that is the flash-OR, after
        which a descheduled transaction keeps its tokens but loses fast
        release (Section 4.4).  No thread is ever registered on two
        cores.  Returns the cycle at which the thread resumes, after
        the OS switch latency.
        """
        htm = self._htm
        bus = self._bus
        previous = htm.running(core)
        if htm.running(thread.core) == thread.tid:
            if bus.enabled:
                bus.now = start
            start += htm.context_switch(thread.core)
        if previous is not None and previous != thread.tid:
            if bus.enabled:
                bus.now = start
            start += htm.context_switch(core)
        start += htm.mem.config.latency.os_switch
        htm.schedule(core, thread.tid)
        thread.core = core
        self._stats.preemptions += 1
        if bus.enabled:
            bus.emit(EventKind.CTX_SWITCH, cycle=start, tid=thread.tid,
                     core=core, previous_tid=previous)
        return start

    # ------------------------------------------------------------------

    def _run_quantum(self, thread: _Thread) -> None:
        """Interpret ops until the quantum expires or the thread yields.

        This is the simulator's innermost loop; it is written for the
        CPython interpreter, not for elegance.  The per-run invariants
        (the bus and its enablement, the dispatch table, the machine's
        read/write entry points, the history hook, the quantum) come
        from the tuple :meth:`run` binds, the per-quantum ones (the op
        list and its length, the thread's core and tid) are hoisted
        into locals, the doom check is one slot read, the dominant
        COMPUTE opcode short-circuits before the table, and runs of
        consecutive COMPUTEs retire in an inner
        loop that skips the doom check (nothing can doom this thread
        while only it advances time).  Transactional READ/WRITE run
        here too, with no handler frame; only a refused access leaves
        the frame, for :meth:`_resolve_conflict`.  A thread changes
        core only between quanta, so ``core`` is fixed for this one.
        """
        (bus, bus_enabled, dispatch, htm_read, htm_write, history_access,
         quantum) = self._loop
        op_compute = OP_COMPUTE
        op_read = OP_READ
        op_write = OP_WRITE
        ops = thread.ops
        nops = len(ops)
        core = thread.core
        tid = thread.tid
        # clock and pc live in locals; they sync to the thread object
        # only around handler calls (handlers read and mutate them).
        # COMPUTE — the single most common opcode — never leaves this
        # frame: it touches only locals plus the doom-check read.
        clock = thread.clock
        pc = thread.pc
        deadline = clock + quantum
        while clock < deadline:
            if thread.doomed:
                thread.clock = clock
                thread.pc = pc
                if bus_enabled:
                    bus.now = clock
                self._abort(thread, AbortCause.CM_KILL)
                clock = thread.clock
                pc = thread.pc
                continue
            try:
                opcode, arg = ops[pc]
            except IndexError:  # past the last op: the thread is done
                thread.clock = clock
                thread.pc = pc
                thread.done = True
                return
            if opcode == op_compute:
                # Consume the whole run of consecutive COMPUTE ops in
                # one tight loop: no other thread executes while this
                # one advances its clock, so the doom state checked
                # above cannot change until the next handler call.
                clock += arg
                pc += 1
                while clock < deadline and pc < nops:
                    opcode, arg = ops[pc]
                    if opcode != op_compute:
                        break
                    clock += arg
                    pc += 1
                continue
            if opcode == op_read or opcode == op_write:
                if bus_enabled:
                    bus.now = clock
                is_write = opcode == op_write
                if is_write:
                    outcome = htm_write(core, tid, arg)
                else:
                    outcome = htm_read(core, tid, arg)
                if outcome.granted:
                    if history_access is not None:
                        # Isolation starts at the grant.
                        history_access(tid, arg, is_write, clock)
                    clock += outcome.latency
                    thread.stalls = 0
                    pc += 1
                    continue
                thread.clock = clock + outcome.latency
                thread.pc = pc
                self._resolve_conflict(thread, outcome.conflict)
                clock = thread.clock
                pc = thread.pc
                continue
            thread.clock = clock
            thread.pc = pc
            if bus_enabled:
                # Machine-level emissions (tokens, conflicts,
                # coherence) have no clock of their own: give the bus
                # the running thread's clock as the default stamp.
                bus.now = clock
            if dispatch[opcode](thread, arg) is False:
                return  # blocked on a lock; re-queued with a later clock
            clock = thread.clock
            pc = thread.pc
            if thread.done:
                return
        thread.clock = clock
        thread.pc = pc

    # ------------------------------------------------------------------
    # Fault injection & invariant monitoring (repro.faults)
    # ------------------------------------------------------------------

    @property
    def htm(self) -> HTM:
        """The machine under execution (monitor/injector access)."""
        return self._htm

    @property
    def history(self) -> HistoryValidator:
        """The commit history recorder (serializability oracle input)."""
        return self._history

    @property
    def max_skew(self) -> int:
        """Cycles by which the scheduler lets thread clocks diverge.

        A quantum when each thread has its own core; under
        time-sharing a thread runs up to a timeslice, overshooting by
        at most one quantum, while the others wait.
        """
        if self._preemptive:
            return self._timeslice + self._quantum
        return self._quantum

    def _quantum_boundary(self, thread: _Thread) -> None:
        """Drive the injector and monitor after one thread's quantum.

        Only reached when at least one of them is enabled; the
        scheduling loops hoist that check into a local so the default
        path pays a single branch per quantum.
        """
        if self._bus.enabled:
            self._bus.now = thread.clock
        if self._injector.enabled:
            self._injector.on_quantum(self, thread)
        if self._monitor.enabled:
            self._monitor.on_quantum(self)

    def fault_preempt(self, thread: _Thread) -> bool:
        """Injected forced preemption: deschedule + immediately resume."""
        thread.clock = self._switch(thread, thread.core, thread.clock)
        return True

    def fault_migrate(self, thread: _Thread, rng) -> bool:
        """Injected migration to a free core (dedicated mode).

        Under the preemptive scheduler cores are reassigned at every
        dispatch, so migration degenerates to a forced preemption and
        the natural machinery does the rest.  In dedicated mode the
        thread moves to an rng-chosen core no unfinished thread runs
        on (falling back to preemption when none is free).
        """
        target = thread.core
        if not self._preemptive:
            occupied = {t.core for t in self._threads if not t.done}
            free = [c for c in range(self._htm.mem.config.num_cores)
                    if c not in occupied]
            if free:
                target = free[rng.randrange(len(free))]
        thread.clock = self._switch(thread, target, thread.clock)
        return True

    def fault_spurious_abort(self, rng) -> bool:
        """Injected contention-manager kill of a random live txn.

        The victim is doomed exactly like a lost conflict: it aborts
        (cause CM_KILL) at its next step, undoing its writes and
        releasing its tokens through the ordinary abort path.
        """
        candidates = [t for t in self._threads
                      if t.in_txn and not t.done
                      and not t.doomed]
        if not candidates:
            return False
        victim = candidates[rng.randrange(len(candidates))]
        victim.doomed = True
        return True

    def fault_spurious_nack(self, thread: _Thread) -> bool:
        """Injected transient NACK: a short stall, properly accounted."""
        delay = self._manager.spurious_nack_delay()
        thread.clock += delay
        self._stats.stall_events += 1
        self._stats.stall_cycles += delay
        return True

    def _op_compute(self, thread: _Thread, cycles: int) -> None:
        """COMPUTE/SYSCALL: advance the local clock (table fallback)."""
        thread.clock += cycles
        thread.pc += 1

    def _op_unknown(self, thread: _Thread, arg: int) -> None:
        # pragma-free guard: validate_trace prevents this for any
        # trace that went through the public entry points.
        raise SimulationError(
            f"unknown opcode in thread {thread.tid} at pc {thread.pc}"
        )

    # -- transactions -----------------------------------------------------

    def _begin(self, thread: _Thread, _arg: int = 0) -> None:
        if thread.in_txn:
            # Flat (closed) nesting: an inner BEGIN is subsumed by
            # the enclosing transaction; only a counter moves.
            thread.nesting += 1
            thread.clock += 1
            thread.pc += 1
            return
        thread.clock += self._htm.begin(thread.core, thread.tid)
        thread.in_txn = True
        thread.nesting = 1
        thread.begin_pc = thread.pc
        thread.txn_start = thread.clock
        thread.stalls = 0
        self._begin_seq += 1
        self._manager.transaction_started(thread.tid, self._begin_seq)
        self._history.begin(thread.tid, thread.clock)
        if self._bus.enabled:
            self._bus.emit(EventKind.TXN_BEGIN, cycle=thread.clock,
                           tid=thread.tid, core=thread.core,
                           attempt=thread.attempts + 1)
        thread.pc += 1

    def _commit(self, thread: _Thread, _arg: int = 0) -> None:
        if thread.nesting > 1:
            # Closing an inner flat-nested transaction: no machine
            # action until the outermost commit.
            thread.nesting -= 1
            thread.clock += 1
            thread.pc += 1
            return
        tid, core = thread.tid, thread.core
        read_set = self._htm.read_set_size(tid)
        write_set = self._htm.write_set_size(tid)
        # Isolation ends when the machine releases (at the start of
        # commit processing); the history records that point, not the
        # latency-charged completion, so the serializability oracle
        # is not confused by commit-latency clock skew.
        release_point = thread.clock
        outcome = self._htm.commit(core, tid)
        thread.clock += outcome.latency
        thread.in_txn = False
        thread.nesting = 0
        thread.attempts = 0
        thread.doomed = False
        self._manager.transaction_finished(tid)
        self._stats.record_commit(
            outcome.used_fast_release, read_set, write_set,
            thread.clock - thread.txn_start,
            outcome.software_release_cycles,
        )
        self._history.commit(tid, release_point)
        if self._bus.enabled:
            self._bus.emit(
                EventKind.TXN_COMMIT, cycle=thread.clock, tid=tid,
                core=core, fast=outcome.used_fast_release,
                read_set=read_set, write_set=write_set,
                duration=thread.clock - thread.txn_start,
                release_cycles=outcome.software_release_cycles,
            )
        thread.pc += 1

    def _abort(self, thread: _Thread,
               cause: AbortCause = AbortCause.CONFLICT) -> None:
        outcome = self._htm.abort(thread.core, thread.tid)
        thread.clock += outcome.latency
        thread.in_txn = False
        thread.nesting = 0  # flat nesting: abort unrolls to outermost
        thread.doomed = False
        thread.attempts += 1
        if thread.attempts > MAX_TXN_ATTEMPTS:
            raise SimulationError(
                f"thread {thread.tid} retried a transaction "
                f"{thread.attempts} times; livelock"
            )
        self._manager.transaction_aborted(thread.tid)
        self._stats.record_abort(cause.value)
        backoff = self._manager.backoff_delay(thread.attempts)
        thread.clock += backoff
        self._stats.backoff_cycles += backoff
        self._history.abort(thread.tid, thread.clock)
        if self._bus.enabled:
            self._bus.emit(EventKind.TXN_ABORT, cycle=thread.clock,
                           tid=thread.tid, core=thread.core,
                           cause=cause.value, attempt=thread.attempts,
                           backoff=backoff)
        thread.pc = thread.begin_pc

    def _resolve_conflict(self, thread: _Thread, info: ConflictInfo) -> None:
        decision = self._manager.resolve(
            thread.tid, info, self._htm.active_tids()
        )
        if (decision.resolution is Resolution.STALL_AND_RETRY
                and not decision.victims
                and info.kind is not ConflictKind.SERIALIZATION
                and thread.stalls >= HW_RETRIES):
            # The hints name no live transaction (token identity
            # labels can go stale once fission/fusion anonymizes
            # counts), yet the conflict persists: trap to the software
            # contention manager, which walks the logs for the true
            # holders (Section 5.2's hardest case).
            holders = self._htm.software_conflictors(thread.tid, info.block)
            if holders:
                info = replace(info, hints=holders)
                decision = self._manager.resolve(
                    thread.tid, info, self._htm.active_tids()
                )
        if decision.resolution is Resolution.ABORT_SELF:
            self._abort(thread, AbortCause.CONFLICT)
            return
        winning = self._doom(decision.victims)
        thread.stalls += 1
        exempt = (winning
                  or info.kind is ConflictKind.SERIALIZATION)
        if not exempt and thread.stalls > self._config.htm.max_stall_retries:
            self._abort(thread, AbortCause.STALL_LIMIT)
            return
        delay = self._manager.stall_delay(thread.stalls, winning=winning)
        thread.clock += delay
        self._stats.stall_events += 1
        self._stats.stall_cycles += delay
        if self._bus.enabled:
            self._bus.emit(EventKind.TXN_STALL, cycle=thread.clock,
                           tid=thread.tid, core=thread.core,
                           block=info.block, delay=delay, winning=winning,
                           victims=list(decision.victims))

    def _doom(self, victims) -> bool:
        """Doom every victim still in a transaction; True if any was."""
        doomed = False
        for victim_tid in victims:
            victim = self._by_tid.get(victim_tid)
            if victim is not None and victim.in_txn:
                victim.doomed = True
                doomed = True
        return doomed

    def _nt_read(self, thread: _Thread, block: int) -> None:
        self._nontxn_access(thread, block, is_write=False)

    def _nt_write(self, thread: _Thread, block: int) -> None:
        self._nontxn_access(thread, block, is_write=True)

    def _nontxn_access(self, thread: _Thread, block: int,
                       is_write: bool) -> None:
        tid, core = thread.tid, thread.core
        if is_write:
            outcome = self._htm.nontxn_write(core, tid, block)
        else:
            outcome = self._htm.nontxn_read(core, tid, block)
        thread.clock += outcome.latency
        if outcome.granted:
            thread.pc += 1
            return
        decision = self._manager.resolve(None, outcome.conflict,
                                         self._htm.active_tids())
        self._doom(decision.victims)
        delay = self._manager.stall_delay(1)
        thread.clock += delay
        self._stats.stall_cycles += delay

    # -- locks (for lock-based workloads) ----------------------------------

    def _lock(self, thread: _Thread, lock_id: int) -> bool:
        """Acquire a lock in *simulated* time.

        Lock state is (owner, free_from): because a thread may run a
        whole quantum ahead, a release can be recorded at a simulated
        time later than another thread's current clock — that thread
        must spin forward to ``free_from`` before acquiring.
        """
        owner, free_from = self._locks.get(lock_id, (None, 0))
        if owner is not None:
            # Spin: retry after a delay; the scheduler runs the owner.
            thread.blocked_lock = lock_id
            thread.clock += 50
            return False
        if thread.clock < free_from:
            thread.clock = free_from  # spun until the release
        self._locks[lock_id] = (thread.tid, free_from)
        thread.clock += 10  # atomic RMW cost
        thread.blocked_lock = None
        thread.pc += 1
        return True

    def _unlock(self, thread: _Thread, lock_id: int) -> None:
        owner, _ = self._locks.get(lock_id, (None, 0))
        if owner != thread.tid:
            raise SimulationError(
                f"thread {thread.tid} unlocking lock {lock_id} it "
                "does not hold"
            )
        thread.clock += 5
        self._locks[lock_id] = (None, thread.clock)
        thread.pc += 1

    # -- cross-thread dependencies (recorded-trace replays) ----------------

    def _signal(self, thread: _Thread, signal_id: int) -> None:
        """SIGNAL: increment a named counter at the thread's clock.

        Signal times are recorded so a later WAIT can release at the
        exact simulated time its condition became true, independent
        of how long the waiter spun probing for it.
        """
        thread.clock += SIGNAL_COST
        self._signals[signal_id] = self._signals.get(signal_id, 0) + 1
        times = self._signal_times.get(signal_id)
        if times is None:
            times = self._signal_times[signal_id] = []
        times.append(thread.clock)
        thread.pc += 1
        if self._bus.enabled:
            self._bus.emit(EventKind.THREAD_SIGNAL, cycle=thread.clock,
                           tid=thread.tid, core=thread.core,
                           signal=signal_id,
                           count=self._signals[signal_id])

    def _wait(self, thread: _Thread, wait_id: int) -> Optional[bool]:
        """WAIT: block until the named signal counter reaches its target.

        Satisfied waits release at ``max(arrival, satisfying signal)``
        — the clock the dependency semantics dictate — regardless of
        the spin-probe delays that accumulated while blocked, which
        exist only to let the min-clock scheduler run the producers.
        Returns False while blocked (yields the quantum).
        """
        signal_id, target = self._trace.waits[wait_id]
        times = self._signal_times.get(signal_id)
        if times is not None and len(times) >= target:
            arrival = thread.wait_started if thread.wait_started >= 0 \
                else thread.clock
            released = max(arrival, times[target - 1]) + WAIT_RESUME_COST
            if self._bus.enabled:
                self._bus.emit(EventKind.THREAD_WAIT, cycle=released,
                               tid=thread.tid, core=thread.core,
                               signal=signal_id, target=target,
                               waited=max(0, released - arrival))
            thread.clock = released
            thread.wait_started = -1
            thread.wait_spins = 0
            thread.pc += 1
            return None
        if thread.wait_started < 0:
            thread.wait_started = thread.clock
            thread.wait_spins = 0
        thread.wait_spins += 1
        if thread.wait_spins > WAIT_SPIN_LIMIT:
            have = self._signals.get(signal_id, 0)
            raise SimulationError(
                f"deadlock: thread {thread.tid} waited on signal "
                f"{signal_id} ({have}/{target} signalled) for "
                f"{thread.wait_spins} probes with no producer progress"
            )
        thread.clock += min(
            WAIT_SPIN_BASE << min(thread.wait_spins - 1, 9),
            WAIT_SPIN_CAP,
        )
        return False


def run_workload(htm: HTM, trace: WorkloadTrace,
                 config: Optional[RunConfig] = None,
                 **kwargs) -> RunResult:
    """One-call convenience wrapper around :class:`Executor`."""
    cfg = config or RunConfig()
    return Executor(htm, trace, cfg, **kwargs).run()
