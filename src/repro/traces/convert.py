"""Lower trace events onto the internal opcode stream.

The converter turns a parsed event stream (:mod:`repro.traces.events`)
into a runnable :class:`~repro.workloads.trace.WorkloadTrace`:

* **Computation** lowers to ``OP_COMPUTE`` (``iops * IOP_COST +
  flops * FLOP_COST`` cycles; zero-work events emit no compute op)
  followed by the event's memory accesses.
* **Addresses** fold to 64-byte blocks (``addr >> block_shift``, every
  block an access's byte span touches) and then pass through a
  deterministic *remap policy* — see :class:`ConvertOptions.remap` —
  so arbitrary recorded address spaces land in the simulator's shared
  region without collisions against its private/log regions.
* **Mutexes** stay ``OP_LOCK``/``OP_UNLOCK``, or — under the
  *transactify* pass — become ``OP_BEGIN``/``OP_COMMIT`` regions
  whose accesses are transactional, which is what lets recorded
  lock-based traces exercise TokenTM vs LogTM-SE vs OneTM.
* **Dependencies** (thread create/join, barriers, condition
  variables, communication edges) lower to ``OP_SIGNAL``/``OP_WAIT``
  pairs over the trace's wait-condition table, which the executor
  enforces at replay time — replay is deterministic and
  schedule-faithful regardless of simulated timing.

Lowering dependencies needs facts a single streaming pass cannot
know — how many threads participate in barrier episode *k*, and
which producer events communication edges name — so conversion
streams the trace **twice** (a "link" pass collecting dependency
facts, then an "emit" pass producing ops).  Both passes are
streaming; only the per-thread op lists (the output) and the small
dependency tables are held in memory.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple, Union

from repro.common.config import BLOCK_SHIFT
from repro.common.errors import ConfigError, TraceError
from repro.traces.events import (
    Access,
    CommEvent,
    ComputeEvent,
    PthreadEvent,
    PTH_BARRIER,
    PTH_COND_SIGNAL,
    PTH_COND_WAIT,
    PTH_CREATE,
    PTH_JOIN,
    PTH_MUTEX_LOCK,
    PTH_MUTEX_UNLOCK,
    PTH_SYSCALL,
    TraceEvent,
    parse_events,
)
from repro.workloads.base import SHARED_REGION_BASE
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
    Op,
    ThreadTrace,
    WorkloadTrace,
    validate_trace,
)

#: Valid address remap policies (:class:`ConvertOptions.remap`).
REMAP_POLICIES = ("dense", "mod", "none")

#: Modulus of the ``mod`` remap policy, in blocks.
REMAP_SPACE = 1 << 18

#: Cycles per integer / floating-point operation of a computation event.
IOP_COST = 1
FLOP_COST = 2


@dataclass(frozen=True)
class ConvertOptions:
    """Deterministic conversion parameters.

    These are part of a trace workload's *identity*: the perf cache
    keys on them (via :class:`~repro.traces.workload.TraceWorkloadSpec`)
    because changing any one changes the opcode stream.

    ``remap`` policies map folded block numbers into simulator space:

    * ``dense`` (default) — first-seen blocks get consecutive indices
      from :data:`~repro.workloads.base.SHARED_REGION_BASE`; compact
      and collision-free, deterministic because the emit pass visits
      threads in sorted order.
    * ``mod`` — ``base + block % REMAP_SPACE``; order-independent but
      may alias distinct blocks.
    * ``none`` — raw folded block numbers (for traces whose addresses
      are already simulator blocks, e.g. recorded workloads).
    """

    #: log2 of the fold granularity; 6 matches the 64-byte blocks the
    #: paper's read/write sets are counted in.
    block_shift: int = BLOCK_SHIFT
    remap: str = "dense"
    #: Rewrite mutex critical sections into transactions.
    transactify: bool = False

    def __post_init__(self) -> None:
        if self.remap not in REMAP_POLICIES:
            raise ConfigError(
                f"unknown remap policy {self.remap!r} "
                f"(choose from {', '.join(REMAP_POLICIES)})")
        if self.block_shift < 0:
            raise ConfigError("block_shift must be non-negative")


class _Remapper:
    """Applies one remap policy; ``dense`` interns first-seen blocks."""

    __slots__ = ("policy", "_dense")

    def __init__(self, options: ConvertOptions):
        self.policy = options.remap
        self._dense: Dict[int, int] = {}

    def map(self, block: int) -> int:
        if self.policy == "none":
            return block
        if self.policy == "mod":
            return SHARED_REGION_BASE + block % REMAP_SPACE
        index = self._dense.get(block)
        if index is None:
            index = self._dense[block] = len(self._dense)
        return SHARED_REGION_BASE + index


def _blocks(access: Access, shift: int) -> Iterator[int]:
    """Every block an (addr, size) byte span touches, in order."""
    first = access[0] >> shift
    last = (access[0] + access[1] - 1) >> shift
    return iter(range(first, last + 1))


@dataclass
class _LinkTable:
    """Dependency facts gathered by the link pass.

    ``barrier_hits`` counts, per (barrier id, thread), how many times
    the thread reaches the barrier: episode *k*'s participant count is
    the number of threads with at least *k* hits.  ``comm_producers``
    is the set of (ptid, peid) events some consumer waits on.
    ``created``/``joined`` record create/join edges;
    ``cond_signals``/``cond_waits`` count condvar traffic so the
    converter can reject traces that would deadlock at replay.
    """

    tids: List[int] = field(default_factory=list)
    barrier_hits: Dict[int, Dict[int, int]] = field(default_factory=dict)
    comm_producers: Set[Tuple[int, int]] = field(default_factory=set)
    created: Dict[int, int] = field(default_factory=dict)   # child -> creator
    joined: Dict[int, List[int]] = field(default_factory=dict)
    cond_signals: Dict[int, int] = field(default_factory=dict)
    cond_waits: Dict[int, int] = field(default_factory=dict)

    def barrier_episodes(self, bid: int) -> List[int]:
        """Participant count of each episode of barrier ``bid``."""
        hits = self.barrier_hits[bid]
        episodes = []
        for k in range(1, max(hits.values()) + 1):
            episodes.append(sum(1 for n in hits.values() if n >= k))
        return episodes


def _link_pass(events: Iterable[TraceEvent]) -> _LinkTable:
    table = _LinkTable()
    seen: Set[int] = set()
    for event in events:
        if event.tid not in seen:
            seen.add(event.tid)
            table.tids.append(event.tid)
        if isinstance(event, CommEvent):
            for ptid, peid, _ in event.sources:
                table.comm_producers.add((ptid, peid))
        elif isinstance(event, PthreadEvent):
            if event.ptype == PTH_BARRIER:
                hits = table.barrier_hits.setdefault(event.arg, {})
                hits[event.tid] = hits.get(event.tid, 0) + 1
            elif event.ptype == PTH_CREATE:
                if event.arg in table.created:
                    raise TraceError(
                        f"thread {event.arg} created twice")
                table.created[event.arg] = event.tid
            elif event.ptype == PTH_JOIN:
                table.joined.setdefault(event.arg, []).append(event.tid)
            elif event.ptype == PTH_COND_SIGNAL:
                table.cond_signals[event.arg] = \
                    table.cond_signals.get(event.arg, 0) + 1
            elif event.ptype == PTH_COND_WAIT:
                table.cond_waits[event.arg] = \
                    table.cond_waits.get(event.arg, 0) + 1
    table.tids.sort()
    for cond, waits in table.cond_waits.items():
        if table.cond_signals.get(cond, 0) < waits:
            raise TraceError(
                f"condition {cond}: {waits} waits but only "
                f"{table.cond_signals.get(cond, 0)} signals — replay "
                f"would deadlock")
    return table


class _Lowerer:
    """The emit pass: turns one event stream into per-thread ops."""

    def __init__(self, options: ConvertOptions, link: _LinkTable):
        self.options = options
        self.link = link
        self.remapper = _Remapper(options)
        self.ops: Dict[int, List[Op]] = {tid: [] for tid in link.tids}
        self.waits: Dict[int, Tuple[int, int]] = {}
        self._signal_ids: Dict[Tuple, int] = {}
        self._wait_ids: Dict[Tuple[int, int], int] = {}
        # Per-thread lowering state.
        self._depth: Dict[int, int] = {tid: 0 for tid in link.tids}
        self._barrier_seen: Dict[Tuple[int, int], int] = {}
        self._cond_count: Dict[Tuple[int, int], int] = {}

    # -- id interning ---------------------------------------------------

    def _signal_id(self, key: Tuple) -> int:
        sid = self._signal_ids.get(key)
        if sid is None:
            sid = self._signal_ids[key] = len(self._signal_ids)
        return sid

    def _wait_op(self, signal_id: int, count: int) -> Op:
        wid = self._wait_ids.get((signal_id, count))
        if wid is None:
            wid = self._wait_ids[(signal_id, count)] = len(self._wait_ids)
            self.waits[wid] = (signal_id, count)
        return (OP_WAIT, wid)

    # -- lowering -------------------------------------------------------

    def _in_txn(self, tid: int) -> bool:
        return self.options.transactify and self._depth[tid] > 0

    def _emit_accesses(self, tid: int, accesses: Iterable[Access],
                       read: bool) -> None:
        out = self.ops[tid]
        transactional = self._in_txn(tid)
        if read:
            opcode = OP_READ if transactional else OP_NT_READ
        else:
            opcode = OP_WRITE if transactional else OP_NT_WRITE
        shift = self.options.block_shift
        for access in accesses:
            for block in _blocks(access, shift):
                out.append((opcode, self.remapper.map(block)))

    def _dependency_guard(self, tid: int, what: str) -> None:
        if self._in_txn(tid):
            raise TraceError(
                f"{what} inside a transactified critical section on "
                f"thread {tid}: an aborted region would replay its "
                f"synchronization — exclude this mutex from "
                f"transactify or record without it")

    def _compute(self, event: ComputeEvent) -> None:
        cycles = event.iops * IOP_COST + event.flops * FLOP_COST
        if cycles > 0:
            self.ops[event.tid].append((OP_COMPUTE, cycles))
        self._emit_accesses(event.tid, event.reads, read=True)
        self._emit_accesses(event.tid, event.writes, read=False)

    def _comm(self, event: CommEvent) -> None:
        self._dependency_guard(event.tid, "communication edge")
        out = self.ops[event.tid]
        for ptid, peid, accesses in event.sources:
            if ptid == event.tid:
                raise TraceError(
                    f"thread {event.tid} communication edge names "
                    f"itself as producer (event {event.eid})")
            out.append(self._wait_op(self._signal_id(("comm", ptid, peid)),
                                     1))
            # The reads themselves are ordinary accesses; their
            # producer ordering is already enforced by the wait.
            self._emit_accesses(event.tid, accesses, read=True)

    def _pthread(self, event: PthreadEvent) -> None:
        tid, arg = event.tid, event.arg
        out = self.ops[tid]
        ptype = event.ptype
        if ptype == PTH_MUTEX_LOCK:
            if self.options.transactify:
                # Flat nesting: the executor subsumes inner BEGINs.
                out.append((OP_BEGIN, 0))
                self._depth[tid] += 1
            else:
                out.append((OP_LOCK, arg))
        elif ptype == PTH_MUTEX_UNLOCK:
            if self.options.transactify:
                if self._depth[tid] == 0:
                    raise TraceError(
                        f"thread {tid} unlocks mutex {arg} it never "
                        f"locked (event {event.eid})")
                out.append((OP_COMMIT, 0))
                self._depth[tid] -= 1
            else:
                out.append((OP_UNLOCK, arg))
        elif ptype == PTH_BARRIER:
            self._dependency_guard(tid, "barrier")
            episode = self._barrier_seen.get((arg, tid), 0) + 1
            self._barrier_seen[(arg, tid)] = episode
            participants = self.link.barrier_episodes(arg)[episode - 1]
            sid = self._signal_id(("bar", arg, episode))
            out.append((OP_SIGNAL, sid))
            out.append(self._wait_op(sid, participants))
        elif ptype == PTH_CREATE:
            self._dependency_guard(tid, "thread create")
            if arg not in self.ops:
                raise TraceError(
                    f"thread {tid} creates thread {arg}, which has no "
                    f"events in the trace")
            out.append((OP_SIGNAL, self._signal_id(("create", arg))))
        elif ptype == PTH_JOIN:
            self._dependency_guard(tid, "thread join")
            if arg not in self.ops:
                raise TraceError(
                    f"thread {tid} joins thread {arg}, which has no "
                    f"events in the trace")
            out.append(self._wait_op(self._signal_id(("join", arg)), 1))
        elif ptype == PTH_COND_WAIT:
            self._dependency_guard(tid, "condition wait")
            # Broadcast-monotonic semantics: the thread's k-th wait on
            # a condition needs the k-th signal to have happened.  This
            # is weaker than lost-wakeup-exact condvars but replays the
            # recorded schedule faithfully and cannot deadlock (the
            # link pass checked signal counts).
            k = self._cond_count.get((arg, tid), 0) + 1
            self._cond_count[(arg, tid)] = k
            out.append(self._wait_op(self._signal_id(("cond", arg)), k))
        elif ptype == PTH_COND_SIGNAL:
            self._dependency_guard(tid, "condition signal")
            out.append((OP_SIGNAL, self._signal_id(("cond", arg))))
        elif ptype == PTH_SYSCALL:
            if arg <= 0:
                raise TraceError(
                    f"thread {tid} syscall with non-positive cost "
                    f"(event {event.eid})")
            out.append((OP_SYSCALL, arg))

    def lower(self, event: TraceEvent) -> None:
        if isinstance(event, ComputeEvent):
            self._compute(event)
        elif isinstance(event, CommEvent):
            self._comm(event)
        else:
            self._pthread(event)
        # Producers signal consumers the moment the awaited event has
        # been emitted, whatever kind it was.
        key = ("comm", event.tid, event.eid)
        if (event.tid, event.eid) in self.link.comm_producers:
            self.ops[event.tid].append((OP_SIGNAL, self._signal_id(key)))


def _startup_edges(lowerer: _Lowerer, link: _LinkTable) -> None:
    """Prepend create-waits and append join-signals.

    A created thread must not run before its creator's CREATE event;
    a joiner must not pass JOIN before the child's last op.  Both are
    wait conditions at stream boundaries, added after the emit pass
    so they need no stream surgery.
    """
    for child, _creator in sorted(link.created.items()):
        wait_op = lowerer._wait_op(
            lowerer._signal_id(("create", child)), 1)
        lowerer.ops[child].insert(0, wait_op)
    for child in sorted(link.joined):
        if child not in lowerer.ops:
            continue  # already rejected in the emit pass
        lowerer.ops[child].append(
            (OP_SIGNAL, lowerer._signal_id(("join", child))))


def convert_events(events_twice, name: str,
                   options: Optional[ConvertOptions] = None,
                   validate: bool = True) -> WorkloadTrace:
    """Convert an event stream to a workload trace.

    ``events_twice`` is a zero-argument callable returning a fresh
    event iterator — conversion streams the trace twice (link pass
    then emit pass), and a plain iterator would be exhausted after
    the first.
    """
    opts = options or ConvertOptions()
    link = _link_pass(events_twice())
    lowerer = _Lowerer(opts, link)
    for event in events_twice():
        lowerer.lower(event)
    for tid in link.tids:
        if opts.transactify and lowerer._depth[tid] != 0:
            raise TraceError(
                f"thread {tid} ends inside a transactified critical "
                f"section ({lowerer._depth[tid]} unmatched locks)")
    _startup_edges(lowerer, link)
    trace = WorkloadTrace(
        name=name,
        threads=[ThreadTrace(tid, lowerer.ops[tid]) for tid in link.tids],
        params={
            "source": "traces",
            "remap": opts.remap,
            "block_shift": opts.block_shift,
            "transactify": opts.transactify,
        },
        waits=lowerer.waits,
    )
    if validate:
        validate_trace(trace)
    return trace


def convert_file(path: Union[str, Path], name: Optional[str] = None,
                 options: Optional[ConvertOptions] = None,
                 validate: bool = True) -> WorkloadTrace:
    """Convert a trace file (or shard directory) to a workload trace."""
    path = Path(path)
    if name is None:
        name = path.name
        for suffix in (".gz", ".strace"):
            if name.endswith(suffix):
                name = name[: -len(suffix)]
    return convert_events(lambda: parse_events(path), name,
                          options=options, validate=validate)
