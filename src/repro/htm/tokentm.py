"""The TokenTM machine (Sections 3-5 of the paper).

TokenTM detects conflicts by counting per-block transactional tokens:
a load acquires one token, a store acquires all T.  Token movement is
double-entry bookkept — debited from the block's metastate, credited
to the thread's software-visible log.  The metastate is distributed
across copies of the block (home metabits plus each cached copy's
metabits) and kept meaningful by fission/fusion rules applied on
every coherence data movement, which this class observes as the
memory system's :class:`~repro.coherence.protocol.CoherenceListener`.

Faithfulness notes (simulator vs. hardware):

* Coherence is never blocked: data moves first, the metastate verdict
  comes after — exactly the paper's decoupling.  A denied store may
  therefore have already pulled the block (and the readers' fused
  tokens) into its cache; the readers later reclaim them through
  ordinary coherence when they release.
* Software token release walks the log and charges a log-block read
  plus a release cost per record; token *counts* are returned to the
  metastate aggregated per block so that a read+upgrade pair releases
  atomically (hardware orders the two page-sized... the two records
  within one walk; an interleaving observer could otherwise see a
  transient near-T anonymous count).
* The (v, -) "conflicting store" case where every debited token turns
  out to belong to the requester itself (its identity was anonymized
  by fission/fusion) is resolved the way the paper's software
  contention manager would: walk the logs, discover the sole reader
  is the requester, and upgrade in place.  It is charged a software
  trap.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.common.config import HTMConfig
from repro.common.errors import (
    BookkeepingError,
    MetastateError,
    TransactionError,
)
from repro.coherence.cache import CacheLine, MESI
from repro.coherence.protocol import (
    MEMORY_HOLDER,
    AccessResult,
    CoherenceListener,
    MemorySystem,
)
from repro.core.bookkeeping import AuditReport, audit_books
from repro.core.fastrelease import FastReleaseUnit
from repro.core.fission import fission, fuse
from repro.core.metabits import CacheMetabits
from repro.core.metastate import (
    META_ZERO,
    AccessVerdict,
    Meta,
    acquire_read,
    acquire_write,
    release,
)
from repro.core.tmlog import TmLog
from repro.mem.metabit_store import MetabitStore
from repro.obs.events import EventKind
from repro.htm.base import (
    AccessOutcome,
    CommitOutcome,
    ConflictInfo,
    ConflictKind,
    HTM,
)


class _Txn:
    """Bookkeeping for one live transaction."""

    __slots__ = ("tid", "core", "read_set", "write_set")

    def __init__(self, tid: int, core: int):
        self.tid = tid
        self.core = core
        self.read_set: Set[int] = set()
        self.write_set: Set[int] = set()


class TokenTM(HTM, CoherenceListener):
    """TokenTM, optionally without fast token release (TokenTM_NoFast)."""

    def __init__(self, mem: MemorySystem, config: HTMConfig,
                 fast_release: Optional[bool] = None):
        super().__init__(mem)
        use_fast = config.fast_release if fast_release is None else fast_release
        self.name = "TokenTM" if use_fast else "TokenTM_NoFast"
        self._config = config
        self._tpb = config.tokens_per_block
        self._store = MetabitStore(self._tpb)
        ncores = mem.config.num_cores
        self._units = [FastReleaseUnit(c, enabled=use_fast)
                       for c in range(ncores)]
        self._core_tid: List[Optional[int]] = [None] * ncores
        self._logs: Dict[int, TmLog] = {}
        self._txns: Dict[int, _Txn] = {}
        # Metastate shards fused off invalidated copies, keyed by the
        # (requesting core, block) that will absorb them, plus the
        # reader-TID hints those copies carried (Section 5.2).
        self._pending: Dict[Tuple[int, int], Meta] = {}
        self._pending_hints: Dict[Tuple[int, int], List[int]] = {}
        self._lat = mem.config.latency
        mem.set_listener(self)

    # ------------------------------------------------------------------
    # Metastate plumbing
    # ------------------------------------------------------------------

    def _meta_of(self, line: CacheLine, core: int) -> Meta:
        mb = line.meta
        if mb is None:
            return META_ZERO
        return mb.logical(self._tpb, self._core_tid[core])

    def _write_meta(self, line: CacheLine, meta: Meta, core: int) -> None:
        if meta.total == 0:
            line.meta = None
            return
        line.meta = CacheMetabits.encode(
            meta, self._tpb, self._core_tid[core]
        )

    def _merge_into_line(self, core: int, line: CacheLine,
                         incoming: Meta) -> None:
        """Fuse foreign metastate into a line, keeping local R/W bits.

        Hardware fusion happens *in* the metabits: a line whose R bit
        is set absorbs foreign reader counts into R+/Attr (Table 4(b)
        row 2) without losing the R bit — that is exactly what lets a
        later flash-clear return only the local thread's token.  A
        naive decode-fuse-re-encode would anonymize the local bits.
        """
        if incoming.total == 0:
            return
        mb = line.meta
        if mb is None or not (mb.r or mb.w):
            fused = fuse(self._meta_of(line, core), incoming, self._tpb)
            self._write_meta(line, fused, core)
            return
        current = mb.logical(self._tpb, self._core_tid[core])
        if mb.w:
            # We hold all tokens; the incoming state can only be a
            # replicated copy of our own writer state (fuse checks).
            fuse(current, incoming, self._tpb)
            return
        # R set: fold the foreign reader count into the anonymous
        # component, preserving the R bit.
        if incoming.total == self._tpb:
            raise MetastateError(
                f"writer state {incoming} fused into reader line"
            )
        if mb.rplus:
            mb.attr += incoming.total
        else:
            mb.rplus = True
            mb.attr = incoming.total

    def _drain_pending(self, core: int, block: int, line: CacheLine) -> None:
        pend = self._pending.pop((core, block), None)
        if pend is None:
            return
        self._merge_into_line(core, line, pend)

    def _absorb_home(self, core: int, block: int, line: CacheLine) -> None:
        home = self._store.take(block)
        if home.total:
            self._merge_into_line(core, line, home)

    def _post_access(self, core: int, block: int,
                     result: AccessResult) -> CacheLine:
        """Metastate housekeeping after any data-block access."""
        line = result.line
        if result.upgraded:
            # An S->M upgrade gets no fill event; absorb the home
            # shard and the invalidated sharers' shards here.
            self._absorb_home(core, block, line)
        if self._pending:
            self._drain_pending(core, block, line)
        mb = line.meta
        if mb is not None and mb.rp and mb.rplus:
            # Only the post-switch R'+R+ transient needs fusing.
            mb.fuse_transient()
        return line

    # ------------------------------------------------------------------
    # CoherenceListener: fission/fusion on data movement (Section 4.2)
    # ------------------------------------------------------------------

    def on_fill(self, core: int, block: int, line: CacheLine,
                shared: bool, source: int) -> None:
        if shared:
            if self.bus.enabled:
                self.bus.emit(EventKind.FISSION, core=core, block=block,
                              source=source)
            if source == MEMORY_HOLDER:
                home = self._store.load(block)
                retained, new_copy = fission(home, self._tpb)
                self._store.store(block, retained)
            else:
                src_line = self.mem.cache(source).lookup(block)
                if src_line is None:
                    new_copy = META_ZERO
                else:
                    # Table 3(a): the source copy retains its state
                    # unchanged, so its metabits are never rewritten
                    # (rewriting would anonymize its R/W bits).
                    src_meta = self._meta_of(src_line, source)
                    _retained, new_copy = fission(src_meta, self._tpb)
            self._write_meta(line, new_copy, core)
            return
        # Exclusive fill: the single coherent copy carries the whole
        # metastate — absorb the home shard and any invalidation acks.
        meta = self._store.take(block)
        if self._pending:
            pend = self._pending.pop((core, block), None)
            if pend is not None:
                meta = fuse(meta, pend, self._tpb)
        if meta.total:
            # A freshly installed line has no metabits to clear.
            self._write_meta(line, meta, core)

    def on_invalidate(self, core: int, block: int, line: CacheLine,
                      requester: int) -> None:
        meta = self._meta_of(line, core)
        if meta.total:
            if self.bus.enabled:
                self.bus.emit(EventKind.FUSION, core=core, block=block,
                              requester=requester, tokens=meta.total,
                              via="invalidate")
            key = (requester, block)
            prior = self._pending.get(key, META_ZERO)
            self._pending[key] = fuse(prior, meta, self._tpb)
            if meta.total == 1 and meta.tid is not None:
                self._pending_hints.setdefault(key, []).append(meta.tid)
        mb = line.meta
        if mb is not None and (mb.r or mb.w):
            self._units[core].line_invalidated(block)
        line.meta = None

    def on_downgrade(self, core: int, block: int, line: CacheLine,
                     requester: int) -> None:
        mb = line.meta
        meta = self._meta_of(line, core)
        if meta.total == self._tpb:
            # The downgrade writes data (and metabits) back to L2:
            # writer state must become visible at home so later
            # shared fills from memory replicate it (the "all copies
            # coherent when there is a writer" rule of Section 4.2).
            home = self._store.load(block)
            self._store.store(block, fuse(home, meta, self._tpb))
        if mb is not None and (mb.r or mb.w):
            self._units[core].line_downgraded(block, had_writer_bit=mb.w)

    def on_evict(self, core: int, block: int, line: CacheLine) -> None:
        meta = self._meta_of(line, core)
        if meta.total:
            if self.bus.enabled:
                self.bus.emit(EventKind.FUSION, core=core, block=block,
                              tokens=meta.total, via="evict")
            home = self._store.load(block)
            self._store.store(block, fuse(home, meta, self._tpb))
        mb = line.meta
        if mb is not None and (mb.r or mb.w):
            self._units[core].line_evicted(block)
        line.meta = None

    # ------------------------------------------------------------------
    # Transaction lifecycle
    # ------------------------------------------------------------------

    def begin(self, core: int, tid: int) -> int:
        if tid in self._txns:
            raise TransactionError(f"thread {tid} already in a transaction")
        self._txns[tid] = _Txn(tid, core)
        self._core_tid[core] = tid
        if tid not in self._logs:
            self._logs[tid] = TmLog(tid)
        self._units[core].begin(tid)
        return self._lat.txn_begin

    def _txn(self, tid: int) -> _Txn:
        txn = self._txns.get(tid)
        if txn is None:
            raise TransactionError(f"thread {tid} has no live transaction")
        return txn

    def _log_append(self, core: int, tid: int, block: int, tokens: int,
                    is_write: bool) -> int:
        """Write a log record; returns cycles including log stalls."""
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

    def read(self, core: int, tid: int, block: int) -> AccessOutcome:
        txn = self._txns.get(tid)
        if txn is None:
            raise TransactionError(f"thread {tid} has no live transaction")
        self.stats.txn_reads += 1
        result = self.mem.access(core, block, False)
        latency = result.latency
        # _post_access for a load, which never upgrades.
        line = result.line
        if self._pending:
            self._drain_pending(core, block, line)
        mb = line.meta
        if mb is None:
            # (0, -): Table 2 grants the load and debits one token, so
            # the R bit is set without decoding a metastate.
            line.meta = CacheMetabits(True, False, False, False, False, tid)
        elif mb.r or mb.w:
            # Token already held by this transaction: pure hardware hit.
            txn.read_set.add(block)
            return self._granted.get(latency) or self._grant(latency)
        else:
            if mb.rp and mb.rplus:
                # Only the post-switch R'+R+ transient needs fusing.
                mb.fuse_transient()
            verdict = acquire_read(self._meta_of(line, core), tid, self._tpb)
            if not verdict.granted:
                self.stats.conflicts += 1
                if self.bus.enabled:
                    self.bus.emit(EventKind.CONFLICT, tid=tid, core=core,
                                  block=block, conflict_kind="writer",
                                  access="read")
                hint = verdict.owner_hint
                info = ConflictInfo(
                    block, ConflictKind.WRITER,
                    hints=(hint,) if hint is not None else (),
                    complete=hint is not None,
                )
                return AccessOutcome(False, latency, info)
            if not verdict.acquired:
                txn.read_set.add(block)
                return self._granted.get(latency) or self._grant(latency)
            mb.set_read(tid)
        self._units[core].mark(block)
        if self.bus.enabled:
            self.bus.emit(EventKind.TOKEN_ACQUIRE, tid=tid, core=core,
                          block=block, tokens=1, write=False)
        latency += self._log_append(core, tid, block, 1, False)
        txn.read_set.add(block)
        return self._granted.get(latency) or self._grant(latency)

    def write(self, core: int, tid: int, block: int) -> AccessOutcome:
        txn = self._txn(tid)
        self.stats.txn_writes += 1
        result = self.mem.access(core, block, True)
        line = self._post_access(core, block, result)
        ack_hints = (tuple(self._pending_hints.pop((core, block), ()))
                     if self._pending_hints else ())
        latency = result.latency
        mb = line.meta
        if mb is None and self._core_tid[core] == tid:
            # (0, -): Table 2 grants the store all T tokens, so the W
            # bit is set without decoding a metastate.
            line.meta = CacheMetabits(False, True, False, False, False, tid)
            acquired = self._tpb
        elif mb is not None and mb.w:
            txn.write_set.add(block)
            return self._granted.get(latency) or self._grant(latency)
        else:
            meta = self._meta_of(line, core)
            verdict = acquire_write(meta, tid, self._tpb)
            if not verdict.granted:
                # The handler returns a complete outcome in every case
                # — including the self-upgrade, whose log append may
                # evict the very line we hold a reference to, so no
                # code may touch ``line`` after it.
                return self._handle_write_conflict(
                    core, tid, txn, block, line, meta, verdict.owner_hint,
                    ack_hints, latency,
                )
            acquired = verdict.acquired
            if acquired:
                self._write_meta(line, verdict.meta, core)
        if acquired:
            self._units[core].mark(block)
            if self.bus.enabled:
                self.bus.emit(EventKind.TOKEN_ACQUIRE, tid=tid, core=core,
                              block=block, tokens=acquired, write=True)
            latency += self._log_append(core, tid, block, acquired, True)
        txn.write_set.add(block)
        return self._granted.get(latency) or self._grant(latency)

    def _handle_write_conflict(self, core: int, tid: int, txn: _Txn,
                               block: int, line: CacheLine, meta: Meta,
                               owner_hint: Optional[int],
                               ack_hints: Tuple[int, ...],
                               latency: int) -> AccessOutcome:
        """Classify a store conflict and resolve what software can.

        Always returns a complete outcome: a denial with the best
        conflictor hints, or a grant after a software-managed
        self-upgrade (every debited token turned out to be the
        requester's own).  ``txn.write_set`` is updated on the grant
        paths here because the caller must not touch the cache line
        again (the upgrade's log append may have evicted it).
        """
        self.stats.conflicts += 1
        if self.bus.enabled:
            self.bus.emit(
                EventKind.CONFLICT, tid=tid, core=core, block=block,
                conflict_kind=("writer" if meta.total == self._tpb
                               else "readers"),
                access="write",
            )
        if meta.total == self._tpb:
            info = ConflictInfo(
                block, ConflictKind.WRITER,
                hints=(owner_hint,) if owner_hint is not None else (),
                complete=owner_hint is not None,
            )
            return AccessOutcome(False, latency, info)
        # Reader conflict.  Gather hardware hints: the metastate TID
        # (single reader) plus TIDs piggybacked on invalidation acks.
        hints: List[int] = []
        if owner_hint is not None:
            hints.append(owner_hint)
        hints.extend(h for h in ack_hints if h not in hints)
        foreign = [h for h in hints if h != tid]
        complete = len(hints) >= meta.total
        if complete and not foreign:
            # Every token is provably our own: software-managed
            # read-to-write upgrade (all debits belong to tid).
            cycles = self._self_upgrade(core, tid, block, line, meta)
            txn.write_set.add(block)
            return self._grant(latency + cycles + self._lat.conflict_trap)
        if not complete:
            # Hardware hints insufficient: the contention manager must
            # walk logs (the paper's hardest case).  Do it now so the
            # conflict info handed out is complete.
            readers = self._readers_from_logs(block, exclude=tid)
            self.stats.log_walk_resolutions += 1
            latency += self._lat.conflict_trap
            if not readers:
                # Logs say every debit is ours after all.
                cycles = self._self_upgrade(core, tid, block, line, meta)
                txn.write_set.add(block)
                return self._grant(latency + cycles)
            info = ConflictInfo(block, ConflictKind.READERS,
                                hints=tuple(readers), complete=True)
            return AccessOutcome(False, latency, info)
        info = ConflictInfo(block, ConflictKind.READERS,
                            hints=tuple(foreign), complete=True)
        return AccessOutcome(False, latency, info)

    def _self_upgrade(self, core: int, tid: int, block: int,
                      line: CacheLine, meta: Meta) -> int:
        """Upgrade when all debited tokens are the requester's own.

        Returns the log-append cycles.  The append may evict ``line``
        itself (the eviction hooks fuse its fresh writer state home),
        so callers must not reuse the line reference afterwards.
        """
        remaining = self._tpb - meta.total
        self._write_meta(line, Meta(self._tpb, tid), core)
        self._units[core].mark(block)
        if self.bus.enabled:
            self.bus.emit(EventKind.TOKEN_ACQUIRE, tid=tid, core=core,
                          block=block, tokens=remaining, write=True,
                          self_upgrade=True)
        return self._log_append(core, tid, block, remaining, True)

    def _readers_from_logs(self, block: int, exclude: int) -> List[int]:
        """Ground-truth reader list, as the software manager derives it."""
        readers = []
        for other_tid, txn in self._txns.items():
            if other_tid == exclude:
                continue
            if block in txn.read_set or block in txn.write_set:
                readers.append(other_tid)
        return readers

    # ------------------------------------------------------------------
    # Commit / abort
    # ------------------------------------------------------------------

    def commit(self, core: int, tid: int) -> CommitOutcome:
        txn = self._txn(tid)
        lat = self._lat
        unit = self._units[core]
        log = self._logs[tid]
        if unit.eligible:
            cleared = 0
            cache = self.mem.cache(core)
            sets = cache.sets
            set_mask = cache.set_mask
            for block in unit.take_fast_release():
                line = sets[block & set_mask].get(block)
                if line is None or line.meta is None:  # pragma: no cover
                    raise BookkeepingError(
                        f"fast release lost line {block:#x}"
                    )
                line.meta.flash_clear()
                if line.meta.is_clear():
                    line.meta = None
                cleared += 1
            if self.bus.enabled:
                self.bus.emit(EventKind.FLASH_CLEAR, tid=tid, core=core,
                              lines=cleared)
            log.reset()
            self._finish(core, tid)
            self.stats.fast_releases += 1
            self.stats.commits += 1
            return CommitOutcome(lat.txn_commit + lat.fast_release,
                                 used_fast_release=True)
        release_cycles = self._software_release(core, tid, log)
        unit.finish_software()
        log.reset()
        self._finish(core, tid)
        self.stats.software_releases += 1
        self.stats.commits += 1
        self.stats.software_release_cycles += release_cycles
        return CommitOutcome(lat.txn_commit + release_cycles,
                             software_release_cycles=release_cycles)

    def abort(self, core: int, tid: int) -> CommitOutcome:
        txn = self._txn(tid)
        lat = self._lat
        log = self._logs[tid]
        cycles = lat.conflict_trap
        # Undo pass: newest-first, restore old values of written blocks.
        for record, log_block in log.walk_backward():
            res = self.mem.access(core, log_block, False)
            cycles += res.latency
            if record.is_write:
                data = self.mem.access(core, record.block, True)
                self._post_access(core, record.block, data)
                self._pending_hints.pop((core, record.block), None)
                cycles += data.latency + lat.undo_write
                self.stats.undo_cycles += data.latency + lat.undo_write
        cycles += self._release_tokens(core, tid, log)
        self._units[core].finish_software()
        log.reset()
        self._finish(core, tid)
        self.stats.aborts += 1
        return CommitOutcome(cycles, software_release_cycles=0)

    def _software_release(self, core: int, tid: int, log: TmLog) -> int:
        """Walk the log reading records, then return all tokens."""
        cycles = 0
        access = self.mem.access
        for log_block in log.record_starts:
            cycles += access(core, log_block, False).latency
        cycles += self._release_tokens(core, tid, log)
        return cycles

    def _release_tokens(self, core: int, tid: int, log: TmLog) -> int:
        """Return every logged token to the metastate.

        Charges one release cost per log record; mutates metastate
        once per block with the aggregated count (see module notes).
        Pulls the block exclusive when the local shard cannot cover
        the release — the coherence cost the paper models with loads
        and stores.
        """
        cycles = log.entry_count * self._lat.token_release
        tpb = self._tpb
        cache = self.mem.cache(core)
        sets = cache.sets
        set_mask = cache.set_mask
        bus = self.bus
        for block, count in log.token_credits().items():
            if bus.enabled:
                bus.emit(EventKind.TOKEN_RELEASE, tid=tid, core=core,
                         block=block, tokens=count)
            line = sets[block & set_mask].get(block)
            mb = line.meta if line is not None else None
            if mb is not None:
                # The common releases, decided on the metabits alone:
                # (T, X) -> (0, -) from the exclusive copy, and
                # (1, X) -> (0, -).  Both leave the line inactive.
                if mb.w or mb.wp:
                    if count == tpb and line.state is not MESI.SHARED:
                        line.meta = None
                        continue
                elif count == 1 and (mb.r or mb.rp) and not mb.rplus:
                    line.meta = None
                    continue
            meta = self._meta_of(line, core) if line is not None else META_ZERO
            # Tokens are fungible (see core.metastate.release): any
            # local tokens may satisfy the release, whatever their
            # identity label says.
            covered = meta.total >= count
            if covered and meta.total == tpb:
                # Writer state replicates to shared copies (fission
                # rule 3), so releasing it requires the exclusive
                # copy — otherwise stale (T, X) replicas would
                # survive in other caches.
                assert line is not None
                covered = line.state in (MESI.MODIFIED, MESI.EXCLUSIVE)
            if not covered:
                res = self.mem.access(core, block, True)
                line = self._post_access(core, block, res)
                self._pending_hints.pop((core, block), None)
                cycles += res.latency
                meta = self._meta_of(line, core)
            new_meta = release(meta, tid, count, tpb)
            assert line is not None
            self._write_meta(line, new_meta, core)
        return cycles

    def _finish(self, core: int, tid: int) -> None:
        del self._txns[tid]

    # ------------------------------------------------------------------
    # Strong atomicity (Section 5.1)
    # ------------------------------------------------------------------

    def nontxn_read(self, core: int, tid: int, block: int) -> AccessOutcome:
        result = self.mem.access(core, block, False)
        line = self._post_access(core, block, result)
        meta = self._meta_of(line, core)
        if meta.total == self._tpb:
            self.stats.conflicts += 1
            if self.bus.enabled:
                self.bus.emit(EventKind.CONFLICT, tid=tid, core=core,
                              block=block, conflict_kind="writer",
                              access="nontxn_read")
            info = ConflictInfo(
                block, ConflictKind.WRITER,
                hints=(meta.tid,) if meta.tid is not None else (),
                complete=meta.tid is not None,
            )
            return AccessOutcome(False, result.latency, info)
        return self._grant(result.latency)

    def nontxn_write(self, core: int, tid: int, block: int) -> AccessOutcome:
        result = self.mem.access(core, block, True)
        line = self._post_access(core, block, result)
        ack_hints = tuple(self._pending_hints.pop((core, block), ()))
        meta = self._meta_of(line, core)
        if meta.total > 0:
            self.stats.conflicts += 1
            kind = (ConflictKind.WRITER if meta.total == self._tpb
                    else ConflictKind.READERS)
            if self.bus.enabled:
                self.bus.emit(EventKind.CONFLICT, tid=tid, core=core,
                              block=block, conflict_kind=kind.value,
                              access="nontxn_write")
            hints: List[int] = []
            if meta.tid is not None:
                hints.append(meta.tid)
            hints.extend(h for h in ack_hints if h not in hints)
            if not hints:
                hints = self._readers_from_logs(block, exclude=tid)
                self.stats.log_walk_resolutions += 1
            return AccessOutcome(False, result.latency,
                                 ConflictInfo(block, kind,
                                              hints=tuple(hints),
                                              complete=True))
        return self._grant(result.latency)

    # ------------------------------------------------------------------
    # Context switching (Section 4.4) and instrumentation
    # ------------------------------------------------------------------

    def context_switch(self, core: int) -> int:
        """Deschedule the core's thread: flash-OR R->R', W->W'.

        The hardware flash-ORs *every* L1 line in parallel (two
        flash-OR circuits per block), so the model walks all resident
        lines — not just the fast-release unit's marked set, which
        misses lines written after a mid-transaction migration.
        Constant-time in hardware; returns the modelled cycle cost.
        """
        self._units[core].context_switch()
        flashed = 0
        for line in self.mem.cache(core).lines():
            if line.meta is not None and (line.meta.r or line.meta.w):
                line.meta.context_switch()
                flashed += 1
        if self.bus.enabled:
            self.bus.emit(EventKind.FLASH_OR, core=core,
                          tid=self._core_tid[core], lines=flashed)
        self._core_tid[core] = None
        return self._lat.fast_release

    def schedule(self, core: int, tid: int) -> None:
        """Resume thread ``tid`` on ``core`` (after a context switch)."""
        self._core_tid[core] = tid
        if tid in self._txns:
            self._txns[tid].core = core

    def identify_conflictors(self, info: ConflictInfo) -> Tuple[int, ...]:
        if info.complete:
            return info.hints
        self.stats.log_walk_resolutions += 1
        readers = set(info.hints)
        for other_tid, txn in self._txns.items():
            if info.block in txn.read_set or info.block in txn.write_set:
                readers.add(other_tid)
        return tuple(sorted(readers))

    def active_tids(self) -> List[int]:
        return list(self._txns)

    def read_set_size(self, tid: int) -> int:
        txn = self._txns.get(tid)
        return len(txn.read_set) if txn else 0

    def write_set_size(self, tid: int) -> int:
        txn = self._txns.get(tid)
        return len(txn.write_set) if txn else 0

    def log_entries(self, tid: int) -> int:
        """Live log records for ``tid`` (diagnostics)."""
        log = self._logs.get(tid)
        return log.entry_count if log else 0

    # ------------------------------------------------------------------
    # Invariant audit
    # ------------------------------------------------------------------

    def audit(self) -> AuditReport:
        """Coherence audit plus the double-entry books (Section 3.2).

        Returns the :class:`AuditReport` so monitor paths can surface
        how much was checked; raises on the first imbalance.
        """
        super().audit()
        if self._pending:
            raise BookkeepingError(
                f"undrained pending metastate: {sorted(self._pending)}"
            )
        shards: Dict[int, List[Meta]] = {}
        for block in self._store.active_blocks():
            shards.setdefault(block, []).append(self._store.load(block))
        for core in range(self.mem.config.num_cores):
            for line in self.mem.cache(core).lines():
                meta = self._meta_of(line, core)
                if meta.total:
                    shards.setdefault(line.block, []).append(meta)
        live_logs = [self._logs[tid] for tid in self._txns]
        return audit_books(shards, live_logs, self._tpb)

    def check_invariants(self) -> Dict[str, object]:
        """Token conservation, pending drains, and undo-log shape.

        Beyond :meth:`audit` (coherence + double-entry books), checks
        that every live transaction's log credits stay within its
        read/write sets and that written blocks credit exactly the
        full T tokens — the undo log and the token log are one
        structure, so a mismatch means replayed undo records would
        touch blocks the transaction never isolated.
        """
        report = self.audit()
        tpb = self._tpb
        for tid, txn in self._txns.items():
            log = self._logs.get(tid)
            if log is None:
                raise BookkeepingError(f"live txn {tid} has no TmLog")
            credits = log.token_credits()
            touched = txn.read_set | txn.write_set
            stray = set(credits) - touched
            if stray:
                raise BookkeepingError(
                    f"txn {tid} logged credits for blocks outside its "
                    f"read/write sets: {sorted(stray)[:8]}"
                )
            for block in txn.write_set:
                if credits.get(block, 0) != tpb:
                    raise BookkeepingError(
                        f"txn {tid} wrote block {block:#x} but credits "
                        f"{credits.get(block, 0)}/{tpb} tokens"
                    )
        return {
            "checks": ["coherence", "pending_drained", "token_books",
                       "undo_log"],
            "audit": {"ok": report.ok,
                      "blocks_checked": report.blocks_checked,
                      "imbalances": len(report.imbalances)},
            "live_txns": len(self._txns),
        }
