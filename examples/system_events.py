#!/usr/bin/env python
"""System events: context switches, paging, and cross-process sharing.

Drives the TokenTM machine directly through the three systems
scenarios of Sections 4.4 and 5.3:

1. a transaction is descheduled mid-flight (flash-OR of R/W into
   R'/W'), another thread runs on the core, and the original
   transaction resumes on a *different* core;
2. a page holding live transactional metastate is paged out (metabits
   saved with the page) and back in, after which conflict detection
   still works;
3. two simulated processes share a System-V segment; a conflict
   between their transactions is traced back to the owning processes
   through the TID authority.
"""

from repro import HTMConfig, SystemConfig
from repro.coherence.protocol import MemorySystem
from repro.htm.tokentm import TokenTM
from repro.syssupport import (
    BLOCKS_PER_PAGE,
    PageManager,
    SharedSegment,
    TidAuthority,
)


def context_switch_demo(htm: TokenTM) -> None:
    print("== context switch & migration ==")
    block = 0x10_000

    htm.schedule(0, 1)
    htm.begin(0, 1)
    htm.read(0, 1, block)
    print("thread 1 reads a block inside a transaction on core 0")

    cycles = htm.context_switch(0)
    print(f"descheduled in {cycles} cycles (constant-time flash-OR)")

    htm.schedule(0, 2)
    htm.begin(0, 2)
    denied = htm.write(0, 2, block)
    print(f"thread 2 on core 0 tries to write the block: "
          f"granted={denied.granted} (thread 1 still holds its token)")
    htm.commit(0, 2)
    htm.context_switch(0)

    htm.schedule(3, 1)
    htm.write(3, 1, block)  # upgrade continues on core 3
    out = htm.commit(3, 1)
    print(f"thread 1 resumed on core 3, upgraded to write, committed "
          f"(fast release possible: {out.used_fast_release})")
    htm.schedule(3, None)  # thread 1 exits; its TID may be reused
    htm.audit()
    print("double-entry books balance\n")


def paging_demo(htm: TokenTM) -> None:
    print("== paging with live metastate ==")
    manager = PageManager(htm)
    page = 0x40
    block = page * BLOCKS_PER_PAGE + 3

    htm.begin(0, 7)
    htm.write(0, 7, block)
    print("thread 7 wrote a block (holds all its tokens)")

    image = manager.page_out(page)
    print(f"page 0x{page:x} swapped out; {len(image.metabits)} blocks "
          f"of metabits saved with it")

    manager.page_in(page)
    htm.begin(1, 8)
    denied = htm.read(1, 8, block)
    print(f"after page-in, thread 8's read is granted={denied.granted} "
          f"(writer metastate survived the swap)")
    htm.commit(0, 7)
    htm.abort(1, 8)  # the denied reader gives up; it retries later
    htm.audit()
    print("books balance after commit\n")


def sysv_demo(htm: TokenTM) -> None:
    print("== System-V shared memory across processes ==")
    authority = TidAuthority()
    segment = SharedSegment(base_page=0x80, num_pages=1,
                            authority=authority)
    tid_p1 = authority.allocate(process=101)
    tid_p2 = authority.allocate(process=202)
    segment.attach(101)
    segment.attach(202)
    block = next(iter(segment.blocks()))

    htm.begin(0, tid_p1)
    htm.write(0, tid_p1, block)
    htm.begin(1, tid_p2)
    out = htm.read(1, tid_p2, block)
    procs = segment.conflict_processes(out.conflict.hints)
    print(f"process 202's transaction conflicts with TID(s) "
          f"{out.conflict.hints} -> owning process(es) {procs}; their "
          f"contention managers coordinate the resolution")
    htm.commit(0, tid_p1)
    assert htm.read(1, tid_p2, block).granted
    htm.commit(1, tid_p2)
    htm.audit()
    print("cross-process transactions done, books balance")


def main() -> None:
    htm = TokenTM(MemorySystem(SystemConfig()), HTMConfig())
    context_switch_demo(htm)
    paging_demo(htm)
    sysv_demo(htm)


if __name__ == "__main__":
    main()
