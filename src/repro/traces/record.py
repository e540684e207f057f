"""Record a workload trace into the event format.

The recorder is the converter's inverse: it captures any generated
:class:`~repro.workloads.trace.WorkloadTrace` as a SynchroTrace-style
event file, one event per op, such that converting the file back
(with the :class:`~repro.traces.convert.ConvertOptions` the recorder
returns) yields byte-identical per-thread op streams — the
round-trip oracle the trace subsystem is tested against.

Mapping (replayed with ``remap="none"`` so folded blocks are the
original block numbers):

========================  =========================================
op                        event
========================  =========================================
``COMPUTE(c)``            computation, ``iops=c`` (``IOP_COST`` 1)
``NT_READ/READ(b)``       computation, one read at ``b << shift``
``NT_WRITE/WRITE(b)``     computation, one write at ``b << shift``
``BEGIN`` / ``COMMIT``    lock/unlock of reserved mutex 0
                          (replay transactifies)
``LOCK/UNLOCK(m)``        mutex lock/unlock of ``m``
                          (replay does *not* transactify)
``SYSCALL(c)``            ``pth_ty:8^c`` (local extension)
========================  =========================================

A trace cannot mix ``BEGIN`` with ``LOCK`` (one transactify flag
must replay both) and cannot contain ``SIGNAL``/``WAIT`` (their wait
conditions came *from* a converter; re-recording them is a cycle the
format does not attempt).  Both cases raise :class:`TraceError`.
"""

from __future__ import annotations

import gzip
import io
from pathlib import Path
from typing import IO, Union

from repro.common.config import BLOCK_SHIFT
from repro.common.errors import TraceError
from repro.traces.convert import ConvertOptions
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
)

#: Mutex id standing in for BEGIN/COMMIT brackets in recorded files.
TXN_MUTEX = 0


def replay_options(trace: WorkloadTrace) -> ConvertOptions:
    """The converter options that replay a recording of ``trace``."""
    has_txns = any(op == OP_BEGIN for t in trace.threads
                   for op, _ in t.ops)
    return ConvertOptions(block_shift=BLOCK_SHIFT, remap="none",
                          transactify=has_txns)


class _GzipTextWriter(io.TextIOWrapper):
    """Text writer whose gzip output is fully content-determined.

    The gzip header normally embeds the file's mtime and name; both
    are suppressed (mtime pinned to zero, stream opened via fileobj)
    so identical traces produce byte-identical files whatever they
    are called — which is what lets content hashes and committed
    ``.gz`` fixtures stay stable across regeneration.
    """

    def __init__(self, path: Path):
        self._binary = path.open("wb")
        gz = gzip.GzipFile(fileobj=self._binary, mode="wb", mtime=0,
                           filename="")
        super().__init__(gz, encoding="utf-8")

    def close(self) -> None:
        try:
            super().close()  # flushes text, writes the gzip trailer
        finally:
            self._binary.close()


def _open_out(path: Path) -> IO[str]:
    """Open ``path`` as text, compressing when it ends in ``.gz``."""
    if path.suffix == ".gz":
        return _GzipTextWriter(path)
    return path.open("w", encoding="utf-8")


def record_trace(trace: WorkloadTrace,
                 path: Union[str, Path]) -> ConvertOptions:
    """Write ``trace`` as an event file; returns the replay options.

    The file is gzip-compressed when ``path`` ends in ``.gz`` (with a
    pinned mtime, so identical traces produce identical bytes).
    """
    path = Path(path)
    options = replay_options(trace)
    has_locks = any(op in (OP_LOCK, OP_UNLOCK)
                    for t in trace.threads for op, _ in t.ops)
    if options.transactify and has_locks:
        raise TraceError(
            f"{trace.name}: mixes BEGIN/COMMIT with LOCK/UNLOCK — one "
            f"transactify flag cannot replay both")
    shift = options.block_shift
    with _open_out(path) as out:
        out.write(f"! recorded workload {trace.name}\n")
        for thread in trace.threads:
            tid = thread.thread_id
            for eid, (opcode, arg) in enumerate(thread.ops):
                if opcode == OP_COMPUTE:
                    out.write(f"{eid},{tid},{arg},0,0,0\n")
                elif opcode in (OP_READ, OP_NT_READ):
                    out.write(f"{eid},{tid},0,0,1,0 # {arg << shift}\n")
                elif opcode in (OP_WRITE, OP_NT_WRITE):
                    out.write(f"{eid},{tid},0,0,0,1 # * {arg << shift}\n")
                elif opcode == OP_BEGIN:
                    out.write(f"{eid},{tid},pth_ty:1^{TXN_MUTEX}\n")
                elif opcode == OP_COMMIT:
                    out.write(f"{eid},{tid},pth_ty:2^{TXN_MUTEX}\n")
                elif opcode == OP_LOCK:
                    out.write(f"{eid},{tid},pth_ty:1^{arg}\n")
                elif opcode == OP_UNLOCK:
                    out.write(f"{eid},{tid},pth_ty:2^{arg}\n")
                elif opcode == OP_SYSCALL:
                    out.write(f"{eid},{tid},pth_ty:8^{arg}\n")
                elif opcode in (OP_SIGNAL, OP_WAIT):
                    raise TraceError(
                        f"{trace.name}: SIGNAL/WAIT ops are not "
                        f"recordable (their wait conditions came from "
                        f"a converter; record the source events "
                        f"instead)")
                else:
                    raise TraceError(
                        f"{trace.name}: unknown opcode {opcode}")
    return options
