"""Trace-backed workloads: first-class grid citizens.

A :class:`TraceWorkload` wraps an on-disk event trace so the
experiment harness, perf bench, and chaos campaigns can treat it
exactly like a synthetic generator: it has a ``.spec`` with a name
and a ``generate(seed, scale, threads)`` method.  Replay ignores all
three knobs — a recorded program has one schedule — but accepting
them keeps every grid helper working unchanged.

Identity is **content-hashed**: :class:`TraceWorkloadSpec` carries
the trace path, the SHA-256 digest of the file bytes, and the full
:class:`~repro.traces.convert.ConvertOptions`.  The perf cache keys
on the spec, so editing a trace file in place (same path) or
changing any converter option invalidates exactly the affected
cells, while re-running an unchanged grid hits the cache.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import Dict, Optional, Union

from repro.common.errors import TraceError
from repro.traces.convert import ConvertOptions, convert_file
from repro.traces.events import trace_files
from repro.workloads.trace import WorkloadTrace

#: Directory of committed fixture traces (package data).
FIXTURE_DIR = Path(__file__).parent / "fixtures"


def trace_digest(path: Union[str, Path]) -> str:
    """SHA-256 over the raw bytes of every file of the trace.

    Shard directories hash each file in :func:`trace_files` order,
    separated by the file name, so renaming or reordering shards
    changes the digest just like editing one would.
    """
    digest = hashlib.sha256()
    for shard in trace_files(path):
        digest.update(shard.name.encode("utf-8"))
        digest.update(b"\x00")
        digest.update(shard.read_bytes())
    return digest.hexdigest()


@dataclass(frozen=True)
class TraceWorkloadSpec:
    """Cache-key identity of one trace workload."""

    name: str
    path: str
    digest: str
    convert: ConvertOptions = field(default_factory=ConvertOptions)


class TraceWorkload:
    """Replayable trace workload (duck-types SyntheticTxnWorkload)."""

    def __init__(self, spec: TraceWorkloadSpec):
        self.spec = spec

    @classmethod
    def from_file(cls, path: Union[str, Path],
                  options: Optional[ConvertOptions] = None,
                  name: Optional[str] = None) -> "TraceWorkload":
        """Build a workload from a trace file, hashing it now."""
        path = Path(path)
        if name is None:
            name = path.name
            for suffix in (".gz", ".strace"):
                if name.endswith(suffix):
                    name = name[: -len(suffix)]
        spec = TraceWorkloadSpec(
            name=name,
            path=str(path),
            digest=trace_digest(path),
            convert=options or ConvertOptions(),
        )
        return cls(spec)

    @classmethod
    def from_spec(cls, spec: TraceWorkloadSpec) -> "TraceWorkload":
        """Rehydrate from a spec, verifying the file still matches.

        Worker processes reconstruct workloads from specs; the digest
        check catches a trace edited between scheduling and running a
        cell, which would otherwise poison the content-keyed cache.
        """
        actual = trace_digest(spec.path)
        if actual != spec.digest:
            raise TraceError(
                f"{spec.path}: trace content changed since the spec "
                f"was built (digest {actual[:12]}… != spec "
                f"{spec.digest[:12]}…)")
        return cls(spec)

    def scaled_spec(self, scale: float) -> TraceWorkloadSpec:
        """Replay has no scale knob; the spec is returned unchanged."""
        return self.spec

    def generate(self, seed: int = 0, scale: float = 1.0,
                 threads: Optional[int] = None) -> WorkloadTrace:
        """Convert (memoized) and return the replayable trace.

        ``seed``/``scale``/``threads`` are accepted for grid-harness
        compatibility and ignored: a trace replays one recorded
        schedule.  The thread count is the trace's own.
        """
        return _convert(self.spec)


@lru_cache(maxsize=1)
def _convert(spec: TraceWorkloadSpec) -> WorkloadTrace:
    """The trace ``spec`` names, memoized by content.

    Keyed by the spec (digest included), not by the workload object,
    so the CLI's up-front validation and the cell that then runs the
    same file share one conversion.  Sharing is safe because
    execution only reads a trace.
    """
    return convert_file(spec.path, name=spec.name, options=spec.convert)


def fixture_path(name: str) -> Path:
    """Path of a committed fixture trace by base name."""
    for candidate in (FIXTURE_DIR / f"{name}.strace",
                      FIXTURE_DIR / f"{name}.strace.gz"):
        if candidate.exists():
            return candidate
    available = ", ".join(sorted(
        p.name for p in FIXTURE_DIR.iterdir()
        if p.name.endswith((".strace", ".strace.gz"))))
    raise TraceError(f"no fixture trace {name!r} (available: {available})")


def fixture_workloads(options: Optional[ConvertOptions] = None
                      ) -> Dict[str, TraceWorkload]:
    """All committed fixture traces as ready workloads.

    Fixtures record lock-based programs, so the default conversion
    transactifies them — that is what makes them meaningful TM grid
    cells alongside the synthetic generators.
    """
    opts = options or ConvertOptions(transactify=True)
    registry: Dict[str, TraceWorkload] = {}
    for path in sorted(FIXTURE_DIR.iterdir()):
        if not path.name.endswith((".strace", ".strace.gz")):
            continue
        workload = TraceWorkload.from_file(path, options=opts)
        registry[workload.spec.name] = workload
    return registry
