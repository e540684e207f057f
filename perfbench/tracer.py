"""Per-layer host-time attribution, from outside the simulator.

For a traced pass, :func:`instrument` patches the public methods of
each layer's classes so that every call records a span on a
:class:`Tracer`; the patches are undone when the ``with`` block exits.
The simulator's own code is not modified.

A span is (layer, start, end, parent).  A cell makes millions of them,
so the tracer does not keep each one: on close it folds the span into
its (parent layer, layer) edge, adding one to the edge's count and its
duration and self time to the edge's totals.  A layer's self time is
its spans' duration minus the part covered by their child spans.  A
call into the layer that is already on top of the stack is counted but
opens no span: it would only split that layer's own time in two.

Generator methods are left unwrapped (their body runs after the call
returns), so their time falls to whichever span consumes them.
"""

from __future__ import annotations

import importlib
import inspect
import time
from collections import Counter
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.coherence.cache import L1Cache
from repro.coherence.directory import Directory
from repro.coherence.protocol import MemorySystem
from repro.core.fastrelease import FastReleaseUnit
from repro.core.metabits import CacheMetabits
from repro.core.tmlog import TmLog
from repro.htm.logtm_se import LogTMSE
from repro.htm.tokentm import TokenTM
from repro.interconnect.topology import TiledTopology
from repro.mem.metabit_store import MetabitStore
from repro.runtime.contention import TimestampManager
from repro.runtime.executor import Executor
from repro.signatures.bloom import BloomSignature
from repro.signatures.perfect import PerfectSignature

#: The classes whose public methods mark a layer boundary.  Methods a
#: class inherits are charged to the class's own layer, so LogTM-SE's
#: inherited ``HTM`` methods count as ``htm.logtm_se``.
LAYER_CLASSES = (
    (Executor, "runtime"),
    (TimestampManager, "runtime"),
    (LogTMSE, "htm.logtm_se"),
    (TokenTM, "htm.tokentm"),
    (BloomSignature, "signatures"),
    (PerfectSignature, "signatures"),
    (MemorySystem, "coherence"),
    (L1Cache, "coherence"),
    (Directory, "coherence"),
    (TiledTopology, "coherence"),
    (TmLog, "core"),
    (CacheMetabits, "core"),
    (FastReleaseUnit, "core"),
    (MetabitStore, "mem"),
)

#: Modules whose imported functions from another layer are wrapped in
#: place (TokenTM calls the ``repro.core`` token algebra by bare name).
FUNCTION_CONSUMERS = ("repro.htm.tokentm", "repro.htm.logtm_se")

LAYERS = ("workloads", "runtime", "htm.logtm_se", "htm.tokentm",
          "signatures", "coherence", "core", "mem")


def layer_of_module(module: str) -> Optional[str]:
    """The layer a ``repro`` module belongs to, or None if unmeasured."""
    parts = module.split(".")
    if len(parts) < 3 or parts[0] != "repro":
        return None
    layer = f"htm.{parts[2]}" if parts[1] == "htm" else parts[1]
    return layer if layer in LAYERS else None


class Tracer:
    """Span stack plus the folded span edges and call counts."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        #: Open spans, innermost last: [layer, start, child_time].
        self.stack: List[list] = []
        #: (parent layer or None, layer) -> [spans, total_s, self_s].
        self.edges: Dict[Tuple[Optional[str], str], list] = {}
        #: "Class.method" -> calls, including same-layer calls; filled
        #: in when :func:`instrument` exits.
        self.calls: Counter = Counter()

    def enter(self, layer: str) -> None:
        """Open a span; the method wrappers inline this."""
        self.stack.append([layer, self.clock(), 0.0])

    def exit(self) -> None:
        end = self.clock()
        layer, start, child = self.stack.pop()
        duration = end - start
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[2] += duration
        key = (parent[0] if parent is not None else None, layer)
        edge = self.edges.get(key)
        if edge is None:
            edge = self.edges[key] = [0, 0.0, 0.0]
        edge[0] += 1
        edge[1] += duration
        edge[2] += duration - child

    @contextmanager
    def span(self, layer: str) -> Iterator[None]:
        self.enter(layer)
        try:
            yield
        finally:
            self.exit()

    def self_times(self) -> Dict[str, float]:
        """Self seconds per layer, every layer in :data:`LAYERS` present."""
        out = {layer: 0.0 for layer in LAYERS}
        for (_parent, layer), (_n, _total, self_s) in self.edges.items():
            out[layer] = out.get(layer, 0.0) + self_s
        return out

    def calls_of(self, cls_name: str, methods=None) -> int:
        """Calls to ``cls_name``'s methods (all, or those named)."""
        prefix = cls_name + "."
        return sum(n for name, n in self.calls.items()
                   if name.startswith(prefix)
                   and (methods is None or name[len(prefix):] in methods))


def _traced(fn, layer: str, tracer: Tracer, count: list):
    stack = tracer.stack
    clock = tracer.clock
    close = tracer.exit

    def traced(*args, **kwargs):
        count[0] += 1
        if stack and stack[-1][0] == layer:
            return fn(*args, **kwargs)
        stack.append([layer, clock(), 0.0])
        try:
            return fn(*args, **kwargs)
        finally:
            close()

    traced.__wrapped__ = fn
    return traced


def _wrappable(value) -> bool:
    return inspect.isfunction(value) and not inspect.isgeneratorfunction(value)


@contextmanager
def instrument(tracer: Tracer) -> Iterator[Tracer]:
    """Patch every layer boundary to record on ``tracer``; undo on exit."""
    undo = []
    counts: Dict[str, list] = {}

    def wrap(fn, layer: str, name: str):
        return _traced(fn, layer, tracer, counts.setdefault(name, [0]))

    try:
        for cls, layer in LAYER_CLASSES:
            for name in dir(cls):
                if name.startswith("_"):
                    continue
                value = inspect.getattr_static(cls, name)
                if not _wrappable(value):
                    continue
                undo.append((cls, name, cls.__dict__.get(name)))
                setattr(cls, name,
                        wrap(value, layer, f"{cls.__name__}.{name}"))
        for module_name in FUNCTION_CONSUMERS:
            module = importlib.import_module(module_name)
            own = layer_of_module(module_name)
            for name, value in list(vars(module).items()):
                if not _wrappable(value):
                    continue
                layer = layer_of_module(value.__module__)
                if layer is None or layer == own:
                    continue
                undo.append((module, name, value))
                setattr(module, name, wrap(value, layer, name))
        yield tracer
    finally:
        tracer.calls.update({name: n for name, (n,) in counts.items() if n})
        for owner, name, original in reversed(undo):
            if original is None:
                delattr(owner, name)
            else:
                setattr(owner, name, original)

