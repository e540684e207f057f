"""Host time at a fixed reference speed.

The benchmark runs on shared virtual machines whose CPU speed drifts
by tens of percent within a second, and by as much again between runs:
a fixed pure-Python loop timed back to back on a 2-vCPU Xeon guest
ranged from 42 to 85 ms.  CPU time drifts with wall time there, so the
cause is a slower CPU, not descheduling, and neither clock removes it.

So the benchmark times a fixed reference workload between its
simulations, and rescales their host seconds to the speed at which
the reference takes :data:`REFERENCE_S`::

    seconds * REFERENCE_S / mean(reference before, reference after)

The reference touches no simulator code.  It is a small set-associative
cache model written like the simulator: objects with slots, dict and
set lookups and bound-method calls over a working set of a few
thousand lines.  A plain arithmetic loop tracks the simulator's speed
less well: over ten passes of one cell on that guest, the per-pass
host time varied with a coefficient of variation of 0.096 raw, 0.066
rescaled by an arithmetic loop, and 0.023 rescaled by this model.

A change that makes the simulator faster changes the simulated part
only, so it shows in full; a host that is slower for a moment slows
both parts and cancels out.
"""

from __future__ import annotations

import random
import time
from typing import List, Tuple

#: Seconds the reference takes at the reference speed (about its
#: median on a 2-vCPU Intel Xeon guest with Python 3.11).  Every timed
#: end-to-end metric is in seconds at this speed.
REFERENCE_S = 0.05

#: Sets, ways and addressed blocks of the reference cache model.
_SETS = 1024
_WAYS = 8
_BLOCKS = 1 << 16


class _Line:
    __slots__ = ("tag", "state", "sharers")

    def __init__(self, tag: int):
        self.tag = tag
        self.state = 0
        self.sharers = set()


class _Cache:
    def __init__(self):
        self.sets = [{} for _ in range(_SETS)]
        self.misses = 0

    def access(self, block: int, core: int) -> int:
        lines = self.sets[block & (_SETS - 1)]
        line = lines.get(block)
        if line is None:
            self.misses += 1
            if len(lines) >= _WAYS:
                lines.pop(next(iter(lines)))
            line = lines[block] = _Line(block)
        line.sharers.add(core)
        if len(line.sharers) > 4:
            line.sharers.clear()
            line.state ^= 1
        return line.state


def _accesses(count: int) -> List[Tuple[int, int]]:
    rng = random.Random(2008)
    return [(rng.randrange(_BLOCKS), rng.randrange(32))
            for _ in range(count)]


_ACCESSES = _accesses(40_000)


def reference_s() -> float:
    """Seconds the reference workload takes on this host just now."""
    start = time.perf_counter()
    access = _Cache().access
    for block, core in _ACCESSES:
        access(block, core)
    return time.perf_counter() - start


def at_reference_speed(seconds: float, before: float, after: float) -> float:
    """``seconds`` measured between references that took ``before``
    and ``after`` seconds, rescaled to the reference speed."""
    return seconds * REFERENCE_S * 2.0 / (before + after)
