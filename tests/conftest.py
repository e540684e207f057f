"""Shared fixtures: small machine configurations for fast tests."""

from __future__ import annotations

import pytest

from repro.common.config import (
    CacheGeometry,
    HTMConfig,
    LatencyModel,
    SystemConfig,
)
from repro.coherence.cache import MESI, CacheLine
from repro.coherence.protocol import AccessResult, MemorySystem
from repro.htm import make_htm
from repro.runtime.executor import run_workload

#: A small token count keeps unit-test arithmetic readable.  8 is
#: large enough for multi-reader scenarios and small enough to write
#: expected values by hand.
SMALL_T = 8


def small_system(cores: int = 4, l1_kb: int = 1) -> SystemConfig:
    """A 4-core system with tiny L1s (16 lines) to force evictions."""
    return SystemConfig(
        num_cores=cores,
        clusters=cores,
        cores_per_cluster=1,
        l1=CacheGeometry(l1_kb * 1024, 4),
        l2=CacheGeometry(1024 * 1024, 8),
        l2_banks=4,
        memory_controllers=2,
        latency=LatencyModel(),
    )


def run_audited(htm, trace, config, audit: bool = True, **kwargs):
    """``run_workload``, then (unless ``audit`` is False) the machine's
    invariant audit on the finished run."""
    result = run_workload(htm, trace, config, **kwargs)
    if audit:
        htm.audit()
    return result


class ReferenceMemorySystem(MemorySystem):
    """The memory system with a plain L1 hit: the oracle that the
    production hit path (:meth:`MemorySystem.fast_hit`) must match.

    A pure hit (any read of a resident line; a write to an M or E
    line) is committed by this ``fast_hit`` override, whether
    ``access`` or an HTM that found the line with ``resident`` asks
    for it: ``touch_line`` and a fresh ``AccessResult``, never the
    line's interned ``CacheLine.hit``, so the fast-path counters stay
    0.  Misses and S->M upgrades take the production paths.
    """

    def fast_hit(self, core: int, line: CacheLine,
                 is_write: bool) -> AccessResult:
        self.cache(core).touch_line(line)
        if is_write:
            self.stats.writes += 1
            line.state = MESI.MODIFIED
        else:
            self.stats.reads += 1
        self.stats.l1_hits += 1
        return AccessResult(self.config.latency.l1_hit, True, line)


@pytest.fixture
def sys4() -> SystemConfig:
    return small_system()


@pytest.fixture
def htm_cfg() -> HTMConfig:
    return HTMConfig(tokens_per_block=SMALL_T)


@pytest.fixture
def mem(sys4) -> MemorySystem:
    return MemorySystem(sys4)


@pytest.fixture
def tokentm(sys4, htm_cfg):
    return make_htm("TokenTM", MemorySystem(sys4), htm_cfg)


@pytest.fixture
def tokentm_nofast(sys4, htm_cfg):
    return make_htm("TokenTM_NoFast", MemorySystem(sys4), htm_cfg)


def make_variant(name: str, system: SystemConfig = None,
                 config: HTMConfig = None):
    """Fresh machine of any variant on its own memory system."""
    system = system or small_system()
    config = config or HTMConfig(tokens_per_block=SMALL_T)
    return make_htm(name, MemorySystem(system), config)
