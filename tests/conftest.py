"""Shared fixtures: small machine configurations for fast tests."""

from __future__ import annotations

import pytest

from repro.common.config import (
    CacheGeometry,
    HTMConfig,
    LatencyModel,
    SystemConfig,
)
from repro.coherence.cache import MESI
from repro.coherence.protocol import AccessResult, MemorySystem
from repro.htm import make_htm

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


class ReferenceMemorySystem(MemorySystem):
    """The memory system with a plain L1 hit: the oracle that the
    production hit path (:meth:`MemorySystem.fast_hit`) must match.

    A resident line that needs no directory action (any read; a write
    to an M or E line) is served through ``L1Cache.lookup`` and
    ``touch_line`` with a fresh ``AccessResult``: never ``fast_hit``,
    never the line's interned ``CacheLine.hit``, so the fast-path
    counters stay 0.  Misses and S->M upgrades take the production
    paths.
    """

    def access(self, core: int, block: int, is_write: bool) -> AccessResult:
        cache = self.cache(core)
        line = cache.lookup(block)
        if line is None or (is_write and line.state is MESI.SHARED):
            return super().access(core, block, is_write)
        cache.touch_line(line)
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
