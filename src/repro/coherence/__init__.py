"""Cache-coherent memory system substrate (directory MESI)."""

from repro.coherence.cache import CacheLine, L1Cache, MESI
from repro.coherence.directory import Directory, DirectoryEntry, DirState
from repro.coherence.protocol import (
    MEMORY_HOLDER,
    AccessResult,
    CoherenceListener,
    MemorySystem,
    ProtocolStats,
)

__all__ = [
    "MESI",
    "CacheLine",
    "L1Cache",
    "Directory",
    "DirectoryEntry",
    "DirState",
    "MEMORY_HOLDER",
    "AccessResult",
    "CoherenceListener",
    "MemorySystem",
    "ProtocolStats",
]
