"""Configuration dataclasses for the simulated CMP and HTM variants.

The defaults model the paper's base system (Section 6.1): a 32-core
CMP with in-order single-issue cores, 4-way 32 KB private write-back
L1 caches, a shared 8-way 8 MB L2 in 32 banks interleaved by block
address, a tiled interconnect of 8 clusters of 4 cores, four memory
controllers, and an on-chip directory MESI protocol.

Latency constants are expressed in core cycles.  They are calibrated
to produce plausible relative timing, not to match GEMS absolutely;
the paper's evaluation only relies on relative shapes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from repro.common.errors import ConfigError

#: Cache block (line) size used throughout the paper: 64 bytes.
BLOCK_SIZE = 64

#: log2(BLOCK_SIZE); addresses are converted to block numbers by this shift.
BLOCK_SHIFT = 6

#: Number of tokens per memory block.  The paper leaves T as "some
#: large constant"; the 14-bit Attr field of the in-memory metabits
#: bounds representable reader counts, so we pick T = 2**14 to line up
#: with that encoding.
DEFAULT_TOKENS_PER_BLOCK = 1 << 14


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ConfigError(message)


def _is_pow2(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class CacheGeometry:
    """Geometry of one cache level.

    Attributes
    ----------
    size_bytes:
        Total data capacity in bytes.
    associativity:
        Number of ways per set.
    block_size:
        Line size in bytes (64 in the paper).
    """

    size_bytes: int
    associativity: int
    block_size: int = BLOCK_SIZE

    def __post_init__(self) -> None:
        _require(self.size_bytes > 0, "cache size must be positive")
        _require(self.associativity > 0, "associativity must be positive")
        _require(_is_pow2(self.block_size), "block size must be a power of two")
        _require(
            self.size_bytes % (self.associativity * self.block_size) == 0,
            "cache size must be divisible by way size",
        )
        _require(_is_pow2(self.num_sets), "number of sets must be a power of two")

    @property
    def num_sets(self) -> int:
        """Number of sets in the cache."""
        return self.size_bytes // (self.associativity * self.block_size)

    @property
    def num_blocks(self) -> int:
        """Total number of lines the cache can hold."""
        return self.num_sets * self.associativity

    def set_index(self, block_addr: int) -> int:
        """Map a block address (already shifted) to its set index."""
        return block_addr & (self.num_sets - 1)


@dataclass(frozen=True)
class LatencyModel:
    """Cycle costs of the memory system and TM software actions.

    The TM-specific constants model the software handlers the paper
    describes: log writes on token acquisition, per-entry costs of the
    software token-release walk, and per-entry undo costs on abort.
    """

    l1_hit: int = 1
    l2_hit: int = 20
    memory: int = 200
    #: Per-hop latency on the tiled interconnect (link + router).
    hop: int = 3
    #: Directory lookup/occupancy overhead at an L2 bank.
    directory: int = 6
    #: Extra cycles to write one log record (token and/or old value)
    #: when the log block is locally cached.  Log stalls (misses on the
    #: log block) are modelled separately by the executor.
    log_write: int = 4
    #: Cycles to release one logged token during a software log walk.
    token_release: int = 12
    #: Cycles to restore one logged old value during abort unrolling.
    undo_write: int = 16
    #: Constant cost of a fast (flash-clear) token release.
    fast_release: int = 2
    #: Constant cost of begin/commit register bookkeeping.
    txn_begin: int = 4
    txn_commit: int = 4
    #: Cost of trapping to the software contention manager.
    conflict_trap: int = 80
    #: OS overhead of a context switch (scheduler + register state),
    #: on top of the HTM's own switch instruction cost.
    os_switch: int = 400

    def __post_init__(self) -> None:
        for name in (
            "l1_hit", "l2_hit", "memory", "hop", "directory", "log_write",
            "token_release", "undo_write", "fast_release", "txn_begin",
            "txn_commit", "conflict_trap", "os_switch",
        ):
            _require(getattr(self, name) >= 0, f"latency {name} must be >= 0")


@dataclass(frozen=True)
class SystemConfig:
    """Full description of the simulated CMP.

    Defaults follow the paper's 32-core base system.  ``clusters`` and
    ``cores_per_cluster`` define the tiled interconnect topology used
    for hop-count latency computation.
    """

    num_cores: int = 32
    clusters: int = 8
    cores_per_cluster: int = 4
    l1: CacheGeometry = field(
        default_factory=lambda: CacheGeometry(32 * 1024, 4)
    )
    l2: CacheGeometry = field(
        default_factory=lambda: CacheGeometry(8 * 1024 * 1024, 8)
    )
    l2_banks: int = 32
    memory_controllers: int = 4
    latency: LatencyModel = field(default_factory=LatencyModel)

    def __post_init__(self) -> None:
        _require(self.num_cores > 0, "need at least one core")
        _require(
            self.clusters * self.cores_per_cluster == self.num_cores,
            "clusters * cores_per_cluster must equal num_cores",
        )
        _require(_is_pow2(self.l2_banks), "L2 bank count must be a power of two")
        _require(self.memory_controllers > 0, "need at least one memory controller")

    def l2_bank_of(self, block_addr: int) -> int:
        """L2 bank for a block (banks interleaved by block address)."""
        return block_addr & (self.l2_banks - 1)

    def cluster_of(self, core: int) -> int:
        """Cluster that a core belongs to."""
        _require(0 <= core < self.num_cores, f"core {core} out of range")
        return core // self.cores_per_cluster

    def scaled(self, num_cores: int) -> "SystemConfig":
        """Return a copy resized to ``num_cores`` (keeps 4-core clusters).

        Used by scaling sweeps.  ``num_cores`` must be a multiple of
        ``cores_per_cluster``.
        """
        _require(
            num_cores % self.cores_per_cluster == 0,
            "num_cores must be a multiple of cores_per_cluster",
        )
        return replace(
            self,
            num_cores=num_cores,
            clusters=num_cores // self.cores_per_cluster,
        )


@dataclass(frozen=True)
class SignatureConfig:
    """Geometry of a LogTM-SE Bloom-filter signature.

    The paper's best-performing designs (after Sanchez et al.) are
    2 Kbit signatures with 2 or 4 parallel H3 hash functions.
    """

    bits: int = 2048
    num_hashes: int = 4
    #: "perfect" replaces the Bloom filter with exact sets (the
    #: unimplementable LogTM-SE_Perf baseline).
    perfect: bool = False

    def __post_init__(self) -> None:
        _require(_is_pow2(self.bits), "signature size must be a power of two")
        _require(self.num_hashes >= 1, "need at least one hash function")
        if not self.perfect:
            _require(
                self.bits % self.num_hashes == 0
                and _is_pow2(self.bits // self.num_hashes)
                and self.bits // self.num_hashes >= 2,
                "signature must split into power-of-two banks",
            )

    @property
    def index_bits(self) -> int:
        """Bits needed to index one position in the whole filter."""
        return int(math.log2(self.bits))

    @property
    def bank_index_bits(self) -> int:
        """Bits indexing one position within a per-hash bank."""
        return int(math.log2(self.bits // self.num_hashes))


@dataclass(frozen=True)
class HTMConfig:
    """Parameters shared by all simulated HTM variants."""

    tokens_per_block: int = DEFAULT_TOKENS_PER_BLOCK
    #: Exponential back-off cap, in cycles, for aborted transactions.
    max_backoff: int = 4096
    #: Signature geometry for LogTM-SE variants; ignored by TokenTM.
    signature: SignatureConfig = field(default_factory=SignatureConfig)
    #: Abort a transaction after this many consecutive failed retries
    #: of one access (safety valve against livelock in the simulator).
    max_stall_retries: int = 64

    def __post_init__(self) -> None:
        _require(self.tokens_per_block >= 2, "need at least 2 tokens per block")
        _require(self.max_backoff >= 1, "max_backoff must be >= 1")
        _require(self.max_stall_retries >= 1, "max_stall_retries must be >= 1")


@dataclass(frozen=True)
class RunConfig:
    """Top-level knob bundle handed to the executor."""

    system: SystemConfig = field(default_factory=SystemConfig)
    htm: HTMConfig = field(default_factory=HTMConfig)
    seed: int = 0
