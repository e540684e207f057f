"""Synthetic transactional workload generator.

The paper evaluates on STAMP and SPLASH binaries under Simics; those
runs are substituted here (see DESIGN.md) by synthetic generators
calibrated to the paper's Table 5: transaction counts and average and
maximum read-/write-set sizes, plus per-benchmark sharing structure
that determines conflict behaviour.

The key modelling decisions:

* **Set sizes** come from a two-component mixture — a geometric body
  around a base mean plus a rare heavy tail — because Table 5 pairs
  small averages with very large maxima (Raytrace: average read set
  5.1 blocks, maximum 594).  Read and write tails are correlated: a
  transaction drawn from the tail is large in both sets, as a large
  Delaunay cavity re-triangulation is.
* **Sharing** uses a hot/cold split of a shared block region; the hot
  fraction and region size set the conflict probability, standing in
  for each benchmark's data-structure contention.
* **Read-modify-write**: a configurable fraction of written blocks
  come from the transaction's own read set, exercising the
  read-to-write upgrade path (TokenTM's (1,X) -> (T,X) transition).
"""

from __future__ import annotations

import zlib

import math
from dataclasses import dataclass, field, replace
from typing import List, Optional, Sequence, Set

from repro.common.errors import ConfigError
from repro.common.rng import below, substream
from repro.workloads.trace import (
    OP_BEGIN,
    OP_COMMIT,
    OP_COMPUTE,
    OP_NT_READ,
    OP_NT_WRITE,
    OP_READ,
    OP_WRITE,
    Op,
    ThreadTrace,
    WorkloadTrace,
)

#: Base block number of the shared data region (clear of address 0 and
#: far below the per-thread log region at 2**40).
SHARED_REGION_BASE = 1 << 20
#: Base of per-thread private regions; thread t gets a disjoint window.
PRIVATE_REGION_BASE = 1 << 28
PRIVATE_REGION_SPAN = 1 << 16


def _stable_hash(name: str) -> int:
    """Process-independent name hash (builtin hash() is randomized)."""
    return zlib.crc32(name.encode("utf-8")) & 0xFFFF


@dataclass(frozen=True)
class SetSizeModel:
    """Mixture model for per-transaction set sizes.

    With probability ``tail_prob`` the size is drawn geometrically
    around ``tail_mean``; otherwise around ``base_mean``.  All draws
    are clipped to [minimum, maximum].
    """

    base_mean: float
    maximum: int
    tail_prob: float = 0.0
    tail_mean: float = 0.0
    minimum: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.tail_prob <= 1.0:
            raise ConfigError("tail_prob must be a probability")
        if self.maximum < self.minimum:
            raise ConfigError("maximum below minimum")

    def sample(self, rng, in_tail: bool) -> int:
        """Draw one size; ``in_tail`` selects the mixture component."""
        mean = self.tail_mean if in_tail and self.tail_prob > 0 else \
            self.base_mean
        if mean <= self.minimum:
            return self.minimum
        # Geometric with the requested mean above the minimum.
        p = 1.0 / (mean - self.minimum + 1.0)
        u = rng.random()
        if u >= 1.0:  # pragma: no cover - random() < 1.0 by contract
            u = 0.999999
        value = self.minimum + int(math.log(1.0 - u) / math.log(1.0 - p)) \
            if p < 1.0 else self.minimum
        return max(self.minimum, min(self.maximum, value))


@dataclass(frozen=True)
class TxnWorkloadSpec:
    """Full parameterization of one synthetic TM workload."""

    name: str
    #: Table 5 "Num Xacts" (total across all threads).
    total_txns: int
    read_model: SetSizeModel
    write_model: SetSizeModel
    #: Probability one transaction is a heavy-tail (large) one; shared
    #: between the read and write models to correlate their sizes.
    tail_prob: float
    #: Shared-region geometry: conflicts happen on hot blocks.
    region_blocks: int
    hot_blocks: int
    hot_prob: float
    #: Fraction of written blocks taken from the txn's own read set.
    rmw_fraction: float
    #: Think-time cycles between consecutive accesses in a txn.
    compute_per_access: int
    #: Cycles of non-transactional work between transactions.
    inter_txn_compute: int
    #: Non-transactional private accesses between transactions.
    nontxn_accesses: int = 2
    threads: int = 32
    #: When non-zero, each transaction's cold accesses cluster in a
    #: window of this many blocks around a per-transaction center
    #: (spatial locality: e.g. a Delaunay cavity sits in one mesh
    #: neighbourhood, so concurrent cavities rarely truly overlap
    #: even though each is large).  Hot accesses still target the
    #: global hot set.  Zero means uniform over the whole region.
    locality_window: int = 0

    def __post_init__(self) -> None:
        if self.total_txns <= 0:
            raise ConfigError("total_txns must be positive")
        if self.hot_blocks > self.region_blocks:
            raise ConfigError("hot set larger than region")
        for prob in (self.tail_prob, self.hot_prob, self.rmw_fraction):
            if not 0.0 <= prob <= 1.0:
                raise ConfigError("probabilities must be in [0, 1]")
        # Set sizes count distinct blocks; a spec that can ask for more
        # than its picks reach would loop forever in the generator.
        if self.hot_blocks and self.hot_prob == 1.0:
            reach = self.hot_blocks
        else:
            reach = self.region_blocks
        if max(self.read_model.maximum, self.write_model.maximum) > reach:
            raise ConfigError(
                f"set sizes up to {reach} distinct blocks are reachable")
        if (self.rmw_fraction == 1.0 and self.read_model.maximum > 0
                and self.write_model.maximum
                > max(1, self.read_model.minimum)):
            raise ConfigError(
                "with rmw_fraction 1.0 every write set must fit in the "
                "smallest non-empty read set")


class SyntheticTxnWorkload:
    """Generates :class:`WorkloadTrace` instances from a spec."""

    def __init__(self, spec: TxnWorkloadSpec):
        self.spec = spec

    def scaled_spec(self, scale: float) -> TxnWorkloadSpec:
        """Spec with the transaction count scaled by ``scale``."""
        if scale <= 0:
            raise ConfigError("scale must be positive")
        count = max(self.spec.threads, int(self.spec.total_txns * scale))
        return replace(self.spec, total_txns=count)

    def generate(self, seed: int = 0, scale: float = 1.0,
                 threads: Optional[int] = None) -> WorkloadTrace:
        """Produce the per-thread operation streams.

        ``scale`` shrinks (or grows) the transaction count uniformly —
        benchmark harnesses use small scales to keep runtimes sane and
        report the scale they used.  The generator is deterministic in
        (seed, scale, threads).
        """
        spec = self.scaled_spec(scale)
        nthreads = threads if threads is not None else spec.threads
        if threads is not None:
            spec = replace(spec, threads=threads)
        per_thread = self._split_txns(spec.total_txns, nthreads)
        traces = []
        for t in range(nthreads):
            rng = substream(seed, _stable_hash(spec.name), t)
            ops = self._thread_ops(spec, rng, t, per_thread[t])
            traces.append(ThreadTrace(t, ops))
        return WorkloadTrace(
            name=spec.name,
            threads=traces,
            params={
                "seed": seed,
                "scale": scale,
                "threads": nthreads,
                "total_txns": spec.total_txns,
            },
        )

    @staticmethod
    def _split_txns(total: int, threads: int) -> List[int]:
        base, extra = divmod(total, threads)
        return [base + (1 if t < extra else 0) for t in range(threads)]

    # ------------------------------------------------------------------

    def _thread_ops(self, spec: TxnWorkloadSpec, rng, thread: int,
                    txns: int) -> List[Op]:
        ops: List[Op] = []
        private_base = PRIVATE_REGION_BASE + thread * PRIVATE_REGION_SPAN
        for _ in range(txns):
            self._emit_inter_txn(spec, rng, private_base, ops)
            self._emit_txn(spec, rng, ops)
        self._emit_inter_txn(spec, rng, private_base, ops)
        return ops

    def _emit_inter_txn(self, spec: TxnWorkloadSpec, rng,
                        private_base: int, ops: List[Op]) -> None:
        if spec.inter_txn_compute > 0:
            # randint(inter // 2, inter * 3 // 2)
            low = spec.inter_txn_compute // 2
            jitter = low + below(rng, spec.inter_txn_compute * 3 // 2
                                 - low + 1)
            ops.append((OP_COMPUTE, max(1, jitter)))
        for _ in range(spec.nontxn_accesses):
            block = private_base + below(rng, PRIVATE_REGION_SPAN)
            if rng.random() < 0.5:
                ops.append((OP_NT_READ, block))
            else:
                ops.append((OP_NT_WRITE, block))

    def _emit_txn(self, spec: TxnWorkloadSpec, rng, ops: List[Op]) -> None:
        # Every bounded draw below inlines repro.common.rng.below, with
        # each range's bit length k computed once per transaction.
        random = rng.random
        getrandbits = rng.getrandbits
        hot = spec.hot_blocks
        hot_k = hot.bit_length()
        hot_prob = spec.hot_prob
        region = spec.region_blocks
        region_k = region.bit_length()
        # Think times are randint(max(1, think // 2), think * 3 // 2).
        think = spec.compute_per_access
        think_low = max(1, think // 2)
        think_n = think * 3 // 2 - think_low + 1
        think_k = think_n.bit_length()
        in_tail = random() < spec.tail_prob
        n_reads = spec.read_model.sample(rng, in_tail)
        n_writes = spec.write_model.sample(rng, in_tail)

        center = window = window_k = 0
        if spec.locality_window:
            center = getrandbits(region_k)
            while center >= region:
                center = getrandbits(region_k)
            # The window must comfortably contain the transaction's
            # distinct blocks; giants get proportionally wider ones.
            window = max(spec.locality_window, 3 * (n_reads + n_writes))
            window_k = window.bit_length()

        # Reads are distinct picks from the shared region; writes take
        # a block of the read set with probability rmw_fraction (the
        # read-modify-write upgrade) and otherwise pick like reads.
        read_blocks: List[int] = []
        write_blocks: List[int] = []
        for blocks, count, rmw_source, rmw_prob in (
                (read_blocks, n_reads, (), 0.0),
                (write_blocks, n_writes, read_blocks, spec.rmw_fraction)):
            seen: Set[int] = set()
            size = len(rmw_source)
            size_k = size.bit_length()
            while len(blocks) < count:
                if rmw_source and random() < rmw_prob:
                    r = getrandbits(size_k)
                    while r >= size:
                        r = getrandbits(size_k)
                    block = rmw_source[r]
                elif hot and random() < hot_prob:
                    r = getrandbits(hot_k)
                    while r >= hot:
                        r = getrandbits(hot_k)
                    block = SHARED_REGION_BASE + r
                elif window:
                    r = getrandbits(window_k)
                    while r >= window:
                        r = getrandbits(window_k)
                    block = SHARED_REGION_BASE + (center + r) % region
                else:
                    r = getrandbits(region_k)
                    while r >= region:
                        r = getrandbits(region_k)
                    block = SHARED_REGION_BASE + r
                if block not in seen:
                    seen.add(block)
                    blocks.append(block)

        # Read phase first (lookups), writes interleaved into the
        # second half (updates) — the common pattern in STAMP kernels:
        # with more than two reads, the first half of the writes
        # follows the middle read and the rest follow the last.
        accesses = [(OP_READ, block) for block in read_blocks]
        writes = [(OP_WRITE, block) for block in write_blocks]
        if len(accesses) > 2:
            cut = len(accesses) // 2 + 1
            half = len(writes) // 2
            accesses[cut:cut] = writes[:half]
            accesses += writes[half:]
        else:
            accesses += writes

        ops.append((OP_BEGIN, 0))
        for op in accesses:
            ops.append(op)
            if think:
                r = getrandbits(think_k)
                while r >= think_n:
                    r = getrandbits(think_k)
                ops.append((OP_COMPUTE, think_low + r))
        if not accesses:
            ops.append((OP_COMPUTE, max(1, think)))
        ops.append((OP_COMMIT, 0))
