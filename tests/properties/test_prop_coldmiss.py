"""Property tests: what an L1 miss fetches from memory, and what it costs.

A block's directory entry is created at its first miss and never
dropped, so the miss path takes "no directory entry" to mean "never on
chip".  Here the test keeps its own set of blocks ever brought on chip
and checks, across random accesses, evictions and way masks, that a
miss fetches from DRAM exactly when its block is outside that set and
outside every zero-filled range, and that its latency matches the
protocol's cost formula computed from the hop tables.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from repro.coherence.directory import DirState
from repro.coherence.protocol import MemorySystem
from tests.conftest import small_system

CORES = 4
#: Six blocks per L1 set (the test system's L1s have 4 sets of 4
#: ways), so fills evict as well as the explicit evict and mask ops.
BLOCKS = 24
#: Blocks [ZERO_START, ZERO_END) are OS-zeroed: chip-resident from the
#: start.  Blocks on both sides of the range fetch from DRAM.
ZERO_START, ZERO_END = 16, 20

ops_strategy = st.lists(
    st.one_of(
        st.tuples(st.just("access"), st.integers(0, CORES - 1),
                  st.integers(0, BLOCKS - 1), st.booleans()),
        # Evicts the core's resident line at this index, if it has any.
        st.tuples(st.just("evict"), st.integers(0, CORES - 1),
                  st.integers(0, 15)),
        st.tuples(st.just("mask"), st.integers(0, CORES - 1),
                  st.integers(1, 4)),
    ),
    min_size=10, max_size=150,
)


def expected_miss_latency(mem, core, block, is_write, on_chip):
    """The miss cost, from the directory state before the access."""
    lat = mem.config.latency
    topo = mem.topology
    bank = block % mem.config.l2_banks
    latency = 2 * topo.core_to_bank_latency(core, bank) + lat.directory
    entry = mem.directory.peek(block)
    if entry is not None and entry.state is DirState.EXCLUSIVE:
        owner = entry.owner
        return (latency + topo.core_to_bank_latency(owner, bank)
                + topo.core_to_core_latency(owner, core))
    if is_write and entry is not None and entry.state is DirState.SHARED:
        latency += max(topo.core_to_bank_latency(other, bank)
                       + topo.core_to_core_latency(other, core)
                       for other in entry.sharers)
    if block in on_chip or ZERO_START <= block < ZERO_END:
        return latency + lat.l2_hit
    return (latency + lat.memory
            + 2 * topo.bank_to_memory_hops(bank, block) * lat.hop)


@pytest.mark.parametrize("fast_path", [True, False])
@settings(max_examples=80, deadline=None)
@given(ops=ops_strategy)
def test_miss_fetches_exactly_blocks_never_on_chip(fast_path, ops):
    mem = MemorySystem(small_system(), fast_path=fast_path)
    mem.mark_zero_filled(ZERO_START, ZERO_END)
    on_chip = set()
    for op in ops:
        kind, core = op[0], op[1]
        if kind == "evict":
            resident = sorted(line.block for line in mem.cache(core).lines())
            if resident:
                mem.evict(core, resident[op[2] % len(resident)])
            continue
        if kind == "mask":
            mem.mask_ways(core, op[2])
            continue
        block, is_write = op[2], op[3]
        missed = mem.cache(core).lookup(block) is None
        expected = (expected_miss_latency(mem, core, block, is_write,
                                          on_chip) if missed else None)
        fetches = mem.stats.memory_fetches
        res = mem.access(core, block, is_write)
        fetched = mem.stats.memory_fetches - fetches
        assert res.hit is not missed
        if missed:
            cold = (block not in on_chip
                    and not ZERO_START <= block < ZERO_END)
            assert fetched == int(cold)
            assert res.latency == expected
            on_chip.add(block)
        else:
            assert fetched == 0
    mem.audit()
    assert set(block for block, _entry in mem.directory.blocks()) == on_chip
