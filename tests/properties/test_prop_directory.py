"""Property test: the int-coded directory against the L1s it describes.

``Directory`` keeps each block's state as one int (the owner core, or
the complement of a sharer bit mask), and the protocol engine writes
those codes inline on every fill, invalidation, downgrade, upgrade
and eviction.  Across random sequences of ``MemorySystem.access`` and
``evict`` calls on tiny L1s (so fills also evict), every block's
directory view must equal a model built on sets from the lines the
L1s actually hold: the holders are the cores with a copy, and a core
holding the block MODIFIED or EXCLUSIVE is its sole owner.  Evicting
a block the core does not hold must raise :class:`CoherenceError` and
change nothing.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import CoherenceError
from repro.coherence.cache import MESI
from repro.coherence.directory import DirState
from repro.coherence.protocol import MemorySystem
from tests.conftest import small_system

CORES = 4
#: More blocks than one 16-line L1 holds, so fills evict.
BLOCKS = 24

OPS = ("read", "write", "evict")

ops_strategy = st.lists(
    st.tuples(st.sampled_from(OPS), st.integers(0, BLOCKS - 1),
              st.integers(0, CORES - 1)),
    min_size=1, max_size=80,
)


def set_model(mem):
    """Block -> (owner or None, set of holders), from the L1 lines."""
    holders = {}
    owner = {}
    for core in range(CORES):
        for line in mem.cache(core).lines():
            holders.setdefault(line.block, set()).add(core)
            if line.state in (MESI.MODIFIED, MESI.EXCLUSIVE):
                owner[line.block] = core
    return owner, holders


@settings(max_examples=300, deadline=None)
@given(ops=ops_strategy)
def test_codes_match_set_model(ops):
    mem = MemorySystem(small_system(cores=CORES))
    directory = mem.directory
    for name, block, core in ops:
        if name == "evict":
            resident = mem.cache(core).lookup(block) is not None
            before = dict(directory.entries)
            try:
                mem.evict(core, block)
            except CoherenceError:
                assert not resident, (core, block)
                assert directory.entries == before
            else:
                assert resident, (core, block)
        else:
            mem.access(core, block, name == "write")
        owner, holders = set_model(mem)
        for b in range(BLOCKS):
            entry = directory.entry(b)
            expected = holders.get(b, set())
            assert entry.holders() == expected, (b, entry.holders())
            assert entry.owner == owner.get(b)
            if b in owner:
                assert expected == {owner[b]}
                assert entry.state is DirState.EXCLUSIVE
            elif expected:
                assert entry.state is DirState.SHARED
            else:
                assert entry.state is DirState.UNCACHED
