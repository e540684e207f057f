"""Property tests: ``needs_directory`` agrees with a subsequent ``access``.

``needs_directory`` previews an access for the HTM layer (it decides
which requests LogTM-SE signature-checks); ``access`` is what actually
happens.  The preview must be True exactly when the access misses in
the L1 or upgrades a shared line, and a False preview must be a pure
L1 hit: served by ``fast_hit`` with the line's interned result.  The
agreement must hold just the same on the reference memory system,
whose plain L1 hit never goes through ``fast_hit``, and both machines
must give the same answer at every step.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from repro.coherence.protocol import MemorySystem
from tests.conftest import ReferenceMemorySystem, small_system

CORES = 4

#: A small block pool maximizes sharing, stealing, and upgrades; a
#: few blocks alias the same L1 set so evictions occur too.
ops_strategy = st.lists(
    st.tuples(st.integers(0, CORES - 1), st.integers(0, 23), st.booleans()),
    min_size=1, max_size=120,
)


def check_agreement(mem, core, block, is_write):
    needs = mem.needs_directory(core, block, is_write)
    fp = mem.fastpath
    pure_hits = fp.coherence_read_hits + fp.coherence_write_hits
    res = mem.access(core, block, is_write)
    assert needs == (not res.hit or res.upgraded)
    served = fp.coherence_read_hits + fp.coherence_write_hits - pure_hits
    interned = not isinstance(mem, ReferenceMemorySystem)
    assert served == (interned and not needs)
    if not needs:
        # No directory action promised: L1-hit latency, no coherence
        # side effects, no state change visible to others.
        assert res.latency == mem.config.latency.l1_hit
        assert res.invalidated == ()
        assert not res.filled
        assert (res is res.line.hit) == interned


@pytest.mark.parametrize("interned", [True, False])
@settings(max_examples=60, deadline=None)
@given(ops=ops_strategy)
def test_preview_agrees_with_access(interned, ops):
    mem = (MemorySystem if interned else ReferenceMemorySystem)(
        small_system())
    for core, block, is_write in ops:
        check_agreement(mem, core, block, is_write)
    mem.audit()


@settings(max_examples=60, deadline=None)
@given(ops=ops_strategy)
def test_preview_identical_across_modes(ops):
    """Both machines must give the same answer at every step."""
    fast = MemorySystem(small_system())
    slow = ReferenceMemorySystem(small_system())
    for core, block, is_write in ops:
        assert (fast.needs_directory(core, block, is_write)
                == slow.needs_directory(core, block, is_write))
        a = fast.access(core, block, is_write)
        b = slow.access(core, block, is_write)
        assert (a.latency, a.hit, a.invalidated, a.source) \
            == (b.latency, b.hit, b.invalidated, b.source)
    assert fast.stats.snapshot() == slow.stats.snapshot()
