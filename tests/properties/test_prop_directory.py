"""Property test: the int-coded directory against a model built on sets.

``Directory`` keeps each block's state as one int (the owner core, or
the complement of a sharer bit mask).  The reference here keeps the
obvious representation, an owner or a set of sharers per block, and
applies the same transition rules.  Across random sequences of
``record_*`` calls, each call must raise :class:`CoherenceError`
exactly when the reference rejects it, and afterwards every block's
view must show the reference's state, owner and holders.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import CoherenceError
from repro.coherence.directory import Directory, DirState

CORES = 6
BLOCKS = 3

OPS = ("shared_fill", "exclusive_fill", "eviction", "upgrade", "downgrade")

ops_strategy = st.lists(
    st.tuples(st.sampled_from(OPS), st.integers(0, BLOCKS - 1),
              st.integers(0, CORES - 1)),
    min_size=1, max_size=60,
)


class SetDirectory:
    """Per block: (owner or None, set of sharers); an owner excludes
    sharers.  Each method returns False where the transition is
    illegal, leaving the state untouched."""

    def __init__(self):
        self.owner = {}
        self.sharers = {}

    def state(self, block):
        if self.owner.get(block) is not None:
            return DirState.EXCLUSIVE
        return DirState.SHARED if self.sharers.get(block) else \
            DirState.UNCACHED

    def holders(self, block):
        owner = self.owner.get(block)
        return {owner} if owner is not None else set(
            self.sharers.get(block, ()))

    def shared_fill(self, block, core):
        if self.owner.get(block) is not None:
            return False
        self.sharers.setdefault(block, set()).add(core)
        return True

    def exclusive_fill(self, block, core):
        if self.holders(block) - {core}:
            return False
        self.owner[block] = core
        self.sharers[block] = set()
        return True

    def eviction(self, block, core):
        if self.owner.get(block) is not None:
            if self.owner[block] != core:
                return False
            self.owner[block] = None
            return True
        if core not in self.sharers.get(block, ()):
            return False
        self.sharers[block].discard(core)
        return True

    def upgrade(self, block, core):
        if self.sharers.get(block, set()) != {core}:
            return False
        self.owner[block] = core
        self.sharers[block] = set()
        return True

    def downgrade(self, block, requester):
        owner = self.owner.get(block)
        if owner is None:
            return False
        self.owner[block] = None
        self.sharers[block] = {owner, requester}
        return True


@settings(max_examples=300, deadline=None)
@given(ops=ops_strategy)
def test_codes_match_set_model(ops):
    directory = Directory()
    model = SetDirectory()
    for name, block, core in ops:
        accepted = getattr(model, name)(block, core)
        try:
            getattr(directory, f"record_{name}")(block, core)
        except CoherenceError:
            assert not accepted, (name, block, core)
        else:
            assert accepted, (name, block, core)
        for b in range(BLOCKS):
            entry = directory.entry(b)
            assert entry.state is model.state(b)
            assert entry.owner == model.owner.get(b)
            assert entry.holders() == model.holders(b)
