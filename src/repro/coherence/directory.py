"""Directory state for the MESI protocol.

The directory lives logically at the L2 banks and tracks, per block, a
bit vector of sharers or the single exclusive owner.  Because the
paper's TokenTM prohibits silent evictions of clean data, the
directory here is *exact*: the sharer list always equals the set of
caches actually holding the block.
"""

from __future__ import annotations

from enum import Enum
from typing import Dict, Optional, Set

from repro.common.errors import CoherenceError


class DirState(Enum):
    """Directory-visible state of a block."""

    UNCACHED = "U"
    SHARED = "S"
    EXCLUSIVE = "X"  # one owner, possibly dirty (covers MESI M and E)


class DirectoryEntry:
    """Sharer/owner bookkeeping for one block."""

    __slots__ = ("state", "owner", "sharers")

    def __init__(self, state: DirState = DirState.UNCACHED,
                 owner: Optional[int] = None) -> None:
        self.state = state
        self.owner = owner
        self.sharers: Set[int] = set()

    def holders(self) -> Set[int]:
        """All cores the directory believes hold the block."""
        if self.state is DirState.EXCLUSIVE:
            return {self.owner} if self.owner is not None else set()
        return set(self.sharers)


class Directory:
    """Exact full-map directory over all blocks ever referenced."""

    def __init__(self) -> None:
        #: Block -> entry.  The protocol engine's miss path indexes
        #: this directly; :meth:`entry` is the same lookup-or-create.
        self.entries: Dict[int, DirectoryEntry] = {}

    def entry(self, block: int) -> DirectoryEntry:
        """Fetch (creating on first touch) the entry for a block."""
        entry = self.entries.get(block)
        if entry is None:
            entry = self.entries[block] = DirectoryEntry()
        return entry

    def peek(self, block: int) -> Optional[DirectoryEntry]:
        """Entry if the block has ever been referenced, else None."""
        return self.entries.get(block)

    def record_shared_fill(self, block: int, core: int) -> None:
        """A core received a shared copy."""
        entry = self.entry(block)
        if entry.state is DirState.EXCLUSIVE:
            raise CoherenceError(
                f"shared fill of {block:#x} while exclusively owned"
            )
        entry.state = DirState.SHARED
        entry.sharers.add(core)

    def record_exclusive_fill(self, block: int, core: int) -> None:
        """A core received the exclusive copy."""
        entry = self.entry(block)
        if entry.holders() - {core}:
            raise CoherenceError(
                f"exclusive fill of {block:#x} with live holders"
            )
        entry.state = DirState.EXCLUSIVE
        entry.owner = core
        entry.sharers.clear()

    def record_eviction(self, block: int, core: int) -> None:
        """Non-silent eviction: remove a holder."""
        entry = self.entry(block)
        if entry.state is DirState.EXCLUSIVE:
            if entry.owner != core:
                raise CoherenceError(
                    f"eviction of {block:#x} by non-owner core {core}"
                )
            entry.state = DirState.UNCACHED
            entry.owner = None
        elif entry.state is DirState.SHARED:
            if core not in entry.sharers:
                raise CoherenceError(
                    f"eviction of {block:#x} by non-sharer core {core}"
                )
            entry.sharers.discard(core)
            if not entry.sharers:
                entry.state = DirState.UNCACHED
        else:
            raise CoherenceError(f"eviction of uncached block {block:#x}")

    def record_upgrade(self, block: int, core: int) -> None:
        """A sharer gained exclusive ownership (others already removed)."""
        entry = self.entry(block)
        if entry.state is not DirState.SHARED or core not in entry.sharers:
            raise CoherenceError(
                f"upgrade of {block:#x} by core {core} that is not a sharer"
            )
        if entry.sharers - {core}:
            raise CoherenceError(
                f"upgrade of {block:#x} with other sharers still live"
            )
        entry.state = DirState.EXCLUSIVE
        entry.owner = core
        entry.sharers.clear()

    def record_downgrade(self, block: int, requester: int) -> None:
        """Owner demoted to sharer; requester added as sharer."""
        entry = self.entry(block)
        if entry.state is not DirState.EXCLUSIVE or entry.owner is None:
            raise CoherenceError(f"downgrade of non-exclusive block {block:#x}")
        old_owner = entry.owner
        entry.state = DirState.SHARED
        entry.owner = None
        entry.sharers = {old_owner, requester}

    def blocks(self):
        """Iterate over (block, entry) pairs with any history."""
        return self.entries.items()
