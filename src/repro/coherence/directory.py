"""Directory state for the MESI protocol.

The directory lives logically at the L2 banks and tracks, per block, a
bit vector of sharers or the single exclusive owner.  Because the
paper's TokenTM prohibits silent evictions of clean data, the
directory here is *exact*: the sharer list always equals the set of
caches actually holding the block.

Each block's state is one int, its *code*:

* ``code >= 0``: EXCLUSIVE, and ``code`` is the owner core;
* ``code < 0``: ``~code`` is the full-map sharer mask, bit ``c`` set
  when core ``c`` holds a shared copy.  :data:`UNCACHED` (``-1``, the
  empty mask) means no core holds the block.

An int holds the full-map vector exactly, and a dict holding only ints
is never tracked by the cyclic garbage collector, however many blocks
it grows to.  The protocol engine's access path reads and writes codes
in :attr:`Directory.entries` directly; :class:`DirectoryEntry` is a
read-only view for everything else.
"""

from __future__ import annotations

from enum import Enum
from typing import Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

from repro.common.errors import CoherenceError

#: The code of a block no core holds.
UNCACHED = -1


class DirState(Enum):
    """Directory-visible state of a block."""

    UNCACHED = "U"
    SHARED = "S"
    EXCLUSIVE = "X"  # one owner, possibly dirty (covers MESI M and E)


def mask_cores(mask: int) -> List[int]:
    """The cores whose bits are set in a sharer mask, lowest first."""
    cores = []
    while mask:
        low = mask & -mask
        cores.append(low.bit_length() - 1)
        mask ^= low
    return cores


class DirectoryEntry:
    """Read-only view of one block's directory code."""

    __slots__ = ("_code",)

    def __init__(self, code: int) -> None:
        self._code = code

    @property
    def state(self) -> DirState:
        code = self._code
        if code >= 0:
            return DirState.EXCLUSIVE
        return DirState.UNCACHED if code == UNCACHED else DirState.SHARED

    @property
    def owner(self) -> Optional[int]:
        """The exclusive owner, or None unless the state is EXCLUSIVE."""
        return self._code if self._code >= 0 else None

    @property
    def sharers(self) -> FrozenSet[int]:
        """The shared holders; empty unless the state is SHARED."""
        code = self._code
        return frozenset(mask_cores(~code)) if code < 0 else frozenset()

    def holders(self) -> Set[int]:
        """All cores the directory believes hold the block."""
        code = self._code
        return {code} if code >= 0 else set(mask_cores(~code))


class Directory:
    """Exact full-map directory over all blocks ever referenced.

    The protocol engine writes fills, evictions and downgrades into
    :attr:`entries` inline; :meth:`record_upgrade` applies the one
    transition it checks here, raising :class:`CoherenceError` when
    the current state forbids it.
    """

    def __init__(self) -> None:
        #: Block -> code.  A block gets a code at its first fill and
        #: keeps one for the machine's life.
        self.entries: Dict[int, int] = {}

    def entry(self, block: int) -> DirectoryEntry:
        """View of a block's state (UNCACHED if never referenced)."""
        return DirectoryEntry(self.entries.get(block, UNCACHED))

    def peek(self, block: int) -> Optional[DirectoryEntry]:
        """View if the block has ever been referenced, else None."""
        code = self.entries.get(block)
        return None if code is None else DirectoryEntry(code)

    def record_upgrade(self, block: int, core: int) -> None:
        """A sharer gained exclusive ownership (others already removed)."""
        code = self.entries.get(block, UNCACHED)
        if code >= 0 or not ~code >> core & 1:
            raise CoherenceError(
                f"upgrade of {block:#x} by core {core} that is not a sharer"
            )
        if ~code != 1 << core:
            raise CoherenceError(
                f"upgrade of {block:#x} with other sharers still live"
            )
        self.entries[block] = core

    def blocks(self) -> Iterator[Tuple[int, DirectoryEntry]]:
        """Iterate over (block, view) pairs with any history."""
        for block, code in self.entries.items():
            yield block, DirectoryEntry(code)
