"""Abstract interface for read-/write-set signatures.

LogTM-SE decouples conflict detection from caches by summarizing each
transaction's read and write sets in *signatures*.  A signature
supports insertion and membership testing; real (Bloom-filter)
signatures may report false positives but never false negatives,
while the unimplementable "perfect" signature is exact.
"""

from __future__ import annotations

from abc import ABC, abstractmethod


class Signature(ABC):
    """A set summary over block addresses."""

    @abstractmethod
    def insert(self, block_addr: int) -> None:
        """Add a block address to the summarized set."""

    @abstractmethod
    def test(self, block_addr: int) -> bool:
        """Return True if the address *may* be in the set.

        Must never return False for an inserted address (no false
        negatives); may return True for addresses never inserted
        (false positives), depending on the implementation.
        """

    @abstractmethod
    def clear(self) -> None:
        """Empty the signature (transaction commit or abort)."""

    @abstractmethod
    def is_empty(self) -> bool:
        """True if nothing has been inserted since the last clear."""

    @property
    @abstractmethod
    def inserted_count(self) -> int:
        """Number of *distinct* addresses inserted since last clear."""

    def test_exact(self, block_addr: int) -> bool:
        """Ground-truth membership, used to classify false positives.

        Implementations that track the exact set (all of ours do, for
        instrumentation) override nothing: the default consults
        :attr:`exact_set`.
        """
        return block_addr in self.exact_set

    @property
    @abstractmethod
    def exact_set(self) -> frozenset:
        """The exact set of inserted addresses (instrumentation only).

        Hardware would not have this; the simulator keeps it so runs
        can report how many detected conflicts were signature false
        positives (the quantity behind the paper's Figure 1).
        """
