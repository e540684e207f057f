"""In-cache metabit representation (the paper's Table 4b).

To support fast token release, L1 caches encode each line's metastate
with five state bits plus an attribute field:

* ``R``  — the core's *current* thread holds one token ``(1, X)``;
* ``W``  — the current thread holds all tokens ``(T, X)``;
* ``R'`` — some thread Y (possibly descheduled) holds one token;
* ``W'`` — some thread Y holds all tokens;
* ``R+`` — an anonymous count of reader tokens, held in ``Attr``.

``Attr`` holds a TID when exactly one of R/W/R'/W' identifies an
owner, or a count when ``R+`` is set.  When both ``R`` and ``R+`` are
set the line holds ``Attr + 1`` reader tokens, one of them the
current thread's — this is what lets a flash-clear of ``R`` return
exactly the current thread's token.

A context switch flash-ORs ``R`` into ``R'`` and ``W`` into ``W'``
(Section 4.4), transferring ownership knowledge to the anonymous
primed bits so the next thread can reuse ``R``/``W``.  The transient
``R'``+``R+`` combination that a switch can create is fused lazily on
the next access, exactly as the paper describes.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.common.errors import MetastateError
from repro.core.metastate import META_ZERO, Meta


class CacheMetabits:
    """Mutable metabit state of one L1 line."""

    __slots__ = ("r", "w", "rp", "wp", "rplus", "attr")

    def __init__(self, r: bool = False, w: bool = False, rp: bool = False,
                 wp: bool = False, rplus: bool = False, attr: int = 0):
        self.r = r
        self.w = w
        self.rp = rp
        self.wp = wp
        self.rplus = rplus
        self.attr = attr
        self.check()

    # ------------------------------------------------------------------
    # Well-formedness
    # ------------------------------------------------------------------

    def check(self) -> None:
        """Raise if the bit combination is illegal.

        Table 4(b) implies: R and R' never both set, W and W' never
        both set, a writer bit excludes every reader bit, and R+ never
        combines with an identified owner other than the R-bit case.
        (R' together with R+ is legal only as the post-context-switch
        transient.)
        """
        if self.r and self.rp:
            raise MetastateError("R and R' simultaneously set")
        if self.w and self.wp:
            raise MetastateError("W and W' simultaneously set")
        writer = self.w or self.wp
        reader = self.r or self.rp or self.rplus
        if writer and reader:
            raise MetastateError("writer and reader metabits both set")

    def is_clear(self) -> bool:
        """True for the inactive encoding of ``(0, -)``."""
        return not (self.r or self.w or self.rp or self.wp or self.rplus)

    def copy(self) -> "CacheMetabits":
        """Independent duplicate (used when copies fission)."""
        return CacheMetabits(self.r, self.w, self.rp, self.wp,
                             self.rplus, self.attr)

    # ------------------------------------------------------------------
    # Logical view
    # ------------------------------------------------------------------

    def logical(self, tokens_per_block: int,
                current_tid: Optional[int]) -> Meta:
        """Decode to the logical (Sum, TID) metastate.

        ``current_tid`` resolves the R/W bits, which implicitly name
        the thread running on this line's core.  The post-switch
        ``R'``+``R+`` transient decodes to an anonymous count of
        ``Attr + 1``.
        """
        if self.w:
            return Meta(tokens_per_block, current_tid)
        if self.wp:
            return Meta(tokens_per_block, self.attr)
        if self.r and self.rplus:
            return Meta(self.attr + 1, None)
        if self.rp and self.rplus:
            return Meta(self.attr + 1, None)
        if self.r:
            return Meta(1, current_tid)
        if self.rp:
            return Meta(1, self.attr)
        if self.rplus:
            return Meta(self.attr, None) if self.attr else META_ZERO
        return META_ZERO

    # ------------------------------------------------------------------
    # Mutations (the hardware's metabit update paths)
    # ------------------------------------------------------------------

    @classmethod
    def encode(cls, meta: Meta, tokens_per_block: int,
               current_tid: Optional[int]) -> "CacheMetabits":
        """Encode a logical metastate for a line on ``current_tid``'s core."""
        if meta.total == 0:
            return cls()
        if meta.total == tokens_per_block:
            if meta.tid is not None and meta.tid == current_tid:
                return cls(w=True, attr=meta.tid)
            owner = meta.tid if meta.tid is not None else 0
            return cls(wp=True, attr=owner)
        if meta.total == 1 and meta.tid is not None:
            if meta.tid == current_tid:
                return cls(r=True, attr=meta.tid)
            return cls(rp=True, attr=meta.tid)
        return cls(rplus=True, attr=meta.total)

    def set_read(self, tid: int) -> None:
        """Record a newly acquired read token for the current thread.

        Implements Section 4.4's R-bit rules, including the R'-set
        cases: (i) reclaim R' when it names this thread, else
        (ii) anonymize R' into R+ before setting R.
        """
        if self.w or self.wp:
            raise MetastateError("setting R on a line with writer metabits")
        if self.r:
            raise MetastateError("R already set; token already held")
        if self.rp:
            if not self.rplus and self.attr == tid:
                # (i) the primed bit was this very thread's token.
                self.rp = False
                self.r = True
                self.attr = tid
                return
            # (ii) fold the primed token into the anonymous count.
            self.attr = (self.attr + 1) if self.rplus else 1
            self.rp = False
            self.rplus = True
            self.r = True
            return
        if self.rplus:
            # Anonymous count present: Attr keeps the *other* tokens.
            self.r = True
            return
        self.r = True
        self.attr = tid

    def set_write(self, tid: int) -> None:
        """Record acquisition of all tokens by the current thread."""
        if self.wp or self.rp or self.rplus:
            raise MetastateError("setting W over foreign metabits")
        if self.r:
            # Read-to-write upgrade: the single token folds into T.
            self.r = False
        self.w = True
        self.attr = tid

    def flash_clear(self) -> bool:
        """Fast token release: clear R and W (constant-time circuit).

        Returns True if the line actually held current-thread bits.
        The anonymous/primed bits are untouched — they belong to other
        transactions.
        """
        held = self.r or self.w
        if self.r and self.rplus:
            # The line reverts to the anonymous count alone.
            self.r = False
        else:
            if self.r:
                self.attr = 0
            self.r = False
        if self.w:
            self.w = False
            self.attr = 0
        return held

    def context_switch(self) -> None:
        """Flash-OR on deschedule: R' |= R, clear R; W' |= W, clear W."""
        if self.r:
            if self.rplus:
                # Identity already lost: fold into the anonymous count.
                self.attr += 1
            else:
                self.rp = True  # attr already holds the TID
            self.r = False
        if self.w:
            self.wp = True  # attr already holds the TID
            self.w = False

    def fuse_transient(self) -> None:
        """Fuse a post-switch R'+R+ transient into a pure count."""
        if self.rp and self.rplus:
            self.rp = False
            self.attr += 1

    def state_tuple(self) -> Tuple[int, int, int, int, int, int]:
        """(R, W, R', W', R+, Attr) as integers, for Table 4(b) display."""
        return (int(self.r), int(self.w), int(self.rp), int(self.wp),
                int(self.rplus), self.attr)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        bits = "".join(
            name for name, val in
            [("R", self.r), ("W", self.w), ("R'", self.rp),
             ("W'", self.wp), ("R+", self.rplus)] if val
        ) or "0"
        return f"CacheMetabits({bits}, attr={self.attr})"
