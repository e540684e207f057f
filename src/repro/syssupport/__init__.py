"""OS-facing support: paging and System-V sharing."""

from repro.syssupport.paging import (
    BLOCKS_PER_PAGE,
    PageImage,
    PageManager,
    page_blocks,
    page_of,
)
from repro.syssupport.sysv import SharedSegment, TidAuthority

__all__ = [
    "BLOCKS_PER_PAGE",
    "PageImage",
    "PageManager",
    "SharedSegment",
    "TidAuthority",
    "page_blocks",
    "page_of",
]
