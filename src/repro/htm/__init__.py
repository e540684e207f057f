"""Simulated HTM machines: TokenTM, LogTM-SE variants, OneTM."""

import re
from dataclasses import replace

from repro.common.config import HTMConfig, SignatureConfig
from repro.common.errors import ConfigError
from repro.coherence.protocol import MemorySystem
from repro.htm.base import (
    HTM,
    AccessOutcome,
    CommitOutcome,
    ConflictInfo,
    ConflictKind,
    HTMStats,
)
from repro.htm.logtm_se import LogTMSE
from repro.htm.onetm import OneTM
from repro.htm.tokentm import TokenTM

#: Canonical variant names, matching the paper's Figure 5 legend plus
#: the OneTM ablation baseline.
VARIANTS = (
    "TokenTM",
    "TokenTM_NoFast",
    "LogTM-SE_2xH3",
    "LogTM-SE_4xH3",
    "LogTM-SE_Perf",
    "OneTM",
)


def make_htm(variant: str, mem: MemorySystem, config: HTMConfig) -> HTM:
    """Build an HTM machine by its paper name.

    The machine attaches itself to ``mem`` (TokenTM and OneTM install
    coherence listeners); use one fresh :class:`MemorySystem` per
    machine.  ``LogTM-SE_{k}xH3`` takes its hash count ``k`` from the
    name and the rest of its geometry from ``config.signature``; the
    paper's two are ``k`` = 2 and 4.
    """
    if variant == "TokenTM":
        return TokenTM(mem, config, fast_release=True)
    if variant == "TokenTM_NoFast":
        return TokenTM(mem, config, fast_release=False)
    hashes = re.fullmatch(r"LogTM-SE_([1-9][0-9]*)xH3", variant)
    if hashes is not None:
        sig = replace(config.signature, num_hashes=int(hashes.group(1)),
                      perfect=False)
        return LogTMSE(mem, config, signature=sig)
    if variant == "LogTM-SE_Perf":
        sig = SignatureConfig(perfect=True)
        return LogTMSE(mem, config, signature=sig)
    if variant == "OneTM":
        return OneTM(mem, config)
    raise ConfigError(
        f"unknown HTM variant {variant!r}; choose from {VARIANTS}"
    )


__all__ = [
    "HTM",
    "AccessOutcome",
    "CommitOutcome",
    "ConflictInfo",
    "ConflictKind",
    "HTMStats",
    "LogTMSE",
    "OneTM",
    "TokenTM",
    "VARIANTS",
    "make_htm",
]
