"""Simulated HTM machines: TokenTM, LogTM-SE variants, OneTM."""

from dataclasses import replace

from repro.common.config import HTMConfig, SignatureConfig, SystemConfig
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
    machine.
    """
    if variant == "TokenTM":
        return TokenTM(mem, config, fast_release=True)
    if variant == "TokenTM_NoFast":
        return TokenTM(mem, config, fast_release=False)
    if variant == "LogTM-SE_2xH3":
        sig = replace(config.signature, num_hashes=2, perfect=False)
        return LogTMSE(mem, config, signature=sig)
    if variant == "LogTM-SE_4xH3":
        sig = replace(config.signature, num_hashes=4, perfect=False)
        return LogTMSE(mem, config, signature=sig)
    if variant == "LogTM-SE_Perf":
        sig = SignatureConfig(perfect=True)
        return LogTMSE(mem, config, signature=sig)
    if variant == "OneTM":
        return OneTM(mem, config)
    raise ConfigError(
        f"unknown HTM variant {variant!r}; choose from {VARIANTS}"
    )


def build_machine(variant: str, system: SystemConfig,
                  htm_config: HTMConfig) -> HTM:
    """Convenience: fresh memory system + machine in one call."""
    return make_htm(variant, MemorySystem(system), htm_config)


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
    "build_machine",
    "make_htm",
]
