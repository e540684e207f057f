"""TokenTM reproduction: unbounded HTM with transactional tokens.

Reimplementation of "TokenTM: Efficient Execution of Large
Transactions with Hardware Transactional Memory" (Bobba, Goyal, Hill,
Swift & Wood, ISCA 2008) as a trace-driven Python simulator of a
32-core CMP, plus the substrates (directory MESI coherence,
signatures, workload generators) needed to regenerate every table and
figure of the paper's evaluation.

Quickstart::

    from repro import HTMConfig, MemorySystem, SystemConfig, make_htm
    from repro.workloads import vacation_low
    from repro.runtime import run_workload

    htm = make_htm("TokenTM", MemorySystem(SystemConfig()), HTMConfig())
    trace = vacation_low().generate(seed=1, scale=0.01)
    result = run_workload(htm, trace)
    print(result.stats.snapshot())
"""

from repro.common.config import (
    BLOCK_SIZE,
    CacheGeometry,
    HTMConfig,
    LatencyModel,
    RunConfig,
    SignatureConfig,
    SystemConfig,
)
from repro.common.errors import ReproError
from repro.coherence.protocol import MemorySystem
from repro.htm import VARIANTS, make_htm
from repro.htm.base import HTM
from repro.htm.logtm_se import LogTMSE
from repro.htm.onetm import OneTM
from repro.htm.tokentm import TokenTM
from repro.runtime.executor import Executor, run_workload
from repro.runtime.stats import RunStats

__version__ = "1.0.0"

__all__ = [
    "BLOCK_SIZE",
    "CacheGeometry",
    "Executor",
    "HTM",
    "HTMConfig",
    "LatencyModel",
    "LogTMSE",
    "MemorySystem",
    "OneTM",
    "ReproError",
    "RunConfig",
    "RunStats",
    "SignatureConfig",
    "SystemConfig",
    "TokenTM",
    "VARIANTS",
    "make_htm",
    "run_workload",
    "__version__",
]
