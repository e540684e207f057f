"""Golden digests of exact simulated results.

Each case runs one small cell and hashes its ``RunStats`` and
``ProtocolStats`` snapshots.  The digests were recorded once and are
regenerated only when a change *means* to alter simulated results: a
performance change to the access, token or log paths must leave every
one of them matching.  Print fresh digests with::

    PYTHONPATH=src python -m tests.integration.test_golden_stats
"""

from __future__ import annotations

import hashlib
import json
from typing import Optional

import pytest

from repro.common.config import HTMConfig, RunConfig, SystemConfig
from repro.coherence.protocol import MemorySystem
from repro.faults.injector import FaultInjector
from repro.faults.monitor import InvariantMonitor
from repro.faults.plan import default_plan
from repro.htm import make_htm
from repro.runtime.executor import Executor
from repro.workloads import delaunay, genome, vacation_high

SCALE = 0.005
SEED = 2008
WORKLOADS = {"Vacation-High": vacation_high, "Delaunay": delaunay,
             "Genome": genome}

#: (workload, variant, mode) -> digest.  ``mode`` is "plain" (the
#: 32-core base system), "nofast" (the same with the coherence hit
#: filter off, ``MemorySystem(fast_path=False)``), "preempt" (8
#: threads time-shared on 4 cores) or "faults" (the default chaos plan
#: plus the invariant monitor, which checks every 512th quantum
#: boundary).
GOLDEN = {
    ("Delaunay", "LogTM-SE_2xH3", "plain"): "5ab2dc9fac3886b3",
    ("Delaunay", "LogTM-SE_4xH3", "plain"): "64f0deb4a7f343c3",
    ("Delaunay", "LogTM-SE_Perf", "plain"): "0dd852c6d84d8980",
    ("Delaunay", "OneTM", "plain"): "02c0060cb38be349",
    ("Delaunay", "TokenTM", "plain"): "35e3568412d275fc",
    ("Delaunay", "TokenTM_NoFast", "plain"): "97b823a41051052c",
    ("Genome", "LogTM-SE_2xH3", "plain"): "01b5c9347cda7f43",
    ("Genome", "LogTM-SE_4xH3", "plain"): "3c5a8c6288c775cb",
    ("Genome", "LogTM-SE_Perf", "plain"): "b3fa9286b90da636",
    ("Genome", "OneTM", "plain"): "d73cf6c3482dc3d0",
    ("Genome", "TokenTM", "plain"): "86bbc361f8d0151b",
    ("Genome", "TokenTM_NoFast", "faults"): "6ce75a7afc18d17c",
    ("Genome", "TokenTM_NoFast", "plain"): "190de2c3b0726c42",
    ("Vacation-High", "LogTM-SE_2xH3", "plain"): "79c6b50c37e90b73",
    ("Vacation-High", "LogTM-SE_4xH3", "faults"): "4741b8a0a3641c2f",
    ("Vacation-High", "LogTM-SE_4xH3", "nofast"): "60ab9e7f78066f0e",
    ("Vacation-High", "LogTM-SE_4xH3", "plain"): "60ab9e7f78066f0e",
    ("Vacation-High", "LogTM-SE_Perf", "plain"): "9f434c1c9d4ce580",
    ("Vacation-High", "OneTM", "faults"): "8bc5be9a30ba6c14",
    ("Vacation-High", "OneTM", "nofast"): "a1a73bc37257198d",
    ("Vacation-High", "OneTM", "plain"): "a1a73bc37257198d",
    ("Vacation-High", "TokenTM", "faults"): "249fff14c1d61695",
    ("Vacation-High", "TokenTM", "nofast"): "8a95fa8064566860",
    ("Vacation-High", "TokenTM", "plain"): "8a95fa8064566860",
    ("Vacation-High", "TokenTM", "preempt"): "5fa8a352c7eed1c8",
    ("Vacation-High", "TokenTM_NoFast", "faults"): "7a0c2ab1961f631a",
    ("Vacation-High", "TokenTM_NoFast", "plain"): "906572267f55018a",
    ("Vacation-High", "TokenTM_NoFast", "preempt"): "073fdb1c352c03f1",
}


def digest(workload: str, variant: str, mode: str) -> str:
    """Run one case and hash its stats snapshots."""
    system = SystemConfig().scaled(4) if mode == "preempt" else SystemConfig()
    threads = 8 if mode == "preempt" else system.num_cores
    trace = WORKLOADS[workload]().generate(seed=SEED, scale=SCALE,
                                           threads=threads)
    htm_config = HTMConfig()
    mem = MemorySystem(system, fast_path=mode != "nofast")
    machine = make_htm(variant, mem, htm_config)
    injector: Optional[FaultInjector] = None
    monitor: Optional[InvariantMonitor] = None
    if mode == "faults":
        injector = FaultInjector(default_plan(), seed=SEED)
        # Every check audits all 32 L1s; a sparse cadence keeps the
        # case to a few seconds while still checking mid-run.
        monitor = InvariantMonitor(cadence=512)
    executor = Executor(machine, trace,
                        RunConfig(system=system, htm=htm_config, seed=SEED),
                        quantum=50 if mode == "preempt" else 200,
                        validate=False, track_history=monitor is not None,
                        injector=injector, monitor=monitor)
    stats = executor.run().stats
    if mode == "preempt":
        assert stats.preemptions > 0
    if monitor is not None:
        assert monitor.checks_run > 0
        assert monitor.ok, monitor.violations
    return stats_digest(stats, mem.stats.snapshot())


def stats_digest(stats, protocol: dict) -> str:
    """Hash a ``RunStats`` and a ``ProtocolStats`` snapshot."""
    blob = json.dumps([stats.snapshot(), protocol], sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


@pytest.mark.parametrize("case", sorted(GOLDEN), ids="-".join)
def test_stats_match_golden_digest(case):
    assert digest(*case) == GOLDEN[case]


if __name__ == "__main__":
    for case in sorted(GOLDEN):
        print(f'    ({json.dumps(case)[1:-1]}): "{digest(*case)}",')
