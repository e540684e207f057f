"""Golden digests of exact simulated results.

Each case runs one small cell and hashes its ``RunStats`` and
``ProtocolStats`` snapshots.  :func:`run_case` builds each run; it is
also the one place where other tests build a whole run on the
reference memory system (``tests.conftest.ReferenceMemorySystem``),
whose plain L1 hit is the oracle for the production hit path.  The
digests were recorded once and are
regenerated only when a change *means* to alter simulated results: a
performance change to the access, token or log paths must leave every
one of them matching.  Print fresh digests with::

    PYTHONPATH=src python -m tests.integration.test_golden_stats
"""

from __future__ import annotations

import hashlib
import json
from typing import Optional, Tuple

import pytest

from repro.common.config import HTMConfig, RunConfig, SystemConfig
from repro.coherence.protocol import MemorySystem
from repro.faults.injector import FaultInjector
from repro.faults.monitor import InvariantMonitor
from repro.faults.plan import FaultPlan, default_plan
from repro.htm import make_htm
from repro.runtime.executor import Executor
from repro.runtime.stats import RunStats
from repro.workloads import delaunay, genome, vacation_high
from repro.workloads.trace import WorkloadTrace

from tests.conftest import ReferenceMemorySystem

SCALE = 0.005
SEED = 2008
WORKLOADS = {"Vacation-High": vacation_high, "Delaunay": delaunay,
             "Genome": genome}

#: (workload, variant, mode) -> digest.  ``mode`` is "plain" (the
#: 32-core base system), "nofast" (the same on the reference memory
#: system, whose L1 hits never go through ``fast_hit``), "preempt" (8
#: threads time-shared on 4 cores), "faults" (the default chaos plan
#: plus the invariant monitor, which checks every 512th quantum
#: boundary) or "preempt-faults" (the default chaos plan injected into
#: the "preempt" setting, without the monitor).
GOLDEN = {
    ("Delaunay", "LogTM-SE_2xH3", "plain"): "5ab2dc9fac3886b3",
    ("Delaunay", "LogTM-SE_4xH3", "plain"): "64f0deb4a7f343c3",
    ("Delaunay", "LogTM-SE_4xH3", "preempt"): "8e7a4b37c20d1f02",
    ("Delaunay", "LogTM-SE_Perf", "plain"): "0dd852c6d84d8980",
    ("Delaunay", "OneTM", "plain"): "e7564685946991fe",
    ("Delaunay", "OneTM", "preempt"): "6109e3ca114e2295",
    ("Delaunay", "TokenTM", "plain"): "35e3568412d275fc",
    ("Delaunay", "TokenTM_NoFast", "plain"): "97b823a41051052c",
    ("Genome", "LogTM-SE_2xH3", "plain"): "01b5c9347cda7f43",
    ("Genome", "LogTM-SE_4xH3", "plain"): "3c5a8c6288c775cb",
    ("Genome", "LogTM-SE_Perf", "plain"): "b3fa9286b90da636",
    ("Genome", "OneTM", "plain"): "dfd3f5f9388664ee",
    ("Genome", "TokenTM", "plain"): "86bbc361f8d0151b",
    ("Genome", "TokenTM_NoFast", "faults"): "6ce75a7afc18d17c",
    ("Genome", "TokenTM_NoFast", "plain"): "190de2c3b0726c42",
    ("Vacation-High", "LogTM-SE_2xH3", "plain"): "79c6b50c37e90b73",
    ("Vacation-High", "LogTM-SE_4xH3", "faults"): "4741b8a0a3641c2f",
    ("Vacation-High", "LogTM-SE_4xH3", "nofast"): "60ab9e7f78066f0e",
    ("Vacation-High", "LogTM-SE_4xH3", "plain"): "60ab9e7f78066f0e",
    ("Vacation-High", "LogTM-SE_4xH3", "preempt-faults"): "214797c28757a655",
    ("Vacation-High", "LogTM-SE_Perf", "plain"): "9f434c1c9d4ce580",
    ("Vacation-High", "OneTM", "faults"): "a0a0a77a259e5f7e",
    ("Vacation-High", "OneTM", "nofast"): "4bf3ddaa2d267c27",
    ("Vacation-High", "OneTM", "plain"): "4bf3ddaa2d267c27",
    ("Vacation-High", "TokenTM", "faults"): "249fff14c1d61695",
    ("Vacation-High", "TokenTM", "nofast"): "8a95fa8064566860",
    ("Vacation-High", "TokenTM", "plain"): "8a95fa8064566860",
    ("Vacation-High", "TokenTM", "preempt"): "ce70848734ecefbb",
    ("Vacation-High", "TokenTM", "preempt-faults"): "9c40f9bdbf293bda",
    ("Vacation-High", "TokenTM_NoFast", "faults"): "7a0c2ab1961f631a",
    ("Vacation-High", "TokenTM_NoFast", "plain"): "906572267f55018a",
    ("Vacation-High", "TokenTM_NoFast", "preempt"): "d37cb4901d65dbdd",
}


def run_case(trace: WorkloadTrace, variant: str,
             system: Optional[SystemConfig] = None, *, seed: int = 0,
             reference: bool = False, quantum: int = 200,
             audit: bool = False, faults: Optional[FaultPlan] = None,
             monitor: Optional[InvariantMonitor] = None,
             ) -> Tuple[RunStats, MemorySystem]:
    """Run ``trace`` on a fresh machine, as ``run_trace`` does.

    ``reference=True`` builds the reference memory system, the oracle
    that production results must match.  Returns the run's stats and
    the memory system.
    """
    system = system or SystemConfig()
    htm_config = HTMConfig()
    mem = (ReferenceMemorySystem if reference else MemorySystem)(system)
    machine = make_htm(variant, mem, htm_config)
    injector = (FaultInjector(faults, seed=seed)
                if faults is not None else None)
    executor = Executor(machine, trace,
                        RunConfig(system=system, htm=htm_config, seed=seed),
                        quantum=quantum, validate=False,
                        track_history=monitor is not None,
                        injector=injector, monitor=monitor)
    stats = executor.run().stats
    if audit:
        machine.audit()
    return stats, mem


def digest(workload: str, variant: str, mode: str) -> str:
    """Run one case and hash its stats snapshots."""
    shared = mode.startswith("preempt")
    system = SystemConfig().scaled(4) if shared else SystemConfig()
    threads = 8 if shared else system.num_cores
    trace = WORKLOADS[workload]().generate(seed=SEED, scale=SCALE,
                                           threads=threads)
    monitor: Optional[InvariantMonitor] = None
    if mode == "faults":
        # Every check audits all 32 L1s; a sparse cadence keeps the
        # case to a few seconds while still checking mid-run.
        monitor = InvariantMonitor(cadence=512)
    stats, mem = run_case(
        trace, variant, system, seed=SEED, reference=mode == "nofast",
        quantum=50 if shared else 200,
        faults=default_plan() if mode.endswith("faults") else None,
        monitor=monitor)
    if shared:
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
