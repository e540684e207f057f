"""Workload traces and generators (STAMP-like, SPLASH-like, lock apps)."""

from typing import Dict

from repro.workloads.base import (
    SHARED_REGION_BASE,
    SetSizeModel,
    SyntheticTxnWorkload,
    TxnWorkloadSpec,
)
from repro.workloads.lockapps import (
    CYCLES_PER_MS,
    LockAppSpec,
    aolserver,
    apache,
    berkeleydb,
    bind,
    lock_applications,
)
from repro.workloads.splash import (
    barnes,
    cholesky,
    radiosity,
    raytrace,
    splash_workloads,
)
from repro.workloads.stamp import (
    delaunay,
    genome,
    stamp_workloads,
    vacation_high,
    vacation_low,
)
from repro.workloads.trace import (
    OP_BEGIN,
    OP_COMMIT,
    OP_COMPUTE,
    OP_LOCK,
    OP_NT_READ,
    OP_NT_WRITE,
    OP_READ,
    OP_SYSCALL,
    OP_UNLOCK,
    OP_WRITE,
    ThreadTrace,
    WorkloadTrace,
    static_set_sizes,
    validate_trace,
)


def tm_workloads() -> Dict[str, SyntheticTxnWorkload]:
    """All eight Table 5 TM workloads, SPLASH first (paper order)."""
    registry: Dict[str, SyntheticTxnWorkload] = {}
    registry.update(splash_workloads())
    registry.update(stamp_workloads())
    return registry


__all__ = [
    "CYCLES_PER_MS",
    "LockAppSpec",
    "OP_BEGIN",
    "OP_COMMIT",
    "OP_COMPUTE",
    "OP_LOCK",
    "OP_NT_READ",
    "OP_NT_WRITE",
    "OP_READ",
    "OP_SYSCALL",
    "OP_UNLOCK",
    "OP_WRITE",
    "SHARED_REGION_BASE",
    "SetSizeModel",
    "SyntheticTxnWorkload",
    "ThreadTrace",
    "TxnWorkloadSpec",
    "WorkloadTrace",
    "aolserver",
    "apache",
    "barnes",
    "berkeleydb",
    "bind",
    "cholesky",
    "delaunay",
    "genome",
    "lock_applications",
    "radiosity",
    "raytrace",
    "splash_workloads",
    "stamp_workloads",
    "static_set_sizes",
    "tm_workloads",
    "vacation_high",
    "vacation_low",
    "validate_trace",
]
