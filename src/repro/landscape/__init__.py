"""Durable result landscape: provenance store + outcome ledger.

Everything the simulator produces — grid cells, chaos campaign
cells, bench sections — can be recorded into one sqlite-backed,
crash-safe store with full provenance (content hashes, fault-plan
hashes, trace digests, seed, schema versions, git rev).  The
store is a double-entry outcome ledger: work is *opened* when
dispatched and must reach exactly one terminal outcome; ``repro
audit`` enforces the invariant after the fact, ``repro query`` lists
the trusted bench runs.  See docs/landscape.md.

The landscape is strictly opt-in: with no store attached, every run
path behaves (and serializes) byte-identically to a build without
this package.
"""

from repro.landscape.audit import AuditFinding, audit_store, format_audit
from repro.landscape.query import (
    BenchPoint,
    format_trajectory,
    trusted_bench_runs,
)
from repro.landscape.schema import (
    LANDSCAPE_SCHEMA,
    OUTCOME_FAILED,
    OUTCOME_INTERRUPTED,
    OUTCOME_OK,
    OUTCOME_QUARANTINED,
    TERMINAL_OUTCOMES,
)
from repro.landscape.selftest import (
    SelfTestResult,
    format_selftest,
    run_selftest,
)
from repro.landscape.store import (
    LANDSCAPE_COUNTERS,
    LandscapeStore,
    LedgerError,
    RunRecorder,
    current_git_rev,
)

__all__ = [
    "AuditFinding",
    "BenchPoint",
    "LANDSCAPE_COUNTERS",
    "LANDSCAPE_SCHEMA",
    "LandscapeStore",
    "LedgerError",
    "OUTCOME_FAILED",
    "OUTCOME_INTERRUPTED",
    "OUTCOME_OK",
    "OUTCOME_QUARANTINED",
    "RunRecorder",
    "SelfTestResult",
    "TERMINAL_OUTCOMES",
    "audit_store",
    "current_git_rev",
    "format_audit",
    "format_selftest",
    "format_trajectory",
    "run_selftest",
    "trusted_bench_runs",
]
