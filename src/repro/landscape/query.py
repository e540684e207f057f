"""Cross-run queries over the landscape: the trusted bench runs.

``repro query`` lists every bench run the landscape recorded that can
be trusted, oldest first, each with its grid throughput.

Only ``ok`` bench runs participate.  A run that failed, was
interrupted, or was healed after a crash is left out — "trusted run"
means exactly that, and it is the audit's invariants that make
"trusted" meaningful.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import List, Optional

from repro.landscape.schema import OUTCOME_OK, RUN_BENCH
from repro.landscape.store import LandscapeStore


@dataclass(frozen=True)
class BenchPoint:
    """One trusted bench run's headline numbers."""

    run_id: int
    started_unix: float
    git_rev: Optional[str]
    bench_schema: Optional[str]
    grid_ops_per_sec: Optional[float] = None


def trusted_bench_runs(store: LandscapeStore) -> List[BenchPoint]:
    """Every ``ok`` bench run with a payload, oldest first."""
    points = []
    for run in store.runs(RUN_BENCH):
        if run["status"] != OUTCOME_OK or not run["payload"]:
            continue
        try:
            payload = json.loads(run["payload"])
        except (TypeError, ValueError):
            continue  # unparseable payload: not trustworthy, skip
        totals = payload.get("totals") or {}
        points.append(BenchPoint(
            run_id=run["id"],
            started_unix=run["started_unix"],
            git_rev=run["git_rev"],
            bench_schema=run["bench_schema"],
            grid_ops_per_sec=totals.get("sim_ops_per_sec"),
        ))
    return points


def format_trajectory(points: List[BenchPoint]) -> str:
    """Human-readable run list (the ``repro query`` output)."""
    if not points:
        return ("no trusted bench runs in the landscape yet "
                "(run `repro bench --landscape <db>` to record one)")
    lines = [f"bench trajectory: {len(points)} trusted run(s)"]
    for point in points:
        rev = (point.git_rev or "unknown")[:12]
        ops = (f"grid={point.grid_ops_per_sec:,.0f} ops/s"
               if point.grid_ops_per_sec else "(no grid)")
        lines.append(f"  run #{point.run_id} rev={rev} {ops}")
    return "\n".join(lines)
