#!/usr/bin/env python3
"""The repository benchmark: end-to-end host time and per-layer self time.

Run from the repository root::

    python3 perfbench/run.py --workload stamp-signatures --seed 1 \\
        --seconds 34 --trace 0

``--trace 0`` simulates every cell of the workload (README.md lists
them) in repeated passes for ``--seconds``, tracing off, and reports
the end-to-end metrics, timed in seconds at a reference host speed
(hostspeed.py).  ``--trace 1`` runs one untraced pass and one
traced pass and reports the per-layer metrics.  Both check every cell
against its golden digest and across repeats.  The last line of
standard output is one JSON object: ``correct``, ``attempted`` and
``failed`` (cells) and ``metrics``.

The simulator is imported from ``src/`` beside this directory; without
it the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from hostspeed import at_reference_speed, reference_s

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
GOLDEN = HERE / "golden.json"

#: Fresh interpreters timed for ``setup_s``; the median is reported.
SETUP_PROBES = 5
#: Timed passes per ``--trace 0`` run, at least; more while they fit.
MIN_PASSES = 2


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=34.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import the simulator, generate the traces, "
                             "print the seconds taken at the reference "
                             "speed, and exit")
    return parser.parse_args(argv)


def host_fingerprint() -> Dict[str, object]:
    return {
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "load_1m": os.getloadavg()[0],
    }


def setup_probe(workload: str, seed: int) -> float:
    """Seconds a fresh interpreter takes to import and generate, at
    the reference speed."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-only",
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.split()[-1])


def load_golden(workload: str, seed: int) -> Optional[List[str]]:
    with open(GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)
    return golden["digests"].get(workload, {}).get(str(seed))


def run_pass(grid, cells, traces, failures: Dict[int, str]):
    """Simulate every cell once; a cell that raises is recorded failed."""
    runs = []
    for index, cell in enumerate(cells):
        try:
            runs.append(grid.run_cell(cell, traces[cell.program]))
        except Exception as exc:  # a failed cell must not end the run
            failures.setdefault(index, f"raised {exc!r}")
            runs.append(None)
    return runs


def check_digests(passes, golden, failures: Dict[int, str]) -> None:
    """Fail each cell whose repeats disagree or that misses its golden."""
    for index, repeats in enumerate(zip(*passes)):
        digests = {r.digest for r in repeats if r is not None}
        if len(digests) > 1:
            failures.setdefault(index, f"repeats disagree: {sorted(digests)}")
        elif golden is not None and digests and (
                index >= len(golden) or digests != {golden[index]}):
            failures.setdefault(index, f"digest {digests.pop()} != golden")


def _metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": value, "unit": unit}


def cell_seconds(repeats) -> float:
    """A cell's seconds: over its copies, the sum of each copy's median
    across the passes, at the reference speed."""
    copies = zip(*(r.copy_s for r in repeats if r is not None))
    return sum(statistics.median(copy) for copy in copies)


def end_to_end(passes, setup_s: List[float]) -> Dict[str, dict]:
    cells_s = [cell_seconds(repeats) for repeats in zip(*passes)
               if any(r is not None for r in repeats)]
    first = [run for r in passes[0] if r is not None for run in r.runs]
    wall = sum(cells_s)
    ops = sum(run["machine"]["_trace_ops"] for run in first)
    return {
        "wall_s": _metric(wall, "s"),
        "sim_ops_per_s": _metric(ops / wall, "1/s"),
        "slowest_cell_s": _metric(max(cells_s), "s"),
        "setup_s": _metric(statistics.median(setup_s), "s"),
        "peak_rss_mb": _metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(runs, tracer, untraced_s: float,
              traced_s: float) -> Dict[str, dict]:
    runs = [r for r in runs if r is not None]

    def machine(key):
        return sum(x["machine"].get(key, 0) for r in runs for x in r.runs)

    def protocol(key):
        return sum(x[key] for r in runs for x in r.protocols)

    def fastpath(key):
        return sum(x[key] for r in runs for x in r.fastpaths)

    self_s = tracer.self_times()
    commits = sum(x["commits"] for r in runs for x in r.runs)
    aborts = sum(x["aborts"] for r in runs for x in r.runs)
    htm_accesses = machine("txn_reads") + machine("txn_writes")
    conflicts = machine("conflicts")
    sig_tests = (tracer.calls_of("BloomSignature", {"test"})
                 + tracer.calls_of("PerfectSignature", {"test"}))
    accesses = protocol("reads") + protocol("writes")
    releases = machine("fast_releases") + machine("software_releases")
    s, n, r = "s", "count", "ratio"
    values = {
        "sim_makespan_cycles": (sum(x["makespan"] for r in runs
                                    for x in r.runs), "cycles"),
        "workloads.generate_s": (self_s["workloads"], s),
        "workloads.trace_ops": (machine("_trace_ops"), n),
        "runtime.self_s": (self_s["runtime"], s),
        "runtime.build_s": (sum(x.build_s for x in runs), s),
        "runtime.cm_resolves": (
            tracer.calls_of("TimestampManager", {"resolve"}), n),
        "runtime.commits": (commits, n),
        "runtime.aborts": (aborts, n),
        "runtime.commit_ratio": (_ratio(commits, commits + aborts), r),
        "htm.logtm_se.self_s": (self_s["htm.logtm_se"], s),
        "htm.tokentm.self_s": (self_s["htm.tokentm"], s),
        "htm.accesses": (htm_accesses, n),
        "htm.conflicts": (conflicts, n),
        "htm.fastpath_hit_ratio": (_ratio(
            fastpath("htm_read_hits") + fastpath("htm_write_hits"),
            htm_accesses), r),
        "htm.fast_release_ratio": (
            _ratio(machine("fast_releases"), releases), r),
        "htm.software_releases": (machine("software_releases"), n),
        "htm.log_walk_resolutions": (machine("log_walk_resolutions"), n),
        "signatures.self_s": (self_s["signatures"], s),
        "signatures.tests": (sig_tests, n),
        "signatures.inserts": (
            tracer.calls_of("BloomSignature", {"insert"})
            + tracer.calls_of("PerfectSignature", {"insert"}), n),
        "signatures.tests_per_access": (_ratio(sig_tests, htm_accesses), r),
        "signatures.false_positive_ratio": (
            _ratio(machine("false_positive_conflicts"), conflicts), r),
        "coherence.self_s": (self_s["coherence"], s),
        "coherence.accesses": (accesses, n),
        "coherence.previews": (
            tracer.calls_of("MemorySystem", {"preview"}), n),
        "coherence.l1_hit_ratio": (_ratio(
            protocol("l1_hits"), protocol("l1_hits") + protocol("l1_misses")),
            r),
        "coherence.filter_hit_ratio": (_ratio(
            fastpath("coherence_read_hits") + fastpath("coherence_write_hits"),
            accesses), r),
        "coherence.l1_misses": (protocol("l1_misses"), n),
        "coherence.invalidations": (protocol("invalidations"), n),
        "coherence.evictions": (protocol("evictions"), n),
        "core.self_s": (self_s["core"], s),
        "mem.self_s": (self_s["mem"], s),
        "core.log_appends": (tracer.calls_of("TmLog", {"append"}), n),
        "mem.metabit_ops": (tracer.calls_of("MetabitStore"), n),
        "trace.overhead_s": (traced_s - untraced_s, s),
    }
    return {name: _metric(value, unit)
            for name, (value, unit) in values.items()}


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: simulator sources not found under {SRC}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_only:
        before = reference_s()
        start = time.perf_counter()
        import grid
        grid.generate(grid.WORKLOADS[args.workload], args.seed)
        elapsed = time.perf_counter() - start
        print(at_reference_speed(elapsed, before, reference_s()))
        return 0

    host = {"before": host_fingerprint()}
    import grid
    from tracer import Tracer, instrument

    if args.workload not in grid.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r} "
              f"(choose from {', '.join(grid.WORKLOADS)})", file=sys.stderr)
        return 2
    workload = grid.WORKLOADS[args.workload]
    tracer = Tracer()
    setup_s = ([] if args.trace else
               [setup_probe(workload.name, args.seed)
                for _ in range(SETUP_PROBES)])
    with tracer.span("workloads"):
        traces = grid.generate(workload, args.seed)
    cells = grid.cells(workload)
    golden = load_golden(workload.name, args.seed)

    warm_trace, warm_seed = traces[cells[0].program][0]
    grid.simulate(cells[0].variant, warm_trace, warm_seed)  # untimed warm-up
    failures: Dict[int, str] = {}
    passes = []
    start = time.perf_counter()
    if args.trace:
        passes.append(run_pass(grid, cells, traces, failures))
        with instrument(tracer):
            passes.append(run_pass(grid, cells, traces, failures))
    else:
        while True:
            pass_start = time.perf_counter()
            passes.append(run_pass(grid, cells, traces, failures))
            elapsed = time.perf_counter() - start
            last = time.perf_counter() - pass_start
            if len(passes) >= MIN_PASSES and elapsed + last > args.seconds:
                break
    check_digests(passes, golden, failures)

    if args.trace:
        untraced, traced = (sum(r.wall_s for r in p if r is not None)
                            for p in passes)
        metrics = per_layer(passes[0], tracer, untraced, traced)
    else:
        metrics = end_to_end(passes, setup_s)
    host["after"] = host_fingerprint()
    for index, reason in sorted(failures.items()):
        cell = cells[index]
        print(f"FAILED {cell.program} {cell.variant}: {reason}",
              file=sys.stderr)
    ok_runs = [r for r in passes[0] if r is not None]
    untraced_passes = passes[:1] if args.trace else passes
    print("host", json.dumps(host, sort_keys=True))
    print("summary", json.dumps({
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "cells": len(cells), "passes": len(passes),
        "copies": {name: len(copies) for name, copies in traces.items()},
        "cell_s": {f"{cell.program}/{cell.variant}": round(
            cell_seconds(repeats), 4)
            for cell, repeats in zip(cells, zip(*untraced_passes))
            if any(r is not None for r in repeats)},
        "golden": "checked" if golden is not None else "none for this seed",
        "table6_fast_pct_err": grid.table6_fast_pct_err(ok_runs),
    }, sort_keys=True))
    print(json.dumps({
        "correct": not failures,
        "attempted": len(cells),
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
