"""Command-line interface: ``python -m repro <command>``.

Commands map one-to-one onto the paper's experiments:

* ``run``      — one workload on one HTM variant, stats as text/JSON
  (``--trace``/``--trace-out``/``--chrome-out`` record the run;
  ``--trace-file EVENTS`` replays a recorded event trace instead of
  a named workload; ``--faults PLAN.json`` injects a fault plan,
  ``--monitor`` runs the invariant monitor and exits nonzero on any
  violation);
* ``convert``  — lower a SynchroTrace-style event file (or shard
  directory) to the internal opcode format (``docs/traces.md``);
* ``record``   — record a synthetic workload as an event-trace file
  whose replay is oracle-identical to the generator run;
* ``workloads`` — list workloads and fixture traces with per-thread
  op counts and footprints;
* ``chaos``    — fault-injection campaign over seeds x variants with
  shrink-to-minimal plans and replayable failure bundles
  (``docs/robustness.md``; ``--trace-file`` runs the campaign over a
  replayed event trace);
* ``trace``    — traced run with the conflict/abort attribution
  report, or ``--validate`` for an existing JSONL trace;
* ``table1``   — the long-critical-section analysis;
* ``table5``   — workload parameters measured from the generators;
* ``table6``   — TokenTM-specific overheads;
* ``figure1``  — false-positive study (LogTM-SE variants);
* ``figure5``  — the main performance comparison;
* ``bench``    — the performance benchmark harness
  (``BENCH_perf.json``; see ``docs/performance.md``);
* ``audit``    — verify the result landscape's outcome ledger
  (every dispatched unit reached exactly one terminal outcome;
  ``--selftest`` proves the audit catches seeded violations);
* ``query``    — regression trajectories across the landscape's
  trusted bench runs, with a tolerance gate on the latest step;
* ``variants`` — list the available HTM variants.

Every command takes ``--seed`` and (where it applies) ``--scale`` so
results are reproducible and sized to taste.  The grid commands
(``figure1``/``figure5``/``bench``) take ``--workers`` to fan cells
out over processes, ``--cache-dir`` to reuse finished cells across
invocations, and the supervision flags
(``--cell-timeout``/``--max-retries``/``--failure-policy``) to
survive hung or dying workers (``docs/robustness.md``, "Surviving
the host").

``bench`` and ``chaos`` take ``--landscape DB`` to record every run
(and every cell within it) into the durable result landscape
(``docs/landscape.md``); ``audit`` and ``query`` read it back.  The
landscape is also a chaos campaign's checkpoint: ``--max-cells`` or a
signal interrupts a campaign with exit 3, and ``--resume`` continues
it from the last finished cell the store records.  Each
command's exit-code contract is spelled out in its ``--help`` epilog
and collected in ``docs/robustness.md``.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.common.errors import ConfigError, IncompleteGridError

from repro.analysis.experiments import (
    FIGURE1_VARIANTS,
    FIGURE5_VARIANTS,
    figure_speedups,
    measure_table5,
    run_cell,
    table6_row,
)
from repro.analysis.lcs import table1 as lcs_table1
from repro.analysis.tables import (
    format_speedup_figure,
    format_table,
    format_table1,
    format_table5,
    format_table6,
)
from repro.htm import VARIANTS
from repro.obs.events import EventBus, validate_jsonl
from repro.obs.report import TraceReport
from repro.obs.sinks import ChromeTraceExporter, JsonlSink
from repro.workloads import lock_applications, tm_workloads

#: Default per-workload scales (fractions of Table 5 counts) chosen
#: for minutes-scale runtimes; match benchmarks/conftest.py.
DEFAULT_SCALES = {
    "Barnes": 0.2, "Cholesky": 0.01, "Radiosity": 0.02,
    "Raytrace": 0.01, "Delaunay": 0.015, "Genome": 0.004,
    "Vacation-Low": 0.02, "Vacation-High": 0.02,
}


def _workload(name: str):
    registry = tm_workloads()
    if name not in registry:
        raise SystemExit(
            f"unknown workload {name!r}; choose from "
            f"{', '.join(sorted(registry))}"
        )
    return registry[name]


def cmd_variants(_args) -> int:
    for variant in VARIANTS:
        print(variant)
    return 0


def _make_bus(args):
    """Build an enabled bus + sinks from trace-related CLI flags.

    Returns ``(bus, jsonl_sink, chrome_exporter)`` — all ``None`` when
    no tracing was requested, so untraced runs take the null-bus path.
    """
    trace_out = getattr(args, "trace_out", None)
    chrome_out = getattr(args, "chrome_out", None)
    want = getattr(args, "trace", False) or trace_out or chrome_out
    if not want:
        return None, None, None
    bus = EventBus()
    jsonl = chrome = None
    if trace_out:
        jsonl = JsonlSink(trace_out)
        bus.attach(jsonl)
    if chrome_out:
        chrome = ChromeTraceExporter()
        bus.attach(chrome)
    return bus, jsonl, chrome


def _finish_trace(bus, jsonl, chrome, args) -> None:
    """Flush CLI trace sinks and report where the artifacts went."""
    if chrome is not None:
        count = chrome.export(args.chrome_out)
        print(f"chrome trace: {args.chrome_out} ({count} trace events)",
              file=sys.stderr)
    bus.close()
    if jsonl is not None:
        print(f"jsonl trace: {args.trace_out} ({jsonl.written} events)",
              file=sys.stderr)


def _trace_workload_from_args(args):
    """Build a :class:`TraceWorkload` from ``--trace-file`` flags."""
    from repro.traces import ConvertOptions, TraceWorkload

    options = ConvertOptions(
        block_shift=args.block_shift,
        remap=args.remap,
        transactify=not args.no_transactify,
    )
    return TraceWorkload.from_file(args.trace_file, options=options)


def cmd_run(args) -> int:
    if bool(args.workload) == bool(args.trace_file):
        raise SystemExit(
            "run: give a workload name or --trace-file EVENTS (not both)")
    if args.trace_file:
        workload = _trace_workload_from_args(args)
        name = workload.spec.name
        scale = args.scale or 1.0
    else:
        workload = _workload(args.workload)
        name = args.workload
        scale = args.scale or DEFAULT_SCALES[args.workload]
    bus, jsonl, chrome = _make_bus(args)
    report = None
    if bus is not None and args.trace:
        report = TraceReport()
        bus.attach(report)
    faults = monitor = None
    if args.faults:
        from repro.faults.plan import FaultPlan

        faults = FaultPlan.load(args.faults)
    if args.monitor:
        from repro.faults.monitor import InvariantMonitor

        monitor = InvariantMonitor()
    cell = run_cell(workload, args.variant, scale=scale, seed=args.seed,
                    bus=bus, fast_path=not args.no_fastpath,
                    faults=faults, monitor=monitor)
    if bus is not None:
        _finish_trace(bus, jsonl, chrome, args)
    snapshot = cell.stats.snapshot()
    snapshot["scale"] = scale
    if args.json:
        print(json.dumps(snapshot, indent=2, default=str))
    else:
        rows = [(k, v) for k, v in snapshot.items()
                if k not in ("machine", "faults", "monitor")]
        print(format_table(["metric", "value"], rows,
                           title=f"{name} on {args.variant}"))
        machine = snapshot["machine"]
        print(format_table(
            ["machine counter", "value"],
            sorted((k, v) for k, v in machine.items()
                   if not k.startswith("_")),
        ))
        if "faults" in snapshot:
            print(format_table(
                ["fault kind", "injected"],
                sorted(snapshot["faults"].get("injected", {}).items()),
                title=f"faults (plan {snapshot['faults'].get('plan')})",
            ))
    if report is not None:
        print()
        print(report.format_summary())
    # Invariant violations fail the run: a nonzero exit code is what
    # lets CI (and scripts) treat a passing `repro run` as evidence
    # the oracles held, not just that the process finished.
    mon = snapshot.get("monitor")
    if mon is not None:
        checks = mon.get("checks_run", 0)
        if mon.get("ok", True):
            print(f"invariants: ok ({checks} checks)", file=sys.stderr)
        else:
            for v in mon.get("violations", []):
                print(
                    f"INVARIANT VIOLATION [{v.get('check')}] "
                    f"{v.get('error')}: {v.get('message')} "
                    f"(quantum boundary {v.get('boundary')})",
                    file=sys.stderr,
                )
            print(f"invariants: FAILED ({checks} checks)",
                  file=sys.stderr)
            return 1
    return 0


def cmd_trace(args) -> int:
    if args.validate:
        with open(args.validate, "r", encoding="utf-8") as fh:
            count, errors = validate_jsonl(fh)
        for error in errors:
            print(error, file=sys.stderr)
        print(f"{args.validate}: {count} valid events, "
              f"{len(errors)} errors")
        return 1 if errors else 0
    if not args.workload:
        raise SystemExit("trace: workload required (or use --validate)")
    workload = _workload(args.workload)
    scale = args.scale or DEFAULT_SCALES[args.workload]
    bus = EventBus()
    report = TraceReport()
    bus.attach(report)
    jsonl = chrome = None
    if args.trace_out:
        jsonl = JsonlSink(args.trace_out)
        bus.attach(jsonl)
    if args.chrome_out:
        chrome = ChromeTraceExporter()
        bus.attach(chrome)
    run_cell(workload, args.variant, scale=scale, seed=args.seed,
             bus=bus)
    _finish_trace(bus, jsonl, chrome, args)
    print(report.format_summary() if args.summary else report.format())
    return 0


def cmd_convert(args) -> int:
    from repro.obs.metrics import MetricsRegistry
    from repro.traces import ConvertOptions, convert_file
    from repro.workloads.persist import save_trace

    options = ConvertOptions(
        block_shift=args.block_shift,
        remap=args.remap,
        remap_space=args.remap_space,
        transactify=args.transactify,
        iop_cost=args.iop_cost,
        flop_cost=args.flop_cost,
    )
    metrics = MetricsRegistry()
    trace = convert_file(args.events, name=args.name, options=options,
                         metrics=metrics)
    out = args.out or f"{trace.name}.trace"
    save_trace(trace, out)
    snap = metrics.snapshot()

    def metric(name):
        return snap.get(name, {}).get("value", 0)

    print(f"converted {args.events} -> {out}")
    print(f"  events: {metric('traces.events')} "
          f"(dropped {metric('traces.dropped')}), "
          f"ops: {metric('traces.ops')}, "
          f"threads: {trace.num_threads}, "
          f"txns: {trace.transaction_count()}, "
          f"waits: {len(trace.waits)}")
    print(f"  parse throughput: "
          f"{metric('traces.events_per_second'):,.0f} events/sec")
    return 0


def cmd_record(args) -> int:
    from repro.traces import record_trace, replay_options

    workload = _workload(args.workload)
    scale = args.scale or DEFAULT_SCALES[args.workload]
    trace = workload.generate(seed=args.seed, scale=scale,
                              threads=args.threads)
    options = record_trace(trace, args.out)
    replay = f"repro run --trace-file {args.out} --remap none TokenTM"
    if not options.transactify:
        replay += " --no-transactify"
    print(f"recorded {trace.name} (seed {args.seed}, scale {scale:g}) "
          f"-> {args.out}")
    print(f"  {trace.total_ops()} ops, {trace.num_threads} threads, "
          f"{trace.transaction_count()} txns")
    print(f"  replay: {replay}")
    return 0


def cmd_workloads(args) -> int:
    from repro.traces import fixture_workloads
    from repro.workloads.trace import (
        OP_NT_READ,
        OP_NT_WRITE,
        OP_READ,
        OP_WRITE,
    )

    mem_ops = (OP_READ, OP_WRITE, OP_NT_READ, OP_NT_WRITE)

    def row(name, kind, scale, trace):
        counts = [len(t.ops) for t in trace.threads]
        blocks = {arg for t in trace.threads for op, arg in t.ops
                  if op in mem_ops}
        per_thread = (f"{min(counts)}..{max(counts)}"
                      if len(set(counts)) > 1 else str(counts[0]))
        return (name, kind, scale, trace.num_threads,
                trace.total_ops(), per_thread,
                trace.transaction_count(), len(blocks))

    rows = []
    for name, wl in tm_workloads().items():
        scale = args.scale or DEFAULT_SCALES[name]
        trace = wl.generate(seed=args.seed, scale=scale)
        rows.append(row(name, "synthetic", f"{scale:g}", trace))
    for name, trace in lock_applications(seed=args.seed).items():
        rows.append(row(name, "lock", "-", trace))
    for name, wl in fixture_workloads().items():
        rows.append(row(name, "trace", "-",
                        wl.generate(seed=args.seed)))
    if args.trace_file:
        wl = _trace_workload_from_args(args)
        rows.append(row(wl.spec.name, "trace", "-",
                        wl.generate(seed=args.seed)))
    print(format_table(
        ["workload", "kind", "scale", "threads", "ops", "ops/thread",
         "txns", "footprint blocks"],
        rows,
    ))
    return 0


def cmd_table1(args) -> int:
    rows = lcs_table1(lock_applications(seed=args.seed))
    print(format_table1(rows))
    return 0


def cmd_table5(args) -> int:
    scale = args.scale or 0.2
    rows = [measure_table5(wl, seed=args.seed, scale=scale)
            for wl in tm_workloads().values()]
    print(format_table5(rows))
    print(f"(set statistics measured on a {scale:g} sample of each "
          "workload)")
    return 0


def cmd_table6(args) -> int:
    rows = []
    for name, wl in tm_workloads().items():
        scale = args.scale or DEFAULT_SCALES[name]
        rows.append(table6_row(wl, scale=scale, seed=args.seed))
    print(format_table6(rows))
    return 0


def _supervisor_from_args(args):
    """Optional SupervisorConfig built from the supervision flags.

    Returns None when every flag is at its default — the runner then
    uses the zero-cost default config (fail-fast, no timeout, no
    retries), keeping clean runs byte-identical.
    """
    timeout = getattr(args, "cell_timeout", None)
    retries = getattr(args, "max_retries", 0) or 0
    policy = getattr(args, "failure_policy", None)
    if timeout is None and not retries and policy is None:
        return None
    from repro.perf.supervise import FAIL_FAST, SupervisorConfig

    return SupervisorConfig(timeout=timeout, retries=retries,
                            failure_policy=policy or FAIL_FAST)


def _runner_from_args(args):
    """Optional ParallelRunner built from ``--workers``/``--cache-dir``
    and the supervision flags.

    Returns None when none were given, so the default path stays
    import-free and inline.
    """
    workers = getattr(args, "workers", 0) or 0
    cache_dir = getattr(args, "cache_dir", None)
    supervisor = _supervisor_from_args(args)
    if not workers and not cache_dir and supervisor is None:
        return None
    from repro.perf.cache import ResultCache
    from repro.perf.runner import ParallelRunner, default_workers

    if workers < 0:
        workers = default_workers()
    cache = ResultCache(cache_dir) if cache_dir else None
    return ParallelRunner(workers=workers, cache=cache,
                          supervisor=supervisor)


def _print_incomplete(exc: IncompleteGridError) -> None:
    """Surface a failed grid: the structured report, then the error."""
    report = getattr(exc, "report", None)
    if report is not None:
        print(report.format(), file=sys.stderr)
    print(f"error: {exc}", file=sys.stderr)


def _figure(args, variants, title: str) -> int:
    names = args.workloads or list(tm_workloads())
    series = []
    runner = _runner_from_args(args)
    try:
        for name in names:
            wl = _workload(name)
            scale = args.scale or DEFAULT_SCALES[name]
            series.append(figure_speedups(
                wl, variants=variants, scale=scale, runs=args.runs,
                seed=args.seed, runner=runner,
                fast_path=not args.no_fastpath,
            ))
    except IncompleteGridError as exc:
        _print_incomplete(exc)
        return 1
    finally:
        if runner is not None:
            runner.close()
    print(format_speedup_figure(series, title))
    if args.runs > 1:
        print("\n95% confidence intervals:")
        for s in series:
            for variant, est in s.speedups.items():
                print(f"  {s.workload} / {variant}: {est}")
    return 0


def cmd_figure1(args) -> int:
    if not args.workloads:
        args.workloads = ["Delaunay", "Genome", "Vacation-Low",
                          "Vacation-High"]
    return _figure(args, FIGURE1_VARIANTS,
                   "Figure 1. Effect of False Positives "
                   "(speedup vs LogTM-SE_Perf)")


def cmd_figure5(args) -> int:
    return _figure(args, FIGURE5_VARIANTS,
                   "Figure 5. TokenTM Performance "
                   "(speedup vs LogTM-SE_Perf)")


def _landscape_baseline(db_path):
    """Resolve ``--baseline landscape``: ``(payload, problem)``.

    Read-only and resolved *before* the fresh run starts, so the
    comparison is always against the newest trusted run that already
    existed — never against the run being measured.
    """
    from repro.landscape import LandscapeStore, latest_baseline

    db = db_path or "landscape.db"
    try:
        with LandscapeStore(db, readonly=True) as store:
            payload = latest_baseline(store)
    except ConfigError as exc:
        return None, f"{exc}; comparison skipped"
    if payload is None:
        return None, (f"landscape store {db} has no trusted bench run "
                      "yet; comparison skipped")
    return payload, None


def cmd_bench(args) -> int:
    from repro.perf.bench import (
        format_bench_summary,
        load_baseline,
        run_bench,
    )
    from repro.perf.runner import default_workers

    workers = args.workers
    if workers < 0:
        workers = default_workers()
    # Resolve the baseline up front: a bad baseline must warn, not
    # traceback — and never after minutes of benchmarking.
    baseline = problem = None
    baseline_label = args.baseline
    if args.baseline == "landscape":
        baseline, problem = _landscape_baseline(args.landscape)
        baseline_label = (f"landscape store "
                          f"{args.landscape or 'landscape.db'}")
    elif args.baseline:
        baseline, problem = load_baseline(args.baseline)
    try:
        payload = run_bench(
            out=args.out, quick=args.quick, seed=args.seed,
            workers=workers,
            workload_names=args.workloads, variants=args.variants,
            scale_factor=args.scale_factor, cache_dir=args.cache_dir,
            compare_serial=args.compare_serial, micro=not args.no_micro,
            micro_rounds=args.micro_rounds,
            membench=not args.no_membench,
            fast_path=not args.no_fastpath,
            traces=not args.no_traces,
            only=args.only,
            supervisor=_supervisor_from_args(args),
            landscape=args.landscape,
        )
    except IncompleteGridError as exc:
        _print_incomplete(exc)
        return 1
    print(format_bench_summary(payload))
    print(f"wrote {args.out}")
    # Under --failure-policy continue the grid completes with holes;
    # the payload records them and the exit code must still say so.
    grid_report = (payload.get("grid") or {}).get("report") or {}
    rc = 0
    if grid_report.get("failed"):
        print(f"bench: {len(grid_report['failed'])} grid cells failed "
              "(details in the report above)", file=sys.stderr)
        rc = 1
    if args.baseline:
        if baseline is None:
            print(f"warning: {problem}", file=sys.stderr)
            return rc
        from repro.perf.bench import baseline_warnings, check_regression

        for warning in baseline_warnings(payload, baseline):
            print(f"warning: {warning}", file=sys.stderr)
        failures = check_regression(payload, baseline,
                                    tolerance=args.regression_tolerance)
        if failures:
            for failure in failures:
                print(f"REGRESSION: {failure}", file=sys.stderr)
            return 1
        print(f"no regression vs {baseline_label} "
              f"(tolerance {args.regression_tolerance:.0%})")
    return rc


def cmd_chaos(args) -> int:
    from repro.faults.bundle import ReproBundle
    from repro.faults.campaign import replay_bundle, run_campaign
    from repro.faults.plan import FaultPlan, default_plan
    from repro.perf.supervise import flush_on_signals

    if args.replay:
        bundle = ReproBundle.load(args.replay)
        label = bundle.variant + (
            f"+{bundle.mutant}" if bundle.mutant else "")
        print(f"replaying {args.replay}: {bundle.workload} on {label}, "
              f"seed {bundle.seed}, plan "
              f"{bundle.fault_plan().content_hash()}")
        cell = replay_bundle(bundle)
        if cell.ok:
            print("replay PASSED — the recorded failure did not "
                  "reproduce", file=sys.stderr)
            return 1
        same = cell.error.get("message") == bundle.error.get("message")
        print(f"replay reproduced: {cell.error.get('error')}: "
              f"{cell.error.get('message')}")
        print("matches recorded failure" if same else
              "WARNING: differs from recorded failure", file=sys.stderr)
        return 0 if same else 1

    if args.plan:
        plan = FaultPlan.load(args.plan)
    else:
        plan = default_plan(intensity=args.intensity)
    variants = [v for v in args.variants.split(",") if v]
    seeds = range(args.seed_base, args.seed_base + args.seeds)

    def progress(cell):
        status = "ok" if cell.ok else \
            f"FAIL {cell.error.get('error')}: {cell.error.get('message')}"
        print(f"  {cell.workload} / {cell.variant} seed {cell.seed}: "
              f"{status}")

    subject = (f"trace {args.trace_file}" if args.trace_file
               else args.workload)
    db = args.landscape or ("landscape.db" if args.resume else None)
    store = recorder = None
    if db:
        from repro.landscape.store import LandscapeStore, current_git_rev
        from repro.perf.cache import CACHE_SCHEMA

        try:
            store = LandscapeStore(db)
        except ConfigError as exc:
            print(f"chaos: {exc}", file=sys.stderr)
            return 2
        recorder = store.begin_run(
            "chaos", label=subject, git_rev=current_git_rev(),
            cache_schema=CACHE_SCHEMA, seed=args.seed_base,
            provenance={"variants": variants, "seeds": len(seeds),
                        "plan": plan.content_hash(),
                        "mutant": args.mutant})
    if not args.json:
        print(f"chaos campaign: {subject} x {variants} x "
              f"{len(seeds)} seeds, plan {plan.content_hash()} "
              f"({len(plan)} specs)"
              + (f", mutant {args.mutant}" if args.mutant else ""))
    try:
        with flush_on_signals():
            result = run_campaign(
                workload=args.workload, variants=variants, seeds=seeds,
                plan=plan, scale=args.scale, quantum=args.quantum,
                cadence=args.cadence, mutant=args.mutant,
                shrink=not args.no_shrink, out_dir=args.out_dir,
                progress=None if args.json else progress,
                max_cells=args.max_cells, trace_file=args.trace_file,
                recorder=recorder, resume=args.resume,
            )
        if recorder is not None:
            status = ("interrupted" if result.interrupted
                      else "ok" if result.ok else "failed")
            recorder.finish(status, payload=result.summary())
    except (KeyboardInterrupt, SystemExit):
        if recorder is not None:
            recorder.finish("interrupted")
        raise
    except BaseException:
        if recorder is not None:
            recorder.finish("failed")
        raise
    finally:
        if store is not None:
            store.close()
    summary = result.summary()
    if args.json:
        print(json.dumps(summary, indent=2))
    else:
        if result.resumed_cells:
            print(f"resumed {result.resumed_cells} cells from {db}")
        print(f"{summary['cells']} cells, {summary['failures']} "
              f"failures")
        for path in summary["bundles"]:
            print(f"repro bundle: {path} "
                  f"(replay with `repro chaos --replay {path}`)")
    if result.interrupted:
        hint = (f"resume with `repro chaos --resume --landscape {db}`"
                if db else "no landscape was kept; rerun from scratch")
        print(f"chaos: campaign interrupted after "
              f"{summary['cells']} cells; {hint}", file=sys.stderr)
        return 3
    if not result.ok:
        print("chaos: invariant violations detected", file=sys.stderr)
        return 1
    if not args.json:
        print("chaos: all invariants held")
    return 0


def cmd_audit(args) -> int:
    import os

    if args.selftest:
        import tempfile

        from repro.landscape import format_selftest, run_selftest

        with tempfile.TemporaryDirectory() as scratch:
            results = run_selftest(scratch)
        print(format_selftest(results))
        return 0 if all(r.caught for r in results) else 1

    from repro.landscape import LandscapeStore, audit_store, format_audit

    if args.readonly:
        try:
            store = LandscapeStore(args.db, readonly=True)
        except ConfigError as exc:
            print(f"audit: {exc}", file=sys.stderr)
            return 2
    else:
        # A read-write open of a missing path would create an empty
        # store and vacuously pass; auditing nothing is exit 2.
        if not os.path.exists(args.db):
            print(f"audit: no landscape store at {args.db}",
                  file=sys.stderr)
            return 2
        try:
            store = LandscapeStore(args.db)
        except ConfigError as exc:
            print(f"audit: {exc}", file=sys.stderr)
            return 2
        if store.quarantined:
            print(f"audit: {args.db} was unreadable and has been "
                  f"quarantined to {args.db}.corrupt", file=sys.stderr)
            store.close()
            return 2
        if store.healed_runs:
            print(f"audit: healed {store.healed_runs} run(s) left open "
                  "by a dead writer (their unfinished work is now "
                  "honestly interrupted)", file=sys.stderr)
    with store:
        findings = audit_store(store)
        print(format_audit(store, findings))
    return 1 if findings else 0


def cmd_query(args) -> int:
    from repro.landscape import (
        LandscapeStore,
        format_trajectory,
        section_deltas,
        trajectory_regressions,
        trusted_bench_runs,
    )

    try:
        store = LandscapeStore(args.db, readonly=True)
    except ConfigError as exc:
        print(f"query: {exc}", file=sys.stderr)
        return 2
    with store:
        points = trusted_bench_runs(store)
    failures = trajectory_regressions(points, tolerance=args.tolerance)
    if args.json:
        print(json.dumps({
            "points": [
                {"run_id": p.run_id, "git_rev": p.git_rev,
                 "bench_schema": p.bench_schema,
                 "started_unix": p.started_unix,
                 "speedups": p.speedups,
                 "grid_ops_per_sec": p.grid_ops_per_sec}
                for p in points
            ],
            "deltas": {k: list(v)
                       for k, v in section_deltas(points).items()},
            "tolerance": args.tolerance,
            "regressions": failures,
        }, indent=2))
    else:
        print(format_trajectory(points, failures))
    if failures:
        for failure in failures:
            print(f"REGRESSION: {failure}", file=sys.stderr)
        return 1
    return 0


def _add_trace_file_flags(p: argparse.ArgumentParser) -> None:
    """``--trace-file`` + converter knobs shared by run/workloads."""
    p.add_argument("--trace-file", metavar="EVENTS", default=None,
                   help="replay a recorded event-trace file (or shard "
                        "directory) instead of a named workload "
                        "(see docs/traces.md)")
    p.add_argument("--remap", choices=["dense", "mod", "none"],
                   default="dense",
                   help="address-remap policy for --trace-file "
                        "(default: dense)")
    p.add_argument("--block-shift", type=int, default=6,
                   help="log2 block size for address folding "
                        "(default: 6 = 64-byte blocks)")
    p.add_argument("--no-transactify", action="store_true",
                   help="keep mutex sections as locks instead of "
                        "turning them into transactions")


def _add_supervision_flags(p: argparse.ArgumentParser) -> None:
    """Grid-supervision flags shared by figure1/figure5/bench."""
    p.add_argument("--cell-timeout", type=float, default=None,
                   metavar="SECONDS",
                   help="per-cell wall-clock budget; overdue cells "
                        "are killed and retried")
    p.add_argument("--max-retries", type=int, default=0,
                   help="re-run a failed or timed-out cell up to N "
                        "times (with backoff)")
    p.add_argument("--failure-policy",
                   choices=["fail_fast", "continue",
                            "degrade_to_serial"],
                   default=None,
                   help="what to do when a cell exhausts its retries "
                        "(default: fail_fast)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="TokenTM (ISCA 2008) reproduction experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("variants", help="list HTM variants") \
        .set_defaults(func=cmd_variants)

    run_p = sub.add_parser(
        "run", help="run one workload on one variant",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="exit codes: 0 run finished (and every --monitor "
               "invariant held); 1 invariant violation")
    run_p.add_argument("workload", nargs="?", default=None,
                       help="Table 5 workload name (omit when "
                            "replaying with --trace-file)")
    run_p.add_argument("variant", choices=VARIANTS)
    _add_trace_file_flags(run_p)
    run_p.add_argument("--scale", type=float, default=None)
    run_p.add_argument("--seed", type=int, default=0)
    run_p.add_argument("--json", action="store_true")
    run_p.add_argument("--trace", action="store_true",
                       help="record events; print the trace summary")
    run_p.add_argument("--trace-out", metavar="FILE", default=None,
                       help="write the event stream as JSONL")
    run_p.add_argument("--chrome-out", metavar="FILE", default=None,
                       help="write a Chrome trace_event JSON "
                            "(load in Perfetto / chrome://tracing)")
    run_p.add_argument("--no-fastpath", action="store_true",
                       help="disable the memory-system access filters "
                            "(results are identical; for verification)")
    run_p.add_argument("--faults", metavar="PLAN.json", default=None,
                       help="inject the given fault plan "
                            "(see docs/robustness.md)")
    run_p.add_argument("--monitor", action="store_true",
                       help="run the invariant monitor at quantum "
                            "boundaries; exit 1 on any violation")
    run_p.set_defaults(func=cmd_run)

    chaos_p = sub.add_parser(
        "chaos", help="fault-injection campaign (seeds x variants)",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="exit codes: 0 all invariants held; 1 invariant "
               "violations (or a --replay mismatch); 2 landscape "
               "store unusable (e.g. newer schema than this build); "
               "3 campaign interrupted (--max-cells or signal) — "
               "resumable with --resume")
    chaos_p.add_argument("--workload", default="Cholesky",
                         help="Table 5 workload name")
    chaos_p.add_argument("--variants", default="tokentm,logtm_se,onetm",
                         help="comma-separated variants (lowercase "
                              "aliases or registry names)")
    chaos_p.add_argument("--seeds", type=int, default=5,
                         help="number of seeds (seed-base..+N-1)")
    chaos_p.add_argument("--seed-base", type=int, default=0)
    chaos_p.add_argument("--scale", type=float, default=0.004)
    chaos_p.add_argument("--quantum", type=int, default=200)
    chaos_p.add_argument("--cadence", type=int, default=8,
                         help="invariant checks every N quantum "
                              "boundaries")
    chaos_p.add_argument("--plan", metavar="PLAN.json", default=None,
                         help="fault plan (default: built-in chaos plan)")
    chaos_p.add_argument("--intensity", type=float, default=1.0,
                         help="scale the default plan's fault rates")
    chaos_p.add_argument("--mutant", default=None,
                         help="run a deliberately broken TokenTM "
                              "(token_leak / fusion_drop) to self-test "
                              "the monitor")
    chaos_p.add_argument("--out-dir", metavar="DIR",
                         default="chaos-bundles",
                         help="where failure repro bundles are written")
    chaos_p.add_argument("--no-shrink", action="store_true",
                         help="skip shrinking failing plans to minimal")
    chaos_p.add_argument("--replay", metavar="BUNDLE.json", default=None,
                         help="replay a failure bundle and exit")
    chaos_p.add_argument("--resume", action="store_true",
                         help="merge cells the landscape store already "
                              "records as finished instead of "
                              "re-running them (default store: "
                              "landscape.db)")
    chaos_p.add_argument("--max-cells", type=int, default=None,
                         help="simulate at most N new cells, then "
                              "stop with exit code 3 (resumable)")
    chaos_p.add_argument("--landscape", metavar="DB", default=None,
                         help="record the campaign (one work row per "
                              "cell, incl. resumed ones) into this "
                              "landscape store, the campaign's "
                              "checkpoint (docs/landscape.md)")
    chaos_p.add_argument("--trace-file", metavar="EVENTS", default=None,
                         help="run the campaign over a replayed event "
                              "trace (transactified) instead of "
                              "--workload")
    chaos_p.add_argument("--json", action="store_true")
    chaos_p.set_defaults(func=cmd_chaos)

    convert_p = sub.add_parser(
        "convert",
        help="lower a SynchroTrace-style event file to a .trace")
    convert_p.add_argument("events",
                           help="event-trace file (.strace, gzip ok) "
                                "or directory of per-thread shards")
    convert_p.add_argument("-o", "--out", metavar="FILE", default=None,
                           help="output trace path (default: "
                                "<name>.trace; .gz compresses)")
    convert_p.add_argument("--name", default=None,
                           help="workload name (default: from filename)")
    convert_p.add_argument("--remap", choices=["dense", "mod", "none"],
                           default="dense")
    convert_p.add_argument("--remap-space", type=int, default=1 << 18,
                           help="block-address range for the mod policy")
    convert_p.add_argument("--block-shift", type=int, default=6,
                           help="log2 block size for address folding")
    convert_p.add_argument("--transactify", action="store_true",
                           help="turn mutex critical sections into "
                                "transactions (BEGIN/COMMIT)")
    convert_p.add_argument("--iop-cost", type=int, default=1,
                           help="cycles charged per integer op")
    convert_p.add_argument("--flop-cost", type=int, default=2,
                           help="cycles charged per floating-point op")
    convert_p.set_defaults(func=cmd_convert)

    record_p = sub.add_parser(
        "record",
        help="record a synthetic workload as an event-trace file")
    record_p.add_argument("workload", help="Table 5 workload name")
    record_p.add_argument("-o", "--out", metavar="FILE", required=True,
                          help="event-trace output (.strace; "
                               ".gz compresses)")
    record_p.add_argument("--scale", type=float, default=None)
    record_p.add_argument("--seed", type=int, default=0)
    record_p.add_argument("--threads", type=int, default=None)
    record_p.set_defaults(func=cmd_record)

    workloads_p = sub.add_parser(
        "workloads",
        help="list workloads and traces with op counts/footprints")
    workloads_p.add_argument("--scale", type=float, default=None)
    workloads_p.add_argument("--seed", type=int, default=0)
    _add_trace_file_flags(workloads_p)
    workloads_p.set_defaults(func=cmd_workloads)

    trace_p = sub.add_parser(
        "trace", help="traced run with conflict/abort attribution")
    trace_p.add_argument("workload", nargs="?", default=None,
                         help="Table 5 workload name")
    trace_p.add_argument("variant", nargs="?", default="TokenTM",
                         choices=VARIANTS)
    trace_p.add_argument("--scale", type=float, default=None)
    trace_p.add_argument("--seed", type=int, default=0)
    trace_p.add_argument("--summary", action="store_true",
                         help="print only the compact summary table")
    trace_p.add_argument("--trace-out", metavar="FILE", default=None,
                         help="also write the event stream as JSONL")
    trace_p.add_argument("--chrome-out", metavar="FILE", default=None,
                         help="also write a Chrome trace_event JSON")
    trace_p.add_argument("--validate", metavar="FILE", default=None,
                         help="validate an existing JSONL trace "
                              "against the event schema and exit")
    trace_p.set_defaults(func=cmd_trace)

    for name, func, needs_scale in (
        ("table1", cmd_table1, False),
        ("table5", cmd_table5, True),
        ("table6", cmd_table6, True),
    ):
        p = sub.add_parser(name, help=f"reproduce the paper's {name}")
        p.add_argument("--seed", type=int, default=2008)
        if needs_scale:
            p.add_argument("--scale", type=float, default=None)
        p.set_defaults(func=func)

    for name, func in (("figure1", cmd_figure1), ("figure5", cmd_figure5)):
        p = sub.add_parser(name, help=f"reproduce the paper's {name}")
        p.add_argument("--workloads", nargs="*", default=None)
        p.add_argument("--scale", type=float, default=None)
        p.add_argument("--seed", type=int, default=2008)
        p.add_argument("--runs", type=int, default=1,
                       help="perturbed runs for 95%% CIs")
        p.add_argument("--workers", type=int, default=0,
                       help="worker processes (0 = inline, "
                            "-1 = one per CPU)")
        p.add_argument("--cache-dir", metavar="DIR", default=None,
                       help="reuse finished cells from this cache")
        p.add_argument("--no-fastpath", action="store_true",
                       help="disable the memory-system access filters "
                            "(results are identical; for verification)")
        _add_supervision_flags(p)
        p.set_defaults(func=func)

    from repro.perf.bench import BENCH_SECTIONS

    bench_p = sub.add_parser(
        "bench", help="performance benchmark harness (BENCH_perf.json)",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="exit codes: 0 bench complete (and within tolerance "
               "when --baseline is given); 1 grid cells failed or a "
               "regression exceeded the tolerance.  A missing, "
               "truncated, or invalid baseline file warns and skips "
               "the comparison — it never fails the run.")
    bench_p.add_argument("--out", metavar="FILE", default="BENCH_perf.json")
    bench_p.add_argument("--quick", action="store_true",
                         help="small CI-sized grid and microbenchmark")
    bench_p.add_argument("--seed", type=int, default=2008)
    bench_p.add_argument("--workers", type=int, default=0,
                         help="worker processes (0 = inline, "
                              "-1 = one per CPU)")
    bench_p.add_argument("--workloads", nargs="*", default=None)
    bench_p.add_argument("--variants", nargs="*", default=None)
    bench_p.add_argument("--scale-factor", type=float, default=1.0,
                         help="multiply every workload's grid scale")
    bench_p.add_argument("--cache-dir", metavar="DIR", default=None,
                         help="cell cache directory (off by default "
                              "so timings measure simulation)")
    bench_p.add_argument("--compare-serial", action="store_true",
                         help="also time the grid serially and check "
                              "parallel results are identical")
    bench_p.add_argument("--no-micro", action="store_true",
                         help="skip the interpreter microbenchmark")
    bench_p.add_argument("--micro-rounds", type=int, default=3)
    bench_p.add_argument("--no-membench", action="store_true",
                         help="skip the memory-stack microbenchmark")
    bench_p.add_argument("--no-fastpath", action="store_true",
                         help="run the grid with the access filters "
                              "disabled (results are identical)")
    bench_p.add_argument("--no-traces", action="store_true",
                         help="skip the fixture event-trace grid cells")
    bench_p.add_argument("--only", action="append", metavar="SECTION",
                         choices=BENCH_SECTIONS, default=None,
                         help="run only this section (repeatable; "
                              f"choices: {', '.join(BENCH_SECTIONS)}); "
                              "skipped sections are null in the payload "
                              "and only warn under --baseline")
    bench_p.add_argument("--baseline", metavar="FILE", default=None,
                         help="compare against a committed "
                              "BENCH_perf.json; exit 1 on regression. "
                              "The special value 'landscape' resolves "
                              "the newest trusted run from the "
                              "--landscape store instead of a file")
    bench_p.add_argument("--regression-tolerance", type=float, default=0.3,
                         help="allowed fractional speedup drop vs the "
                              "baseline (default 0.3)")
    bench_p.add_argument("--landscape", metavar="DB", default=None,
                         help="record this run (payload, provenance, "
                              "one work row per section and grid cell) "
                              "into this landscape store "
                              "(docs/landscape.md)")
    _add_supervision_flags(bench_p)
    bench_p.set_defaults(func=cmd_bench)

    audit_p = sub.add_parser(
        "audit",
        help="verify the landscape's outcome ledger balances",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="exit codes: 0 ledger balanced (including after "
               "heal-on-reopen of a crashed writer's store); 1 ledger "
               "violations found (orphans, double commits, torn "
               "rows); 2 store missing or unreadable (an unreadable "
               "store is quarantined to <db>.corrupt)")
    audit_p.add_argument("db", nargs="?", default="landscape.db",
                         help="landscape store to audit "
                              "(default: landscape.db)")
    audit_p.add_argument("--readonly", action="store_true",
                         help="audit without healing: a crashed "
                              "writer's still-open run is reported as "
                              "a violation instead of being healed")
    audit_p.add_argument("--selftest", action="store_true",
                         help="prove the audit catches seeded "
                              "violations: mutate fixture ledgers "
                              "(drop a terminal write, double-commit, "
                              "tear a row, corrupt a page) and check "
                              "each is caught; exit 1 on any miss")
    audit_p.set_defaults(func=cmd_audit)

    query_p = sub.add_parser(
        "query",
        help="regression trajectories across trusted bench runs",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="exit codes: 0 no regression between the two newest "
               "trusted bench runs (fewer than two is trivially a "
               "pass); 1 a section's speedup ratio fell more than "
               "the tolerance; 2 store missing or unreadable")
    query_p.add_argument("db", nargs="?", default="landscape.db",
                         help="landscape store to read "
                              "(default: landscape.db)")
    query_p.add_argument("--tolerance", type=float, default=0.3,
                         help="allowed fractional speedup drop between "
                              "the two newest trusted runs "
                              "(default 0.3)")
    query_p.add_argument("--json", action="store_true",
                         help="machine-readable trajectory report")
    query_p.set_defaults(func=cmd_query)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
