"""Chaos campaigns: seeds x variants fault-injection sweeps.

A campaign runs one workload across a grid of ``(seed, variant)``
cells, each on a fresh machine with the fault plan injected and the
invariant monitor in halting mode.  Any
:class:`~repro.common.errors.ReproError` — a monitor violation or a
machinery-level failure the faults provoked — counts as a detection:
the campaign shrinks the plan to a minimal still-failing subset
(greedy delta debugging) and captures a replayable
:class:`~repro.faults.bundle.ReproBundle`.

On a clean build the acceptance campaign
(``repro chaos --seeds 25 --variants tokentm,logtm_se,onetm``) must
come back empty-handed; against the seeded bugs in
:mod:`repro.faults.mutations` it must not.

Campaigns are *checkpointed* in the result landscape: pass a
:class:`~repro.landscape.store.RunRecorder` and every finished cell's
outcome record is durably booked under a key derived from the full
cell content (workload, variant, seed, plan hash, mutant, scale,
quantum, cadence, skew).  A rerun with ``resume`` merges recorded
outcomes instead of re-simulating, so a multi-hour campaign killed at
cell 900/1000 restarts from cell 901 — and the merged
:class:`CampaignResult` is identical to an uninterrupted run's
(asserted by ``tests/faults/test_resume.py``), because each cell is a
pure function of its key content.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.common.config import HTMConfig, RunConfig, SystemConfig
from repro.common.errors import ConfigError, ReproError
from repro.faults.bundle import TRACE_TAIL_EVENTS, ReproBundle
from repro.faults.injector import FaultInjector
from repro.faults.monitor import InvariantMonitor
from repro.faults.mutations import MUTANTS
from repro.faults.plan import FaultPlan, default_plan
from repro.coherence.protocol import MemorySystem
from repro.htm import make_htm
from repro.obs.events import EventBus
from repro.obs.sinks import RingBufferSink
from repro.runtime.executor import Executor
from repro.runtime.stats import RunStats
from repro.workloads import tm_workloads

#: CLI-friendly lowercase aliases for the registry variant names.
VARIANT_ALIASES: Dict[str, str] = {
    "tokentm": "TokenTM",
    "tokentm_nofast": "TokenTM_NoFast",
    "logtm_se": "LogTM-SE_4xH3",
    "logtm_se_2xh3": "LogTM-SE_2xH3",
    "logtm_se_4xh3": "LogTM-SE_4xH3",
    "logtm_se_perf": "LogTM-SE_Perf",
    "onetm": "OneTM",
}

#: Campaign defaults: small enough that 25 seeds x 3 variants stays a
#: smoke test, contended enough to exercise every fault kind.
DEFAULT_WORKLOAD = "Cholesky"
DEFAULT_SCALE = 0.004
DEFAULT_CADENCE = 8


def resolve_variant(name: str) -> str:
    """Map a CLI alias (``tokentm``) to its registry name."""
    return VARIANT_ALIASES.get(name.strip().lower(), name.strip())


@dataclass
class ChaosCell:
    """Outcome of one campaign cell."""

    workload: str
    variant: str
    seed: int
    ok: bool
    stats: Optional[RunStats] = None
    error: Dict[str, object] = field(default_factory=dict)
    bundle: Optional[ReproBundle] = None


@dataclass
class CampaignResult:
    """Everything one campaign produced."""

    workload: str
    scale: float
    plan: Dict[str, object]
    cells: List[ChaosCell] = field(default_factory=list)
    bundle_paths: List[str] = field(default_factory=list)
    #: True when the campaign stopped early (``max_cells`` budget);
    #: the landscape holds everything finished so far — resume to go on.
    interrupted: bool = False
    #: Cells answered from the landscape rather than re-simulated.
    resumed_cells: int = 0

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.cells)

    @property
    def failures(self) -> List[ChaosCell]:
        return [c for c in self.cells if not c.ok]

    def summary(self) -> Dict[str, object]:
        return {
            "workload": self.workload,
            "scale": self.scale,
            "cells": len(self.cells),
            "failures": len(self.failures),
            "ok": self.ok,
            "interrupted": self.interrupted,
            "bundles": list(self.bundle_paths),
        }


def campaign_cell_key(workload: str, variant: str, seed: int,
                      plan: FaultPlan, scale: float, quantum: int,
                      cadence: int, skew_tolerance: Optional[int],
                      mutant: Optional[str],
                      trace_digest: Optional[str] = None) -> str:
    """Ledger key of one campaign cell: its full result-determining
    content, human-readable so the landscape can be audited by eye.

    The plan rides as its content hash (name excluded, like the RNG
    lane), so renaming a plan never invalidates recorded cells but any
    behavioural change to it does.  Trace-backed cells carry the
    trace's content digest the same way: editing the trace file
    invalidates its recorded cells, moving it does not.
    """
    parts = [
        workload, resolve_variant(variant), f"s{seed}",
        f"plan:{plan.content_hash()[:16]}", f"scale:{scale:g}",
        f"q:{quantum}", f"cad:{cadence}",
        f"skew:{'auto' if skew_tolerance is None else skew_tolerance}",
        f"mut:{mutant or '-'}",
    ]
    if trace_digest is not None:
        parts.append(f"trace:{trace_digest[:16]}")
    return "/".join(parts)


def _cell_record(cell: ChaosCell, bundle_path: Optional[str]) -> str:
    """The outcome record of one finished cell, as its ledger detail.

    Stats snapshots stay out on purpose: the ledger records *outcomes*
    (which cells are done, did they fail, where is the bundle), not
    results — a cell that needs stats re-runs without ``resume``.
    """
    return json.dumps({
        "workload": cell.workload,
        "variant": cell.variant,
        "seed": cell.seed,
        "ok": cell.ok,
        "error": dict(cell.error),
        "bundle_path": bundle_path,
    }, sort_keys=True)


def _finished_records(store) -> Dict[str, Dict[str, object]]:
    """``key -> record`` for every chaos cell whose latest outcome in
    ``store`` is ``ok`` or ``failed`` and carries a record this module
    wrote.  Any other latest outcome (``interrupted``, healed) means
    the cell simulates again."""
    finished = {}
    for key, (outcome, detail) in store.latest_outcomes(
            "chaos_cell").items():
        if outcome not in ("ok", "failed"):
            continue
        try:
            record = json.loads(detail or "")
        except ValueError:
            continue
        if isinstance(record, dict):
            finished[key] = record
    return finished


def _cell_from_record(record: Dict[str, object]) -> ChaosCell:
    """Reconstruct a recorded cell (outcome only, ``stats=None``)."""
    return ChaosCell(
        workload=record["workload"],
        variant=record["variant"],
        seed=record["seed"],
        ok=bool(record["ok"]),
        error=dict(record.get("error") or {}),
    )


def _build_machine(variant: str, sys_cfg: SystemConfig,
                   htm_cfg: HTMConfig, bus: Optional[EventBus],
                   mutant: Optional[str]):
    mem = MemorySystem(sys_cfg, bus=bus)
    if mutant is not None:
        cls = MUTANTS.get(mutant)
        if cls is None:
            raise ConfigError(
                f"unknown mutant {mutant!r}; expected one of "
                f"{sorted(MUTANTS)}"
            )
        return cls(mem, htm_cfg)
    return make_htm(variant, mem, htm_cfg)


def run_chaos_cell(workload: str = DEFAULT_WORKLOAD,
                   variant: str = "TokenTM",
                   seed: int = 0,
                   plan: Optional[FaultPlan] = None,
                   scale: float = DEFAULT_SCALE,
                   quantum: int = 200,
                   cadence: int = DEFAULT_CADENCE,
                   skew_tolerance: Optional[int] = None,
                   mutant: Optional[str] = None,
                   registry=None,
                   trace_file: Optional[str] = None) -> ChaosCell:
    """One chaos run: fresh machine, injected plan, halting monitor.

    Deterministic in every input: the same ``(seed, plan)`` replays
    the identical fault sequence, which is what makes the returned
    bundle (on failure) a faithful reproduction recipe.

    ``trace_file`` replays a recorded event trace (transactified, so
    the chaos faults have transactions to perturb) instead of a
    synthetic generator; ``workload`` is then ignored and the cell is
    named after the trace.
    """
    plan = plan if plan is not None else default_plan()
    variant = resolve_variant(variant)
    sys_cfg = SystemConfig()
    htm_cfg = HTMConfig()
    bus = EventBus()
    sink = RingBufferSink(TRACE_TAIL_EVENTS)
    bus.attach(sink)
    machine = _build_machine(variant, sys_cfg, htm_cfg, bus, mutant)
    if trace_file is not None:
        from repro.traces.convert import ConvertOptions
        from repro.traces.workload import TraceWorkload

        trace_wl = TraceWorkload.from_file(
            trace_file, options=ConvertOptions(transactify=True))
        workload = trace_wl.spec.name
        trace = trace_wl.generate(seed=seed, scale=scale,
                                  threads=sys_cfg.num_cores)
    else:
        registry_wl = tm_workloads()
        if workload not in registry_wl:
            raise ConfigError(
                f"unknown workload {workload!r}; expected one of "
                f"{sorted(registry_wl)}"
            )
        trace = registry_wl[workload].generate(
            seed=seed, scale=scale, threads=sys_cfg.num_cores
        )
    injector = FaultInjector(plan, seed=seed, registry=registry, bus=bus)
    monitor = InvariantMonitor(cadence=cadence,
                               skew_tolerance=skew_tolerance,
                               halt=True, registry=registry, bus=bus)
    executor = Executor(machine, trace,
                        RunConfig(system=sys_cfg, htm=htm_cfg, seed=seed),
                        quantum=quantum, validate=False,
                        track_history=True, bus=bus,
                        injector=injector, monitor=monitor)
    cell = ChaosCell(workload=workload, variant=variant, seed=seed, ok=True)
    try:
        cell.stats = executor.run().stats
    except ReproError as exc:
        cell.ok = False
        cell.error = {
            "error": type(exc).__name__,
            "message": str(exc),
            "cause": type(exc.__cause__).__name__
            if exc.__cause__ is not None else None,
        }
        cell.bundle = ReproBundle(
            workload=workload, variant=variant, scale=scale, seed=seed,
            quantum=quantum, cadence=cadence,
            skew_tolerance=skew_tolerance, mutant=mutant,
            trace_file=trace_file,
            plan=plan.to_dict(), error=dict(cell.error),
            faults=injector.snapshot(),
            trace_tail=[e.to_dict() for e in sink.events],
            trace_dropped=sink.dropped,
        )
    return cell


def shrink_plan(plan: FaultPlan,
                still_fails: Callable[[FaultPlan], bool]) -> FaultPlan:
    """Greedy delta debugging: drop specs while the failure persists.

    Repeatedly removes the first spec whose removal keeps
    ``still_fails`` true; terminates at a locally minimal plan (every
    remaining spec is necessary), possibly empty when the failure
    needs no faults at all (a pure monitor catch, e.g. a mutant bug
    the baseline workload already trips).
    """
    current = plan
    changed = True
    while changed:
        changed = False
        for i in range(len(current.specs)):
            candidate = current.without(i)
            if still_fails(candidate):
                current = candidate
                changed = True
                break
    return current


def replay_bundle(bundle: ReproBundle) -> ChaosCell:
    """Re-run a captured failure from its bundle."""
    return run_chaos_cell(
        workload=bundle.workload, variant=bundle.variant,
        seed=bundle.seed, plan=bundle.fault_plan(), scale=bundle.scale,
        quantum=bundle.quantum, cadence=bundle.cadence,
        skew_tolerance=bundle.skew_tolerance, mutant=bundle.mutant,
        trace_file=bundle.trace_file,
    )


def run_campaign(workload: str = DEFAULT_WORKLOAD,
                 variants: Sequence[str] = ("tokentm", "logtm_se", "onetm"),
                 seeds: Sequence[int] = tuple(range(5)),
                 plan: Optional[FaultPlan] = None,
                 scale: float = DEFAULT_SCALE,
                 quantum: int = 200,
                 cadence: int = DEFAULT_CADENCE,
                 skew_tolerance: Optional[int] = None,
                 mutant: Optional[str] = None,
                 shrink: bool = True,
                 out_dir: Optional[str] = None,
                 max_bundles: int = 4,
                 progress: Optional[Callable[[ChaosCell], None]] = None,
                 max_cells: Optional[int] = None,
                 trace_file: Optional[str] = None,
                 recorder=None,
                 resume: bool = False,
                 ) -> CampaignResult:
    """Sweep ``seeds`` x ``variants`` under one fault plan.

    On each failure the plan is shrunk (unless ``shrink=False``) and
    a bundle carrying the *minimal* plan is written to ``out_dir``
    (at most ``max_bundles``; the rest stay in the cells).

    ``recorder`` (a :class:`~repro.landscape.store.RunRecorder`)
    records the campaign into the result landscape, the campaign's
    one durable record of progress: each cell's work row opens
    *before* it simulates and closes with the cell's outcome record
    as its detail, so a SIGKILL mid-cell leaves an open row for
    heal-on-reopen.  With ``resume``, cells whose latest outcome in
    the recorder's store is ``ok`` or ``failed`` are merged back from
    their record instead of re-simulated, and booked again as their
    own closed rows; ``interrupted`` (or healed) cells simulate
    again.  ``max_cells`` bounds how many *new* cells this invocation
    simulates — the campaign stops there with ``interrupted=True``
    (useful for sharding a long campaign across invocations, and for
    deterministic interruption tests).
    """
    plan = plan if plan is not None else default_plan()
    if resume and recorder is None:
        raise ConfigError("resume needs a recorder to read finished "
                          "cells from")
    finished = _finished_records(recorder.store) if resume else {}
    digest = None
    if trace_file is not None:
        from repro.traces.workload import trace_digest as _trace_digest

        digest = _trace_digest(trace_file)
        from pathlib import Path as _Path
        name = _Path(trace_file).name
        for suffix in (".gz", ".strace"):
            if name.endswith(suffix):
                name = name[: -len(suffix)]
        workload = name
    result = CampaignResult(workload=workload, scale=scale,
                            plan=plan.to_dict())
    executed = 0
    for variant in variants:
        for seed in seeds:
            key = campaign_cell_key(workload, variant, seed, plan,
                                    scale, quantum, cadence,
                                    skew_tolerance, mutant,
                                    trace_digest=digest)
            provenance = dict(
                workload=workload, variant=resolve_variant(variant),
                seed=seed, fault_plan=plan.content_hash(),
                trace_digest=digest)
            record = finished.get(key)
            if record is not None:
                cell = _cell_from_record(record)
                bundle_path = record.get("bundle_path")
                result.resumed_cells += 1
            else:
                if max_cells is not None and executed >= max_cells:
                    result.interrupted = True
                    return result
                if recorder is not None:
                    recorder.open("chaos_cell", key, **provenance)
                cell = run_chaos_cell(
                    workload=workload, variant=variant, seed=seed,
                    plan=plan, scale=scale, quantum=quantum,
                    cadence=cadence, skew_tolerance=skew_tolerance,
                    mutant=mutant, trace_file=trace_file,
                )
                if not cell.ok and shrink:
                    cell = _shrink_failure(cell, plan, workload, variant,
                                           seed, scale, quantum, cadence,
                                           skew_tolerance, mutant,
                                           trace_file=trace_file)
                bundle_path = None
                if (not cell.ok and out_dir is not None
                        and cell.bundle is not None
                        and len(result.bundle_paths) < max_bundles):
                    os.makedirs(out_dir, exist_ok=True)
                    bundle_path = os.path.join(
                        out_dir,
                        f"chaos-{cell.variant}-s{seed}"
                        f"{'-' + mutant if mutant else ''}.json",
                    )
                    cell.bundle.save(bundle_path)
                executed += 1
            if bundle_path:
                result.bundle_paths.append(bundle_path)
            result.cells.append(cell)
            if recorder is not None:
                recorder.close_key(
                    "chaos_cell", key, "ok" if cell.ok else "failed",
                    detail=_cell_record(cell, bundle_path), **provenance)
            if progress is not None:
                progress(cell)
    return result


def _shrink_failure(cell: ChaosCell, plan: FaultPlan, workload: str,
                    variant: str, seed: int, scale: float, quantum: int,
                    cadence: int, skew_tolerance: Optional[int],
                    mutant: Optional[str],
                    trace_file: Optional[str] = None) -> ChaosCell:
    """Replace a failing cell with one reproduced on a minimal plan."""

    def still_fails(candidate: FaultPlan) -> bool:
        return not run_chaos_cell(
            workload=workload, variant=variant, seed=seed, plan=candidate,
            scale=scale, quantum=quantum, cadence=cadence,
            skew_tolerance=skew_tolerance, mutant=mutant,
            trace_file=trace_file,
        ).ok

    minimal = shrink_plan(plan, still_fails)
    if minimal.specs == plan.specs:
        return cell
    shrunk = run_chaos_cell(
        workload=workload, variant=variant, seed=seed, plan=minimal,
        scale=scale, quantum=quantum, cadence=cadence,
        skew_tolerance=skew_tolerance, mutant=mutant,
        trace_file=trace_file,
    )
    # Shrinking must preserve the failure; fall back to the original
    # cell if a flaky interaction made the minimal plan pass.
    return shrunk if not shrunk.ok else cell
