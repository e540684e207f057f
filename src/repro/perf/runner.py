"""Parallel grid engine: fan evaluation cells out over processes.

Every cell of the paper's evaluation grid — (workload, variant,
seed) at some scale on some machine configuration — simulates on a
fresh machine with no shared state, so the grid is embarrassingly
parallel.  :class:`ParallelRunner` runs cells through a
``ProcessPoolExecutor``, preserves submission order in its results,
consults an optional :class:`~repro.perf.cache.ResultCache` before
simulating, and publishes progress/cache counters through an
:class:`~repro.obs.metrics.MetricsRegistry`:

``perf.cells``        cells requested
``perf.cache_hits``   cells served from the on-disk cache
``perf.cache_misses`` cells that had to simulate (cache attached)
``perf.simulated``    cells actually simulated
``perf.workers``      (gauge) configured worker count

The runner is *supervised* (``docs/robustness.md``): a worker
exception, a killed worker (``BrokenProcessPool``), or a hung cell no
longer aborts the grid.  :class:`~repro.perf.supervise.SupervisorConfig`
adds per-cell wall-clock timeouts with kill-and-retry, bounded retries
with exponential backoff and deterministic jitter, pool rebuilding,
and a failure policy; failures become structured
:class:`~repro.perf.supervise.CellFailure` records collected into a
:class:`~repro.perf.supervise.RunReport`.  Supervision counters ride
the same registry:

``perf.retries``       cell attempts re-run after a failure
``perf.timeouts``      cells killed for exceeding their budget
``perf.worker_deaths`` pool breakages survived (worker OOM/SIGKILL)
``perf.cells_failed``  cells that exhausted their retry budget
``perf.cache_corrupt`` cache entries quarantined as unreadable

Determinism: a cell's result depends only on its :class:`CellSpec`
content — the seed rides in the spec, workers receive the spec by
value, and results are reordered to submission order — so a parallel
run is byte-identical to a serial one, whatever the worker count,
completion order, or retry history (asserted by
``tests/perf/test_runner.py`` and ``tests/perf/test_supervise.py``).
"""

from __future__ import annotations

import hashlib
import os
import signal as _signal
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from functools import lru_cache
from time import perf_counter
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.analysis.experiments import Cell, run_trace
from repro.common.config import HTMConfig, SystemConfig
from repro.common.errors import IncompleteGridError
from repro.faults.monitor import InvariantMonitor
from repro.faults.plan import FaultPlan
from repro.obs.metrics import PERF_RESILIENCE_COUNTERS, MetricsRegistry
from repro.perf.cache import ResultCache, cell_key
from repro.perf.supervise import (
    CONTINUE,
    DEGRADE_TO_SERIAL,
    FAIL_FAST,
    FATE_POOL_BROKEN,
    FATE_RAISED,
    FATE_TIMEOUT,
    CellFailure,
    RunReport,
    SupervisorConfig,
)
from repro.traces.workload import TraceWorkload, TraceWorkloadSpec
from repro.workloads.base import SyntheticTxnWorkload, TxnWorkloadSpec
from repro.workloads.trace import WorkloadTrace

#: Workload identity a cell can carry: a synthetic generator spec or
#: a content-hashed trace spec (path + digest + converter options).
WorkloadSpec = Union[TxnWorkloadSpec, TraceWorkloadSpec]


@dataclass(frozen=True)
class CellSpec:
    """Everything that determines one grid cell's result.

    Carries the workload *spec* (a frozen value object), not the
    generator, so the whole thing pickles cheaply to workers and
    hashes stably for the cache key.  Trace-backed cells carry a
    :class:`~repro.traces.workload.TraceWorkloadSpec`: the trace file
    digest and converter options are the cache identity, so editing a
    trace in place invalidates exactly its cells.
    """

    workload: WorkloadSpec
    variant: str
    seed: int = 0
    scale: float = 1.0
    threads: Optional[int] = None
    system: SystemConfig = field(default_factory=SystemConfig)
    htm: HTMConfig = field(default_factory=HTMConfig)
    #: Canonical JSON of the injected fault plan (None = clean run).
    #: Faults perturb results, so this is cache-key material: a chaos
    #: cell can never be answered from a clean run's entry, nor a
    #: clean cell from a chaos entry.
    faults: Optional[str] = None
    #: Run the invariant monitor (adds a ``monitor`` stats section,
    #: hence also key material).
    monitor: bool = False

    def payload(self) -> Dict[str, object]:
        """Key material for :func:`repro.perf.cache.cell_key`."""
        return {
            "workload": self.workload,
            "variant": self.variant,
            "seed": self.seed,
            "scale": self.scale,
            "threads": self.threads,
            "system": self.system,
            "htm": self.htm,
            "faults": self.faults,
            "monitor": self.monitor,
        }

    def fault_plan(self) -> Optional[FaultPlan]:
        """The fault plan this cell injects, or None for clean runs."""
        if self.faults is None:
            return None
        return FaultPlan.from_canonical(self.faults)


def grid_specs(workloads: Iterable[Union[SyntheticTxnWorkload,
                                         TraceWorkload]],
               variants: Sequence[str],
               seeds: Sequence[int] = (0,),
               scale: float = 1.0,
               threads: Optional[int] = None,
               system: Optional[SystemConfig] = None,
               htm: Optional[HTMConfig] = None,
               faults: Optional[FaultPlan] = None,
               monitor: bool = False) -> List[CellSpec]:
    """The full cross product, in deterministic (wl, seed, variant) order."""
    sys_cfg = system or SystemConfig()
    htm_cfg = htm or HTMConfig()
    plan_json = faults.canonical_json() if faults is not None \
        and faults.specs else None
    return [
        CellSpec(wl.spec, variant, seed=seed, scale=scale, threads=threads,
                 system=sys_cfg, htm=htm_cfg, faults=plan_json,
                 monitor=monitor)
        for wl in workloads
        for seed in seeds
        for variant in variants
    ]


def _work_provenance(spec: CellSpec) -> Dict[str, object]:
    """Ledger provenance columns for one cell's landscape work row.

    ``fault_plan`` hashes the canonical plan JSON exactly as
    :meth:`~repro.faults.plan.FaultPlan.content_hash` does, without
    re-parsing the plan the spec already carries in canonical form.
    """
    plan_hash = None
    if spec.faults is not None:
        plan_hash = hashlib.sha256(
            spec.faults.encode("utf-8")).hexdigest()[:16]
    digest = spec.workload.digest \
        if isinstance(spec.workload, TraceWorkloadSpec) else None
    return {
        "workload": spec.workload.name,
        "variant": spec.variant,
        "seed": spec.seed,
        "fault_plan": plan_hash,
        "trace_digest": digest,
    }


@lru_cache(maxsize=1)
def _trace(workload: WorkloadSpec, seed: int, scale: float,
           threads: int) -> WorkloadTrace:
    """The trace a cell runs, memoized for the cell after it.

    Grid order is (workload, seed, variant), so a workload's later
    variants reuse the trace its first variant generated: one
    generation per workload and seed.  Sharing is safe because
    execution only reads a trace.
    """
    if isinstance(workload, TraceWorkloadSpec):
        source = TraceWorkload.from_spec(workload)
    else:
        source = SyntheticTxnWorkload(workload)
    return source.generate(seed=seed, scale=scale, threads=threads)


def _simulate(spec: CellSpec) -> Tuple[Cell, float]:
    """Worker body: run one cell, returning (cell, wall_seconds)."""
    start = perf_counter()
    threads = spec.threads if spec.threads is not None \
        else spec.system.num_cores
    trace = _trace(spec.workload, spec.seed, spec.scale, threads)
    stats = run_trace(trace, spec.variant, system=spec.system,
                      htm_config=spec.htm, seed=spec.seed,
                      faults=spec.fault_plan(),
                      monitor=InvariantMonitor() if spec.monitor else None)
    return Cell(trace.name, spec.variant, spec.seed, stats), \
        perf_counter() - start


class _Attempt:
    """Supervision bookkeeping for one not-yet-finished cell."""

    __slots__ = ("index", "spec", "key", "attempts", "not_before",
                 "deadline", "work_id")

    def __init__(self, index: int, spec: CellSpec, key: Optional[str]):
        self.index = index
        self.spec = spec
        self.key = key
        self.attempts = 0       # finished attempts (all failed)
        self.not_before = 0.0   # monotonic time gating resubmission
        self.deadline = None    # monotonic per-attempt timeout
        self.work_id = None     # landscape ledger row, if recording

    def token(self) -> str:
        """Stable identity for deterministic backoff jitter."""
        return self.key if self.key is not None else (
            f"{self.spec.workload.name}/{self.spec.variant}"
            f"/s{self.spec.seed}/i{self.index}"
        )


class ParallelRunner:
    """Runs grid cells, optionally in parallel, cached, and supervised.

    ``workers <= 1`` runs the cells serially in this process (no
    pool, no pickling) — the reference path, and the default of the
    experiment helpers.  ``workers > 1`` keeps a lazily created
    process pool alive across calls; use as a context manager or call
    :meth:`close` to reap it.

    ``supervisor`` configures failure handling
    (:class:`~repro.perf.supervise.SupervisorConfig`); the default is
    zero-cost (no timeout, no retries, ``fail_fast``).  Whatever the
    policy, :meth:`run_cells` never returns a list with holes: if any
    cell is unfinished it raises
    :class:`~repro.common.errors.IncompleteGridError` carrying the
    :class:`~repro.perf.supervise.RunReport` (also kept on
    :attr:`last_report`) and the partial results.

    ``simulate`` swaps the worker body for a picklable callable with
    :func:`_simulate`'s signature — the fault-injection hook the
    supervision tests use; production paths leave it None.
    """

    def __init__(self, workers: int = 0,
                 cache: Optional[ResultCache] = None,
                 metrics: Optional[MetricsRegistry] = None,
                 supervisor: Optional[SupervisorConfig] = None,
                 simulate=None, recorder=None):
        if workers < 0:
            raise ValueError("workers must be >= 0")
        self.workers = workers
        self.cache = cache
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.metrics.gauge("perf.workers").set(workers)
        for name in PERF_RESILIENCE_COUNTERS:
            self.metrics.counter(name)
        self.supervisor = supervisor if supervisor is not None \
            else SupervisorConfig()
        self._simulate_fn = simulate
        #: Optional :class:`~repro.landscape.store.RunRecorder`: when
        #: set, every cell becomes a ledger entry — opened at
        #: dispatch, closed at its terminal outcome, with
        #: retries/timeouts/worker deaths as non-terminal events.
        #: ``None`` (the default) keeps the runner byte-identical to
        #: a landscape-free build.
        self.recorder = recorder
        if cache is not None and cache.metrics is None:
            cache.metrics = self.metrics
        if cache is not None and recorder is not None \
                and cache.recorder is None:
            cache.recorder = recorder
        #: Wall seconds per cell of the most recent :meth:`run_cells`
        #: call (None where the cache answered); for bench harnesses.
        self.last_wall_seconds: List[Optional[float]] = []
        #: Supervision record of the most recent :meth:`run_cells`.
        self.last_report: RunReport = RunReport()
        self._pool: Optional[ProcessPoolExecutor] = None

    # ------------------------------------------------------------------

    def run_cell(self, spec: CellSpec) -> Cell:
        """Run (or fetch) a single cell."""
        return self.run_cells([spec])[0]

    def run_cells(self, specs: Sequence[CellSpec]) -> List[Cell]:
        """Run every spec; results align with ``specs`` by index.

        The returned list never contains holes: a run with unfinished
        cells raises :class:`IncompleteGridError` instead (see the
        failure policy on :attr:`supervisor`).
        """
        results: List[Optional[Cell]] = [None] * len(specs)
        walls: List[Optional[float]] = [None] * len(specs)
        report = RunReport(cells=len(specs))
        self.last_report = report
        self.metrics.counter("perf.cells").inc(len(specs))
        pending: List[_Attempt] = []
        for index, spec in enumerate(specs):
            key = None
            if self.cache is not None or self.recorder is not None:
                key = cell_key(spec)
            work_id = None
            if self.recorder is not None:
                work_id = self.recorder.open(
                    "cell", key, **_work_provenance(spec))
            if self.cache is not None:
                hit = self.cache.get(key)
                if hit is not None:
                    self.metrics.counter("perf.cache_hits").inc()
                    results[index] = hit
                    report.completed += 1
                    if work_id is not None:
                        self.recorder.close(work_id, "ok",
                                            detail="served from cache")
                    continue
                self.metrics.counter("perf.cache_misses").inc()
            task = _Attempt(index, spec, key)
            task.work_id = work_id
            pending.append(task)
        if pending:
            if self.workers > 1:
                self._run_pooled(pending, results, walls, report)
            else:
                self._run_serial(pending, results, walls, report)
        self.last_wall_seconds = walls
        if report.failed:
            self._raise_incomplete(report, results)
        return results  # type: ignore[return-value]

    # ------------------------------------------------------------------
    # Supervised execution
    # ------------------------------------------------------------------

    def _raise_incomplete(self, report: RunReport, results) -> None:
        self.metrics.counter("perf.cells_failed").inc(len(report.failed))
        raise IncompleteGridError(
            f"{len(report.failed)} of {report.cells} grid cells "
            f"failed: "
            + "; ".join(f.describe() for f in report.failed[:4])
            + ("; ..." if len(report.failed) > 4 else ""),
            report=report, results=results,
        )

    def _record_failure(self, task: _Attempt, exc: BaseException,
                        fate: str, queue, report: RunReport,
                        results) -> None:
        """Charge a failed attempt; requeue with backoff or fail."""
        task.attempts += 1
        sup = self.supervisor
        if task.attempts <= sup.retries:
            report.retries += 1
            self.metrics.counter("perf.retries").inc()
            if task.work_id is not None:
                self.recorder.event(
                    "retry",
                    f"attempt {task.attempts} {fate}: "
                    f"{type(exc).__name__}: {exc}",
                    key=("cell", task.key))
            task.not_before = time.monotonic() + sup.backoff_delay(
                task.token(), task.attempts)
            queue.append(task)
            return
        if task.work_id is not None:
            self.recorder.close(
                task.work_id, "failed",
                detail=f"{fate} after {task.attempts} attempts: "
                       f"{type(exc).__name__}: {exc}")
        report.failed.append(CellFailure(
            index=task.index,
            workload=task.spec.workload.name,
            variant=task.spec.variant,
            seed=task.spec.seed,
            attempts=task.attempts,
            fate=fate,
            error=type(exc).__name__,
            message=str(exc),
            key=task.key,
        ))
        if sup.failure_policy == FAIL_FAST:
            self._kill_pool()
            self._raise_incomplete(report, results)

    def _run_serial(self, queue: List[_Attempt], results, walls,
                    report: RunReport) -> None:
        """Inline execution with retry/policy supervision.

        No pool means no kill switch, so ``timeout`` is not enforced
        here (documented on :class:`SupervisorConfig`).
        """
        fn = self._simulate_fn if self._simulate_fn is not None \
            else _simulate
        while queue:
            task = queue.pop(0)
            delay = task.not_before - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            try:
                cell, wall = fn(task.spec)
            except Exception as exc:
                self._record_failure(task, exc, FATE_RAISED, queue,
                                     report, results)
            else:
                self._finish(task.index, task.spec, task.key, cell,
                             wall, results, walls, report,
                             work_id=task.work_id)

    def _run_pooled(self, queue: List[_Attempt], results, walls,
                    report: RunReport) -> None:
        """The supervision loop: submit, wait, reap, retry, rebuild.

        ``queue`` holds cells awaiting (re)submission; ``running``
        maps in-flight futures to their bookkeeping.  Worker
        exceptions are caught per future; a broken pool is rebuilt
        (up to the budget) and the surviving cells resubmitted; an
        overdue cell gets its workers killed and is retried.  Cells
        co-resident with a killed worker are requeued *without* an
        attempt charge — only the culprit pays.
        """
        sup = self.supervisor
        running: Dict[object, _Attempt] = {}
        queue = list(queue)
        while queue or running:
            if report.degraded:
                self._run_serial(queue + list(running.values()),
                                 results, walls, report)
                return
            now = time.monotonic()
            ready = [t for t in queue if t.not_before <= now]
            if ready:
                fn = self._simulate_fn if self._simulate_fn is not None \
                    else _simulate
                try:
                    pool = self._ensure_pool()
                    for task in ready:
                        future = pool.submit(fn, task.spec)
                        task.deadline = (now + sup.timeout
                                         if sup.timeout else None)
                        running[future] = task
                        queue.remove(task)
                except BrokenProcessPool:
                    self._survive_pool_break(queue, running, report,
                                             results)
                    continue
            if not running:
                # Everything is backing off; sleep to the next retry.
                wake = min(t.not_before for t in queue)
                time.sleep(max(0.0, wake - time.monotonic()))
                continue
            done = self._wait_round(queue, running)
            broke = False
            for future in done:
                task = running.pop(future)
                try:
                    cell, wall = future.result()
                except BrokenProcessPool:
                    # The pool died under this future; every other
                    # in-flight future is dead too — handle wholesale.
                    queue.append(task)
                    broke = True
                    break
                except Exception as exc:
                    self._record_failure(task, exc, FATE_RAISED, queue,
                                         report, results)
                else:
                    self._finish(task.index, task.spec, task.key, cell,
                                 wall, results, walls, report,
                                 work_id=task.work_id)
            if broke:
                self._survive_pool_break(queue, running, report, results)
                continue
            if sup.timeout:
                self._reap_overdue(queue, running, report, results)

    def _wait_round(self, queue, running):
        """One ``wait()`` bounded by timeouts and backoff wake-ups."""
        sup = self.supervisor
        timeout = None
        now = time.monotonic()
        if sup.timeout:
            next_deadline = min(t.deadline for t in running.values())
            timeout = max(0.0, next_deadline - now)
        if queue:
            next_ready = min(t.not_before for t in queue)
            wake = max(0.0, next_ready - now)
            timeout = wake if timeout is None else min(timeout, wake)
        done, _ = wait(set(running), timeout=timeout,
                       return_when=FIRST_COMPLETED)
        return done

    def _reap_overdue(self, queue, running, report, results) -> None:
        """Kill-and-retry any in-flight cell past its deadline.

        ``ProcessPoolExecutor`` cannot cancel a running call, so the
        kill is wholesale: SIGKILL the workers, requeue the innocent
        in-flight cells free of charge, and charge a timeout attempt
        to the overdue ones.
        """
        now = time.monotonic()
        overdue = [(future, task) for future, task in running.items()
                   if task.deadline is not None and task.deadline <= now]
        if not overdue:
            return
        report.timeouts += len(overdue)
        self.metrics.counter("perf.timeouts").inc(len(overdue))
        if self.recorder is not None:
            for _future, task in overdue:
                self.recorder.event(
                    "timeout",
                    f"cell exceeded its {self.supervisor.timeout:g}s "
                    f"budget; workers killed",
                    key=("cell", task.key))
        for future, task in overdue:
            del running[future]
        for future, task in list(running.items()):
            task.not_before = 0.0
            queue.append(task)
        running.clear()
        self._kill_pool()
        for _future, task in overdue:
            exc = TimeoutError(
                f"cell exceeded its {self.supervisor.timeout:g}s "
                f"wall-clock budget"
            )
            self._record_failure(task, exc, FATE_TIMEOUT, queue,
                                 report, results)

    def _survive_pool_break(self, queue, running, report,
                            results) -> None:
        """Absorb a ``BrokenProcessPool``: rebuild and resubmit.

        Which cell killed the pool is unknowable (the executor fails
        every in-flight future identically), so breakage is charged
        to a pool-level rebuild budget rather than to any cell's
        attempts.  Past the budget the failure policy decides:
        ``degrade_to_serial`` runs the remainder inline, the others
        fail the remaining cells as ``pool_broken``.
        """
        report.worker_deaths += 1
        self.metrics.counter("perf.worker_deaths").inc()
        if self.recorder is not None:
            self.recorder.event(
                "worker_death",
                f"worker pool broke (death {report.worker_deaths}); "
                f"{len(running)} in-flight cells requeued")
        for task in running.values():
            task.not_before = 0.0
            queue.append(task)
        running.clear()
        self._kill_pool()
        if report.pool_rebuilds < self.supervisor.pool_rebuilds:
            report.pool_rebuilds += 1
            return
        policy = self.supervisor.failure_policy
        if policy == DEGRADE_TO_SERIAL:
            report.degraded = True
            return
        exc = BrokenProcessPool(
            f"worker pool died {report.worker_deaths} times "
            f"(rebuild budget {self.supervisor.pool_rebuilds})"
        )
        for task in list(queue):
            task.attempts = max(task.attempts, self.supervisor.retries)
            self._record_failure(task, exc, FATE_POOL_BROKEN, [],
                                 report, results)
        queue.clear()

    def _finish(self, index, spec, key, cell, wall, results, walls,
                report: Optional[RunReport] = None,
                work_id=None) -> None:
        self.metrics.counter("perf.simulated").inc()
        results[index] = cell
        walls[index] = wall
        if report is not None:
            report.completed += 1
        if self.cache is not None and key is not None:
            self.cache.put(key, cell, sidecar=spec.payload())
        if work_id is not None:
            self.recorder.close(work_id, "ok", detail="simulated")

    # ------------------------------------------------------------------

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.workers)
        return self._pool

    def _kill_pool(self) -> None:
        """Tear the pool down hard (SIGKILL workers); idempotent.

        Used when a hung cell must die or the pool is already broken:
        a graceful ``shutdown()`` would wait forever on a worker that
        is spinning or unresponsive.
        """
        pool, self._pool = self._pool, None
        if pool is None:
            return
        for proc in list(getattr(pool, "_processes", {}).values()):
            try:
                if proc.is_alive():
                    os.kill(proc.pid, _signal.SIGKILL)
            except (OSError, ValueError):
                pass
        try:
            pool.shutdown(wait=False, cancel_futures=True)
        except Exception:
            pass

    def close(self) -> None:
        """Shut the worker pool down (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def __enter__(self) -> "ParallelRunner":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def default_workers() -> int:
    """Worker count for ``--workers 0``: one per available CPU."""
    return os.cpu_count() or 1
