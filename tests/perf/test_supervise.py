"""The supervision layer: retries, timeouts, worker death, policies.

Worker-failure injection uses module-level functions (picklable) that
coordinate with the test through marker files in a directory passed
via an environment variable — the only channel that survives the
process boundary.  Every self-inflicted death is gated on *not*
running in the main process, so ``degrade_to_serial`` can finish the
same cells inline.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time
from pathlib import Path

import pytest

from repro.common.errors import ConfigError, IncompleteGridError
from repro.perf.runner import CellSpec, ParallelRunner, grid_specs
from repro.perf.supervise import (
    CONTINUE,
    DEGRADE_TO_SERIAL,
    FATE_POOL_BROKEN,
    FATE_RAISED,
    FATE_TIMEOUT,
    SupervisorConfig,
    flush_on_signals,
)
from repro.perf.runner import simulate_cell

from tests.perf.conftest import TINY_SPEC

VARIANTS = ("TokenTM", "LogTM-SE_Perf")
SCALE = 0.5
MARKER_ENV = "REPRO_TEST_SUPERVISE_DIR"


def _specs(tiny_workload, seeds=(1,)):
    return grid_specs([tiny_workload], VARIANTS, seeds=seeds, scale=SCALE)


def _marker(spec: CellSpec, tag: str) -> Path:
    return (Path(os.environ[MARKER_ENV])
            / f"{tag}-{spec.variant}-s{spec.seed}")


def _in_worker() -> bool:
    return multiprocessing.current_process().name != "MainProcess"


# ----------------------------------------------------------------------
# Injected worker bodies (module-level: must pickle to workers)
# ----------------------------------------------------------------------

def _raise_always(spec):
    raise RuntimeError(f"injected failure for {spec.variant}")


def _raise_for_tokentm(spec):
    if spec.variant == "TokenTM":
        raise RuntimeError("injected failure")
    return simulate_cell(spec)


def _flaky_once(spec):
    """Fail each cell's first attempt, succeed afterwards."""
    marker = _marker(spec, "flaky")
    if not marker.exists():
        marker.touch()
        raise RuntimeError("injected transient failure")
    return simulate_cell(spec)


def _die_once(spec):
    """SIGKILL the worker on each cell's first attempt."""
    marker = _marker(spec, "die")
    if _in_worker() and not marker.exists():
        marker.touch()
        os.kill(os.getpid(), signal.SIGKILL)
    return simulate_cell(spec)


def _die_always_in_worker(spec):
    """Kill every worker attempt; only an inline run can finish."""
    if _in_worker():
        os.kill(os.getpid(), signal.SIGKILL)
    return simulate_cell(spec)


def _hang_once(spec):
    """Hang each cell's first attempt well past any test timeout."""
    marker = _marker(spec, "hang")
    if _in_worker() and not marker.exists():
        marker.touch()
        time.sleep(600)
    return simulate_cell(spec)


def _mixed_fates(spec):
    """The acceptance-criteria grid: one cell's worker dies, one
    hangs, one fails permanently, the rest are clean."""
    if spec.seed == 1:
        return _die_once(spec)
    if spec.seed == 2:
        return _hang_once(spec)
    if spec.seed == 3:
        raise RuntimeError("injected permanent failure")
    return simulate_cell(spec)


@pytest.fixture
def marker_dir(tmp_path, monkeypatch):
    monkeypatch.setenv(MARKER_ENV, str(tmp_path))
    return tmp_path


def _snapshots(cells):
    return [c.stats.snapshot() for c in cells]


# ----------------------------------------------------------------------
# SupervisorConfig
# ----------------------------------------------------------------------

class TestSupervisorConfig:
    def test_defaults_are_zero_cost(self):
        cfg = SupervisorConfig()
        assert cfg.is_default
        assert cfg.timeout is None and cfg.retries == 0
        assert not SupervisorConfig(retries=2).is_default

    @pytest.mark.parametrize("kwargs", [
        {"failure_policy": "explode"},
        {"timeout": 0.0},
        {"timeout": -1.0},
        {"retries": -1},
        {"pool_rebuilds": -1},
    ])
    def test_rejects_bad_config(self, kwargs):
        with pytest.raises(ConfigError):
            SupervisorConfig(**kwargs)

    def test_backoff_is_deterministic_and_bounded(self):
        cfg = SupervisorConfig(backoff_base=0.1, backoff_max=1.0,
                               jitter=0.5)
        assert cfg.backoff_delay("a", 1) == cfg.backoff_delay("a", 1)
        assert cfg.backoff_delay("a", 1) != cfg.backoff_delay("b", 1)
        # exponential up to the cap, jitter on top of it
        for attempt in range(1, 10):
            delay = cfg.backoff_delay("cell", attempt)
            assert 0.0 < delay <= cfg.backoff_max * (1 + cfg.jitter)


# ----------------------------------------------------------------------
# Failure handling, serial engine
# ----------------------------------------------------------------------

class TestSerialSupervision:
    def test_fail_fast_raises_with_report(self, tiny_workload):
        runner = ParallelRunner(workers=0, simulate=_raise_always)
        with pytest.raises(IncompleteGridError) as exc:
            runner.run_cells(_specs(tiny_workload))
        report = exc.value.report
        assert report is runner.last_report
        assert len(report.failed) == 1  # fail-fast: first cell aborts
        assert report.failed[0].fate == FATE_RAISED
        assert report.failed[0].attempts == 1
        assert "injected failure" in report.failed[0].message
        assert runner.metrics.counter("perf.cells_failed").value == 1

    def test_continue_finishes_surviving_cells(self, tiny_workload):
        sup = SupervisorConfig(failure_policy=CONTINUE)
        runner = ParallelRunner(workers=0, supervisor=sup,
                                simulate=_raise_for_tokentm)
        specs = _specs(tiny_workload, seeds=(1, 2))
        with pytest.raises(IncompleteGridError) as exc:
            runner.run_cells(specs)
        report = exc.value.report
        assert report.cells == 4 and report.completed == 2
        assert sorted(f.seed for f in report.failed) == [1, 2]
        assert all(f.variant == "TokenTM" for f in report.failed)
        # Partial results carry the survivors at the right indices.
        results = exc.value.results
        for i, spec in enumerate(specs):
            if spec.variant == "TokenTM":
                assert results[i] is None
            else:
                assert results[i].variant == spec.variant

    def test_retry_recovers_and_matches_clean_run(self, tiny_workload,
                                                  marker_dir):
        specs = _specs(tiny_workload, seeds=(1, 2))
        clean = ParallelRunner(workers=0).run_cells(specs)
        sup = SupervisorConfig(retries=1, backoff_base=0.001,
                               backoff_max=0.002)
        runner = ParallelRunner(workers=0, supervisor=sup,
                                simulate=_flaky_once)
        retried = runner.run_cells(specs)
        assert _snapshots(retried) == _snapshots(clean)
        assert runner.last_report.retries == len(specs)
        assert runner.last_report.ok
        assert runner.metrics.counter("perf.retries").value == len(specs)

    def test_retry_budget_exhausts(self, tiny_workload):
        sup = SupervisorConfig(retries=2, failure_policy=CONTINUE,
                               backoff_base=0.001, backoff_max=0.002)
        runner = ParallelRunner(workers=0, supervisor=sup,
                                simulate=_raise_always)
        with pytest.raises(IncompleteGridError) as exc:
            runner.run_cells(_specs(tiny_workload))
        for failure in exc.value.report.failed:
            assert failure.attempts == 3  # 1 + 2 retries


# ----------------------------------------------------------------------
# Failure handling, pooled engine
# ----------------------------------------------------------------------

class TestPooledSupervision:
    def test_worker_exception_does_not_break_grid(self, tiny_workload):
        sup = SupervisorConfig(failure_policy=CONTINUE)
        with ParallelRunner(workers=2, supervisor=sup,
                            simulate=_raise_for_tokentm) as runner:
            with pytest.raises(IncompleteGridError) as exc:
                runner.run_cells(_specs(tiny_workload, seeds=(1, 2)))
        report = exc.value.report
        assert report.completed == 2 and len(report.failed) == 2
        assert report.worker_deaths == 0  # a raise is not a death

    def test_killed_worker_pool_rebuilt_and_cell_retried(
            self, tiny_workload, marker_dir):
        specs = _specs(tiny_workload, seeds=(1, 2))
        clean = ParallelRunner(workers=0).run_cells(specs)
        # Every cell kills its worker once, so the worst case is one
        # pool generation per cell; a smaller budget would make the
        # test depend on how many deaths share a generation.
        sup = SupervisorConfig(failure_policy=CONTINUE,
                               pool_rebuilds=len(specs))
        with ParallelRunner(workers=2, supervisor=sup,
                            simulate=_die_once) as runner:
            survived = runner.run_cells(specs)
        assert _snapshots(survived) == _snapshots(clean)
        report = runner.last_report
        assert report.worker_deaths >= 1
        assert 1 <= report.pool_rebuilds <= len(specs)
        assert report.ok
        assert runner.metrics.counter("perf.worker_deaths").value \
            == report.worker_deaths

    def test_hung_cell_times_out_and_retries(self, tiny_workload,
                                             marker_dir):
        specs = _specs(tiny_workload, seeds=(1,))
        clean = ParallelRunner(workers=0).run_cells(specs)
        sup = SupervisorConfig(timeout=1.0, retries=1,
                               backoff_base=0.001, backoff_max=0.002,
                               failure_policy=CONTINUE)
        with ParallelRunner(workers=2, supervisor=sup,
                            simulate=_hang_once) as runner:
            recovered = runner.run_cells(specs)
        assert _snapshots(recovered) == _snapshots(clean)
        report = runner.last_report
        assert report.timeouts >= 1
        assert report.retries >= 1
        assert runner.metrics.counter("perf.timeouts").value \
            == report.timeouts

    def test_hung_cell_without_retries_fails_as_timeout(
            self, tiny_workload, marker_dir):
        sup = SupervisorConfig(timeout=0.5, failure_policy=CONTINUE)
        with ParallelRunner(workers=2, supervisor=sup,
                            simulate=_hang_once) as runner:
            with pytest.raises(IncompleteGridError) as exc:
                runner.run_cells(_specs(tiny_workload, seeds=(1,)))
        fates = {f.fate for f in exc.value.report.failed}
        assert FATE_TIMEOUT in fates

    def test_exhausted_rebuild_budget_degrades_to_serial(
            self, tiny_workload, marker_dir):
        specs = _specs(tiny_workload, seeds=(1,))
        clean = ParallelRunner(workers=0).run_cells(specs)
        sup = SupervisorConfig(failure_policy=DEGRADE_TO_SERIAL,
                               pool_rebuilds=0)
        with ParallelRunner(workers=2, supervisor=sup,
                            simulate=_die_always_in_worker) as runner:
            finished = runner.run_cells(specs)
        assert _snapshots(finished) == _snapshots(clean)
        assert runner.last_report.degraded
        assert runner.last_report.worker_deaths >= 1

    def test_exhausted_rebuild_budget_fails_remaining_cells(
            self, tiny_workload, marker_dir):
        sup = SupervisorConfig(failure_policy=CONTINUE, pool_rebuilds=0)
        with ParallelRunner(workers=2, supervisor=sup,
                            simulate=_die_always_in_worker) as runner:
            with pytest.raises(IncompleteGridError) as exc:
                runner.run_cells(_specs(tiny_workload, seeds=(1,)))
        assert {f.fate for f in exc.value.report.failed} \
            == {FATE_POOL_BROKEN}

    def test_crash_hang_and_corrupt_cache_in_one_grid(
            self, tiny_workload, marker_dir, tmp_path):
        """The acceptance grid: a killed worker, a hung cell, a
        permanently failing cell, and a corrupt cache entry — under
        ``continue`` the grid completes, the report names exactly the
        failed cell, and every survivor matches a clean serial run."""
        from repro.perf.cache import ResultCache, cell_key

        specs = grid_specs([tiny_workload], ("TokenTM",),
                           seeds=(1, 2, 3, 4), scale=SCALE)
        clean = {}
        for i, spec in enumerate(specs):
            if spec.seed != 3:
                clean[i] = ParallelRunner(workers=0).run_cells([spec])[0]

        cache_dir = tmp_path / "cache"
        warm = ResultCache(cache_dir)
        key4 = cell_key(specs[3])
        warm.put(key4, clean[3], sidecar=specs[3].payload())
        entry = cache_dir / key4[:2] / f"{key4}.pkl"
        entry.write_bytes(entry.read_bytes()[:10])  # corrupt it

        sup = SupervisorConfig(timeout=2.0, retries=1,
                               backoff_base=0.001, backoff_max=0.002,
                               failure_policy=CONTINUE)
        with ParallelRunner(workers=2, supervisor=sup,
                            cache=ResultCache(cache_dir),
                            simulate=_mixed_fates) as runner:
            with pytest.raises(IncompleteGridError) as exc:
                runner.run_cells(specs)

        report = exc.value.report
        assert [(f.seed, f.fate) for f in report.failed] \
            == [(3, FATE_RAISED)]
        assert report.completed == 3
        # The hung cell may be reaped by its deadline *or* rescued as
        # collateral of the pool break (both paths requeue it), so
        # only the worker death is deterministic here; the timeout
        # path is pinned by test_hung_cell_times_out_and_retries.
        assert report.worker_deaths >= 1
        assert runner.metrics.counter("perf.cache_corrupt").value == 1
        for i, cell in enumerate(exc.value.results):
            if specs[i].seed == 3:
                assert cell is None
            else:
                assert cell.stats.snapshot() \
                    == clean[i].stats.snapshot()

    def test_clean_parallel_run_report_and_output_unchanged(
            self, tiny_workload):
        """Supervision at defaults is invisible: same results, clean
        report, all resilience counters at zero."""
        specs = _specs(tiny_workload, seeds=(1, 2))
        serial = ParallelRunner(workers=0).run_cells(specs)
        with ParallelRunner(workers=2) as runner:
            parallel = runner.run_cells(specs)
        assert _snapshots(parallel) == _snapshots(serial)
        report = runner.last_report
        assert report.ok and report.completed == len(specs)
        assert report.retries == report.timeouts == 0
        assert report.worker_deaths == report.pool_rebuilds == 0
        for name in ("perf.retries", "perf.timeouts",
                     "perf.worker_deaths", "perf.cells_failed",
                     "perf.cache_corrupt"):
            assert runner.metrics.counter(name).value == 0


class TestFlushOnSignals:
    def test_sigterm_exits_143(self):
        with pytest.raises(SystemExit) as exc:
            with flush_on_signals():
                os.kill(os.getpid(), signal.SIGTERM)
        assert exc.value.code == 128 + signal.SIGTERM

    def test_sigint_raises_keyboard_interrupt(self):
        with pytest.raises(KeyboardInterrupt):
            with flush_on_signals():
                os.kill(os.getpid(), signal.SIGINT)

    def test_previous_handlers_restored(self):
        before = signal.getsignal(signal.SIGTERM)
        with flush_on_signals():
            assert signal.getsignal(signal.SIGTERM) is not before
        assert signal.getsignal(signal.SIGTERM) is before
