"""Invariant monitor: clean runs, record vs halt modes, NULL idiom."""

import pytest

from repro.common.config import HTMConfig, RunConfig, SystemConfig
from repro.common.errors import InvariantViolationError, SimulationError
from repro.faults.monitor import NULL_MONITOR, InvariantMonitor
from repro.faults.mutations import TokenLeakTokenTM
from repro.coherence.protocol import MemorySystem
from repro.htm import make_htm
from repro.runtime.executor import Executor
from repro.runtime.stats import RunStats
from repro.workloads import tm_workloads


def _executor(monitor, htm_cls=None, seed=3, scale=0.002, quantum=200):
    sys_cfg = SystemConfig()
    htm_cfg = HTMConfig()
    mem = MemorySystem(sys_cfg)
    if htm_cls is not None:
        htm = htm_cls(mem, htm_cfg)
    else:
        htm = make_htm("TokenTM", mem, htm_cfg)
    trace = tm_workloads()["Cholesky"].generate(
        seed=seed, scale=scale, threads=sys_cfg.num_cores
    )
    return Executor(htm, trace,
                    RunConfig(system=sys_cfg, htm=htm_cfg, seed=seed),
                    quantum=quantum, validate=False, track_history=True,
                    monitor=monitor)


class TestNullMonitor:
    def test_disabled_and_refuses_to_run(self):
        assert NULL_MONITOR.enabled is False
        with pytest.raises(SimulationError):
            NULL_MONITOR.on_quantum(None)

    def test_stats_have_no_faults_keys_by_default(self):
        # Byte-identity guarantee: a clean run's snapshot must not
        # grow "faults"/"monitor" keys just because the subsystem
        # exists.
        snap = RunStats().snapshot()
        assert "faults" not in snap
        assert "monitor" not in snap


class TestCleanRun:
    def test_finalize_reports_ok(self):
        monitor = InvariantMonitor(cadence=8)
        result = _executor(monitor).run()
        summary = result.stats.monitor
        assert summary["ok"] is True
        assert summary["checks_run"] > 1  # cadence checks + finalize
        assert summary["cadence"] == 8
        assert summary["violations"] == []
        assert "audit" in summary["report"]

    def test_check_invariants_promoted_to_monitor_path(self):
        # Satellite: htm.check_invariants() feeds last_report, so the
        # machine oracle runs continuously, not just in tests.
        monitor = InvariantMonitor(cadence=4)
        _executor(monitor).run()
        assert monitor.last_report.get("checks")
        assert monitor.checks_run > 1


class TestMutantDetection:
    def test_record_mode_collects_violations(self):
        monitor = InvariantMonitor(cadence=4, halt=False)
        result = _executor(monitor, htm_cls=TokenLeakTokenTM).run()
        summary = result.stats.monitor
        assert summary["ok"] is False
        assert summary["violations"]
        first = summary["violations"][0]
        assert set(first) == {"check", "error", "message", "boundary"}
        assert first["check"] == "machine"
        assert "debits" in first["message"]

    def test_halt_mode_raises(self):
        monitor = InvariantMonitor(cadence=4, halt=True)
        executor = _executor(monitor, htm_cls=TokenLeakTokenTM)
        with pytest.raises(InvariantViolationError,
                           match="quantum boundary"):
            executor.run()

    def test_duplicate_violations_deduplicated(self):
        monitor = InvariantMonitor(cadence=1, halt=False)
        _executor(monitor, htm_cls=TokenLeakTokenTM).run()
        keys = [(v["check"], v["message"]) for v in monitor.violations]
        assert len(keys) == len(set(keys))


class TestTimeShared:
    """Under time-sharing, thread clocks skew by up to a timeslice."""

    def _executor(self, monitor):
        sys_cfg = SystemConfig().scaled(4)
        htm_cfg = HTMConfig()
        htm = make_htm("TokenTM", MemorySystem(sys_cfg), htm_cfg)
        trace = tm_workloads()["Vacation-High"].generate(
            seed=2008, scale=0.0005, threads=8)
        return Executor(htm, trace,
                        RunConfig(system=sys_cfg, htm=htm_cfg, seed=2008),
                        quantum=50, validate=False, track_history=True,
                        monitor=monitor)

    def test_max_skew_follows_the_scheduler(self):
        executor = self._executor(None)
        assert executor.max_skew == 50_000 + 50
        assert _executor(None).max_skew == 200

    def test_monitored_run_reports_no_false_violation(self):
        # With a quantum's tolerance the oracle reports overlaps that
        # are only timeslice skew between a running and a waiting
        # thread.
        monitor = InvariantMonitor(cadence=64)
        result = self._executor(monitor).run()
        assert result.stats.preemptions > 0
        assert monitor.checks_run > 1
        assert result.stats.monitor["violations"] == []
