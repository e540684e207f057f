"""Replay tests: dependency enforcement, determinism, the oracle."""

import pytest

from repro.analysis.experiments import run_trace
from repro.common.errors import SimulationError
from repro.traces.convert import convert_file
from repro.traces.record import record_trace, replay_options
from repro.traces.workload import fixture_path, fixture_workloads
from repro.workloads import apache, barnes
from repro.workloads.trace import (
    ThreadTrace,
    WorkloadTrace,
    compute,
    signal,
    wait,
)

from tests.integration.test_golden_stats import run_case

ORACLE_VARIANTS = ("TokenTM", "LogTM-SE_Perf", "OneTM")


class TestDependencyEnforcement:
    def test_wait_blocks_until_signal(self):
        # Thread 1's only work is 10 cycles, but it must wait for
        # thread 0's 1000-cycle compute to finish first.
        trace = WorkloadTrace("dep", [
            ThreadTrace(0, [compute(1000), signal(0)]),
            ThreadTrace(1, [wait(0), compute(10)]),
        ], waits={0: (0, 1)})
        stats = run_trace(trace, "TokenTM", seed=0)
        assert stats.makespan > 1000

    def test_wait_counts_multiple_signals(self):
        # The waiter needs both producers' signals, so it outlasts the
        # slower one.
        trace = WorkloadTrace("dep2", [
            ThreadTrace(0, [compute(200), signal(0)]),
            ThreadTrace(1, [compute(900), signal(0)]),
            ThreadTrace(2, [wait(0), compute(5)]),
        ], waits={0: (0, 2)})
        stats = run_trace(trace, "TokenTM", seed=0)
        assert stats.makespan > 900

    def test_unsatisfiable_wait_deadlocks(self):
        trace = WorkloadTrace("dead", [
            ThreadTrace(0, [wait(0), compute(1)]),
            ThreadTrace(1, [compute(1)]),
        ], waits={0: (0, 1)})  # nobody ever signals 0
        with pytest.raises(SimulationError, match="deadlock"):
            run_trace(trace, "TokenTM", seed=0)


class TestFixtureReplay:
    @pytest.mark.parametrize("variant", ORACLE_VARIANTS)
    def test_prodcons_replays_on_every_variant(self, variant):
        trace = fixture_workloads()["prodcons"].generate()
        stats = run_trace(trace, variant, seed=0)
        assert stats.commits == trace.transaction_count()

    @pytest.mark.parametrize("interned", [True, False])
    def test_replay_is_deterministic(self, interned):
        trace = fixture_workloads()["barrier_storm"].generate()
        a, _ = run_case(trace, "TokenTM", reference=not interned)
        b, _ = run_case(trace, "TokenTM", reference=not interned)
        assert a.snapshot() == b.snapshot()

    def test_fastpath_does_not_change_results(self):
        trace = fixture_workloads()["mutex_ring"].generate()
        on = run_trace(trace, "TokenTM", seed=0)
        off, _ = run_case(trace, "TokenTM", reference=True)
        assert on.snapshot() == off.snapshot()

    def test_gzip_fixture_loads(self):
        assert fixture_path("barrier_storm").name.endswith(".strace.gz")
        trace = fixture_workloads()["barrier_storm"].generate()
        assert trace.num_threads == 8


class TestRecordReplayOracle:
    def test_synthetic_round_trip_is_byte_identical(self, tmp_path):
        original = barnes().generate(seed=4, scale=0.01)
        path = tmp_path / "barnes.strace"
        options = record_trace(original, path)
        replayed = convert_file(path, options=options)
        assert [t.ops for t in replayed.threads] == \
            [t.ops for t in original.threads]

    @pytest.mark.parametrize("variant", ORACLE_VARIANTS)
    @pytest.mark.parametrize("interned", [True, False])
    def test_replay_stats_match_generator_run(self, tmp_path, variant,
                                              interned):
        original = barnes().generate(seed=7, scale=0.005)
        path = tmp_path / "b.strace.gz"
        options = record_trace(original, path)
        replayed = convert_file(path, name=original.name,
                                options=options)
        a, _ = run_case(original, variant, seed=1, reference=not interned)
        b, _ = run_case(replayed, variant, seed=1, reference=not interned)
        assert a.snapshot() == b.snapshot()

    def test_lock_application_round_trips(self, tmp_path):
        original = apache(seed=2)
        path = tmp_path / "apache.strace"
        options = record_trace(original, path)
        assert options.transactify is False
        replayed = convert_file(path, options=options)
        assert [t.ops for t in replayed.threads] == \
            [t.ops for t in original.threads]

    def test_replay_options_detects_transactions(self):
        assert replay_options(barnes().generate(scale=0.005)).transactify
        assert not replay_options(apache()).transactify
        assert replay_options(apache()).remap == "none"
