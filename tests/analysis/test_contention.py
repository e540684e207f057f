"""Conflict-attribution (contention profiling) tests."""

from repro.analysis.contention import (
    ConflictRecorder,
    instrument,
    profile_report,
)
from repro.common.config import HTMConfig, RunConfig
from repro.coherence.protocol import MemorySystem
from repro.htm import make_htm
from repro.runtime.executor import run_workload
from repro.workloads.trace import (
    ThreadTrace,
    WorkloadTrace,
    begin,
    commit,
    compute,
    read,
    write,
)
from tests.conftest import SMALL_T, small_system

HOT = 0xC000
COLD = 0xC100


def run_instrumented():
    machine = make_htm("TokenTM", MemorySystem(small_system()),
                       HTMConfig(tokens_per_block=SMALL_T))
    proxy, recorder = instrument(machine)
    threads = [
        ThreadTrace(t, sum(
            [[begin(), write(HOT), read(COLD + t), compute(80),
              commit()] for _ in range(4)], []))
        for t in range(4)
    ]
    trace = WorkloadTrace("hotblock", threads)
    result = run_workload(
        proxy, trace,
        RunConfig(htm=HTMConfig(tokens_per_block=SMALL_T)),
        quantum=1,
    )
    proxy.audit()
    return result, recorder


class TestRecorder:
    def test_conflicts_recorded(self):
        result, recorder = run_instrumented()
        assert result.stats.commits == 16
        assert recorder.total_conflicts > 0

    def test_hot_block_dominates(self):
        _, recorder = run_instrumented()
        hottest = recorder.hottest(1)[0]
        assert hottest.block == HOT
        assert hottest.writer_conflicts == hottest.conflicts
        assert hottest.reader_conflicts == 0

    def test_cold_blocks_quiet(self):
        _, recorder = run_instrumented()
        cold_profiles = [p for p in recorder.hottest(100)
                         if p.block != HOT]
        assert sum(p.conflicts for p in cold_profiles) == 0

    def test_requesters_and_holders_tracked(self):
        _, recorder = run_instrumented()
        hottest = recorder.hottest(1)[0]
        assert sum(hottest.requesters.values()) == hottest.conflicts
        assert hottest.holders  # the metastate named the writer

    def test_proxy_delegates(self):
        machine = make_htm("TokenTM", MemorySystem(small_system()),
                           HTMConfig(tokens_per_block=SMALL_T))
        proxy, _ = instrument(machine)
        assert proxy.name == "TokenTM"
        assert proxy.mem is machine.mem


class TestReport:
    def test_report_renders(self):
        _, recorder = run_instrumented()
        text = profile_report(recorder, top=5)
        assert "Hottest blocks" in text
        assert f"{HOT:#x}" in text

    def test_empty_report(self):
        text = profile_report(ConflictRecorder())
        assert "0 conflicts" in text
