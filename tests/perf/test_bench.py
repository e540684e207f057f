"""The bench harness: legacy-loop fidelity and the JSON artifact."""

from __future__ import annotations

import json

import pytest

from repro.common.config import HTMConfig, RunConfig, SystemConfig
from repro.coherence.protocol import MemorySystem
from repro.faults.injector import FaultInjector
from repro.faults.plan import default_plan
from repro.htm import make_htm
from repro.perf.bench import (
    BENCH_SCHEMA,
    bench_specs,
    check_regression,
    load_bench,
    membench,
    micro_trace,
    run_bench,
)
from repro.perf.cache import cell_key
from repro.perf.legacy import LegacyExecutor
from repro.runtime.executor import Executor
from repro.workloads import cholesky, vacation_low
from repro.workloads.base import SyntheticTxnWorkload

from tests.perf.conftest import TINY_SPEC

#: One variant per HTM family (TokenTM / LogTM-SE / OneTM).
FAMILY_VARIANTS = ("TokenTM", "LogTM-SE_4xH3", "OneTM")


def _run(executor_cls, trace, seed=0, variant="TokenTM", fast_path=True,
         system=None, quantum=200, faults=False):
    """One full run: (RunStats, ProtocolStats snapshot)."""
    system = system or SystemConfig()
    htm_cfg = HTMConfig()
    mem = MemorySystem(system, fast_path=fast_path)
    machine = make_htm(variant, mem, htm_cfg)
    injector = FaultInjector(default_plan(), seed=seed) if faults else None
    executor = executor_cls(
        machine, trace, RunConfig(system=system, htm=htm_cfg, seed=seed),
        quantum=quantum, validate=False, track_history=False,
        injector=injector,
    )
    return executor.run().stats, mem.stats.snapshot()


def _assert_loops_agree(trace, **kwargs):
    """The executor's loop and the independent legacy loop retire the
    same RunStats and ProtocolStats."""
    legacy_stats, legacy_protocol = _run(LegacyExecutor, trace, **kwargs)
    stats, protocol = _run(Executor, trace, **kwargs)
    assert stats.snapshot() == legacy_stats.snapshot()
    assert protocol == legacy_protocol
    return stats


def test_micro_trace_is_conflict_free():
    stats, _ = _run(Executor, micro_trace(txns=8))
    assert stats.aborts == 0
    assert stats.commits == 4 * 8


def test_legacy_loop_matches_optimized_on_micro_trace():
    _assert_loops_agree(micro_trace(txns=8))


def test_legacy_loop_matches_optimized_on_contended_trace():
    """The faithful pre-PR loop agrees even through aborts/retries."""
    trace = SyntheticTxnWorkload(TINY_SPEC).generate(seed=11, scale=1.0)
    _assert_loops_agree(trace, seed=11)


@pytest.mark.parametrize("fast_path", [True, False],
                         ids=["fastpath", "no-fastpath"])
@pytest.mark.parametrize("variant", FAMILY_VARIANTS)
def test_legacy_loop_matches_on_variant(variant, fast_path):
    trace = cholesky().generate(seed=7, scale=0.004, threads=4)
    stats = _assert_loops_agree(trace, seed=7, variant=variant,
                                fast_path=fast_path)
    assert stats.commits > 0


@pytest.mark.parametrize("variant", FAMILY_VARIANTS)
def test_legacy_loop_matches_under_faults(variant):
    """A fault plan drives the abort and rewind paths of both loops."""
    trace = vacation_low().generate(seed=11, scale=0.008, threads=4)
    _assert_loops_agree(trace, seed=11, variant=variant, faults=True)


def test_legacy_loop_matches_preemptive():
    """More threads than cores: time-sharing cuts quanta short at
    every context switch."""
    system = SystemConfig().scaled(4)  # 8 threads on 4 cores
    trace = vacation_low().generate(seed=9, scale=0.008, threads=8)
    stats = _assert_loops_agree(trace, seed=9, system=system, quantum=25)
    assert stats.preemptions > 0


def test_bench_specs_quick_subset():
    specs = bench_specs(quick=True)
    assert {s.workload.name for s in specs} == \
        {"Cholesky", "Vacation-Low", "mutex_ring"}
    assert {s.variant for s in specs} == {"TokenTM", "LogTM-SE_4xH3"}
    # Trace cells run at their recorded size.
    assert all(s.scale == 1.0 for s in specs
               if s.workload.name == "mutex_ring")


def test_bench_specs_traces_off():
    specs = bench_specs(quick=True, traces=False)
    assert {s.workload.name for s in specs} == {"Cholesky", "Vacation-Low"}


def test_run_bench_writes_schema_documented_json(tmp_path):
    out = tmp_path / "BENCH_perf.json"
    payload = run_bench(
        out=str(out), quick=True, workload_names=("Cholesky",),
        variants=("TokenTM",), scale_factor=0.5, traces=False,
        cache_dir=str(tmp_path / "cache"), micro=False, membench=False,
    )
    on_disk = json.loads(out.read_text())
    assert on_disk == payload
    assert on_disk["schema"] == BENCH_SCHEMA
    cells = on_disk["grid"]["cells"]
    assert len(cells) == 1
    cell = cells[0]
    assert cell["workload"] == "Cholesky"
    assert cell["variant"] == "TokenTM"
    assert cell["trace_ops"] > 0
    assert cell["wall_seconds"] > 0
    assert cell["sim_ops_per_sec"] > 0
    assert cell["cache_hit"] is False
    assert on_disk["totals"]["trace_ops"] == cell["trace_ops"]
    assert on_disk["metrics"]["perf.simulated"]["value"] == 1
    # Second run hits the cache: same stats content, no wall time.
    rerun = run_bench(
        out=str(out), quick=True, workload_names=("Cholesky",),
        variants=("TokenTM",), scale_factor=0.5, traces=False,
        cache_dir=str(tmp_path / "cache"), micro=False, membench=False,
    )
    warm = rerun["grid"]["cells"][0]
    assert warm["cache_hit"] is True
    assert warm["wall_seconds"] is None
    assert warm["makespan"] == cell["makespan"]
    assert rerun["metrics"]["perf.cache_hits"]["value"] == 1


def test_run_bench_micro_section(tmp_path):
    out = tmp_path / "BENCH_perf.json"
    payload = run_bench(
        out=str(out), quick=True, workload_names=("Cholesky",),
        variants=("TokenTM",), scale_factor=0.25, micro=True,
        micro_rounds=1, membench=False,
    )
    micro = payload["microbench"]
    assert micro["trace_ops"] > 0
    assert micro["legacy_ops_per_sec"] > 0
    assert micro["optimized_ops_per_sec"] > 0
    assert micro["speedup"] > 0


def test_bench_specs_fast_path_changes_cache_key():
    """A --no-fastpath verification run must never be answered from a
    fast-path cache entry (and vice versa)."""
    fast, = bench_specs(quick=True, workload_names=("Cholesky",),
                        variants=("TokenTM",), traces=False)
    slow, = bench_specs(quick=True, workload_names=("Cholesky",),
                        variants=("TokenTM",), fast_path=False,
                        traces=False)
    assert fast.payload()["fast_path"] is True
    assert slow.payload()["fast_path"] is False
    assert cell_key(fast) != cell_key(slow)


def test_membench_identical_stats_and_speedup():
    result = membench(rounds=1, blocks=16, repeats=6)
    assert result["identical_stats"] is True
    assert result["accesses"] > 0
    assert result["speedup"] > 0
    assert result["fastpath"]["htm_read_hits"] > 0
    assert result["fastpath"]["coherence_write_hits"] > 0


def test_run_bench_membench_section(tmp_path):
    out = tmp_path / "BENCH_perf.json"
    payload = run_bench(
        out=str(out), quick=True, workload_names=("Cholesky",),
        variants=("TokenTM",), scale_factor=0.25, micro=False,
        micro_rounds=1, membench=True,
    )
    mem = payload["membench"]
    assert mem["identical_stats"] is True
    assert mem["filtered_ops_per_sec"] > 0
    assert mem["unfiltered_ops_per_sec"] > 0
    assert payload["config"]["fast_path"] is True
    # The fast-path counters reach the artifact's metrics section.
    metrics = payload["metrics"]
    assert metrics["perf.fastpath.htm_read_hits"]["value"] > 0


def test_run_bench_only_sections(tmp_path):
    out = tmp_path / "BENCH_perf.json"
    payload = run_bench(
        out=str(out), quick=True, only=["membench"], micro_rounds=1,
    )
    assert payload["grid"] is None
    assert payload["totals"] is None
    assert payload["config"]["scales"] is None
    assert payload["microbench"] is None
    assert payload["faultbench"] is None
    assert "kernelbench" not in payload
    assert payload["membench"]["identical_stats"] is True
    on_disk = json.loads(out.read_text())
    assert on_disk == payload
    # The skipped sections warn (not fail) against a full baseline.
    from repro.perf.bench import baseline_warnings

    baseline = {"schema": BENCH_SCHEMA,
                "microbench": {"speedup": 2.0},
                "membench": {"speedup": 1.6}}
    assert check_regression(payload, baseline) == []
    warnings = baseline_warnings(payload, baseline)
    assert any("microbench" in w for w in warnings)
    assert not any("membench" in w for w in warnings)


def test_baseline_from_schema8_with_kernelbench(tmp_path):
    """A /8 baseline still carries the deleted ``kernelbench`` section:
    the comparison warns about the schema and the extra section, and
    still checks the sections both payloads share."""
    from repro.perf.bench import baseline_warnings

    payload = run_bench(
        out=str(tmp_path / "b.json"), quick=True,
        only=["microbench", "membench"], micro_rounds=1,
    )
    baseline = {"schema": "repro-bench-perf/8",
                "microbench": {"speedup": payload["microbench"]["speedup"]},
                "membench": {"speedup": payload["membench"]["speedup"]},
                "kernelbench": {"speedup": 3.5}}
    warnings = baseline_warnings(payload, baseline)
    assert any("schema mismatch" in w and "/8" in w for w in warnings)
    assert any("kernelbench" in w for w in warnings)
    assert not any("microbench" in w or "membench" in w for w in warnings)
    assert check_regression(payload, baseline) == []
    # The shared sections are really compared: an eroded ratio fails.
    baseline["membench"]["speedup"] = payload["membench"]["speedup"] * 10
    failures = check_regression(payload, baseline)
    assert len(failures) == 1 and "membench" in failures[0]


def test_run_bench_only_rejects_unknown_section(tmp_path):
    import pytest

    from repro.common.errors import ConfigError

    with pytest.raises(ConfigError, match="grid"):
        run_bench(out=str(tmp_path / "b.json"), quick=True,
                  only=["microbench", "gird"])


def test_format_bench_summary_handles_skipped_grid(tmp_path):
    from repro.perf.bench import format_bench_summary

    payload = run_bench(
        out=str(tmp_path / "b.json"), quick=True, only=["membench"],
        micro_rounds=1,
    )
    summary = format_bench_summary(payload)
    assert "grid: skipped" in summary
    assert "memory stack" in summary


def test_bench_payload_has_no_wall_clock_identity(tmp_path):
    """Schema /8 dropped ``unix_time``: the committed artifact must
    not churn on every regeneration just because time passed.  Run
    timestamps belong to the landscape's run row, not the payload
    (docs/performance.md)."""
    payload = run_bench(
        out=str(tmp_path / "b.json"), quick=True, only=["membench"],
        micro_rounds=1,
    )
    assert "unix_time" not in payload
    assert payload["schema"] == BENCH_SCHEMA == "repro-bench-perf/9"


def test_load_baseline_missing_file_is_soft(tmp_path):
    from repro.perf.bench import load_baseline

    payload, problem = load_baseline(str(tmp_path / "nope.json"))
    assert payload is None
    assert "unreadable" in problem and "comparison skipped" in problem


def test_load_baseline_truncated_file_is_soft(tmp_path):
    from repro.perf.bench import load_baseline

    path = tmp_path / "empty.json"
    path.write_text("")
    payload, problem = load_baseline(str(path))
    assert payload is None
    assert "truncated" in problem and "comparison skipped" in problem


def test_load_baseline_invalid_json_is_soft(tmp_path):
    from repro.perf.bench import load_baseline

    path = tmp_path / "bad.json"
    path.write_text('{"schema": "repro-bench-perf/8", "microbench"')
    payload, problem = load_baseline(str(path))
    assert payload is None
    assert "not valid JSON" in problem


def test_load_baseline_non_object_is_soft(tmp_path):
    from repro.perf.bench import load_baseline

    path = tmp_path / "list.json"
    path.write_text("[1, 2, 3]")
    payload, problem = load_baseline(str(path))
    assert payload is None
    assert "not a bench payload object" in problem


def test_load_baseline_good_file_round_trips(tmp_path):
    from repro.perf.bench import load_baseline

    base = {"schema": BENCH_SCHEMA, "microbench": {"speedup": 2.0}}
    path = tmp_path / "BENCH_perf.json"
    path.write_text(json.dumps(base))
    payload, problem = load_baseline(str(path))
    assert problem is None
    assert payload == base


def test_check_regression_compares_ratios(tmp_path):
    base = {"microbench": {"speedup": 2.0}, "membench": {"speedup": 1.6}}
    ok = {"microbench": {"speedup": 1.8}, "membench": {"speedup": 1.5}}
    bad = {"microbench": {"speedup": 2.1}, "membench": {"speedup": 1.0}}
    assert check_regression(ok, base, tolerance=0.3) == []
    failures = check_regression(bad, base, tolerance=0.3)
    assert len(failures) == 1 and "membench" in failures[0]
    # Absent sections (e.g. --no-membench) are skipped, not failed.
    assert check_regression({"microbench": None}, base) == []
    path = tmp_path / "BENCH_perf.json"
    path.write_text(json.dumps(base))
    assert load_bench(str(path)) == base
