"""The bench harness and its JSON artifact, plus the executor's
fidelity to the pre-optimization interpreter loop."""

from __future__ import annotations

import json

import pytest

from repro.common.config import SystemConfig
from repro.faults.plan import default_plan
from repro.perf.bench import (
    BENCH_SCHEMA,
    bench_specs,
    check_regression,
    load_bench,
    membench,
    run_bench,
)
from repro.workloads import cholesky, vacation_low
from repro.workloads.base import SyntheticTxnWorkload

from tests.integration.test_golden_stats import run_case, stats_digest
from tests.perf.conftest import TINY_SPEC

#: One variant per HTM family (TokenTM / LogTM-SE / OneTM).
FAMILY_VARIANTS = ("TokenTM", "LogTM-SE_4xH3", "OneTM")

#: Digests of the RunStats and ProtocolStats that the pre-optimization
#: interpreter loop (an ``if``/``elif`` opcode chain written
#: independently of ``Executor._run_quantum``) retired on each case
#: below.  The loop itself is gone; the executor must keep matching
#: what it recorded.
LOOP_DIGESTS = {
    "contended": "eea18a657c54b1c8",
    "variant-TokenTM": "131627ab23b86ca2",
    "variant-LogTM-SE_4xH3": "b88492641353e3cb",
    "variant-OneTM": "37df4812f368beea",
    "faults-TokenTM": "ea6ab620bc501113",
    "faults-LogTM-SE_4xH3": "8bb102b03865e683",
    "faults-OneTM": "30093756b407b4b0",
    "preemptive": "d0b3b9680c84e91f",
}


def _assert_loops_agree(case, trace, variant="TokenTM", faults=False,
                        **kwargs):
    """The executor retires the statistics the legacy loop recorded."""
    stats, mem = run_case(trace, variant,
                          faults=default_plan() if faults else None,
                          **kwargs)
    assert stats_digest(stats, mem.stats.snapshot()) == LOOP_DIGESTS[case]
    return stats


def test_legacy_loop_matches_optimized_on_contended_trace():
    """The recorded results hold even through aborts/retries."""
    trace = SyntheticTxnWorkload(TINY_SPEC).generate(seed=11, scale=1.0)
    _assert_loops_agree("contended", trace, seed=11)


@pytest.mark.parametrize("fast_path", [True, False],
                         ids=["fastpath", "no-fastpath"])
@pytest.mark.parametrize("variant", FAMILY_VARIANTS)
def test_legacy_loop_matches_on_variant(variant, fast_path):
    trace = cholesky().generate(seed=7, scale=0.004, threads=4)
    stats = _assert_loops_agree(f"variant-{variant}", trace, seed=7,
                                variant=variant, filtered=fast_path)
    assert stats.commits > 0


@pytest.mark.parametrize("variant", FAMILY_VARIANTS)
def test_legacy_loop_matches_under_faults(variant):
    """A fault plan drives the abort and rewind paths."""
    trace = vacation_low().generate(seed=11, scale=0.008, threads=4)
    _assert_loops_agree(f"faults-{variant}", trace, seed=11,
                        variant=variant, faults=True)


def test_legacy_loop_matches_preemptive():
    """More threads than cores: time-sharing cuts quanta short at
    every context switch."""
    system = SystemConfig().scaled(4)  # 8 threads on 4 cores
    trace = vacation_low().generate(seed=9, scale=0.008, threads=8)
    stats = _assert_loops_agree("preemptive", trace, seed=9,
                                system=system, quantum=25)
    assert stats.preemptions > 0


def test_bench_specs_quick_subset():
    specs = bench_specs(quick=True)
    assert {s.workload.name for s in specs} == \
        {"Cholesky", "Vacation-Low", "mutex_ring"}
    assert {s.variant for s in specs} == {"TokenTM", "LogTM-SE_4xH3"}
    # Trace cells run at their recorded size.
    assert all(s.scale == 1.0 for s in specs
               if s.workload.name == "mutex_ring")


@pytest.mark.parametrize("kwargs,choice", [
    ({"workload_names": ("Cholesky", "Bogus")}, "Vacation-High"),
    ({"variants": ("TokenTM", "Bogus")}, "LogTM-SE_Perf"),
], ids=["workload", "variant"])
def test_bench_specs_rejects_unknown_names(kwargs, choice):
    """An unknown name is a ConfigError listing the choices, raised
    before any cell runs (never a SystemExit from library code)."""
    from repro.common.errors import ConfigError

    with pytest.raises(ConfigError, match="Bogus") as err:
        bench_specs(**kwargs)
    assert choice in str(err.value)


def test_run_bench_rejects_unknown_workload_before_running(tmp_path):
    from repro.common.errors import ConfigError

    out = tmp_path / "b.json"
    with pytest.raises(ConfigError, match="unknown workload"):
        run_bench(out=str(out), workload_names=["Bogus"])
    assert not out.exists()


def test_bench_specs_traces_off():
    specs = bench_specs(quick=True, traces=False)
    assert {s.workload.name for s in specs} == {"Cholesky", "Vacation-Low"}


def test_run_bench_writes_schema_documented_json(tmp_path):
    out = tmp_path / "BENCH_perf.json"
    payload = run_bench(
        out=str(out), quick=True, workload_names=("Cholesky",),
        variants=("TokenTM",), scale_factor=0.5, traces=False,
        cache_dir=str(tmp_path / "cache"), only=["grid"],
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
        cache_dir=str(tmp_path / "cache"), only=["grid"],
    )
    warm = rerun["grid"]["cells"][0]
    assert warm["cache_hit"] is True
    assert warm["wall_seconds"] is None
    assert warm["makespan"] == cell["makespan"]
    assert rerun["metrics"]["perf.cache_hits"]["value"] == 1


def test_membench_identical_stats_and_speedup():
    result = membench(rounds=1, blocks=16, repeats=6)
    assert result["identical_stats"] is True
    assert result["accesses"] > 0
    assert result["speedup"] > 0
    assert result["fastpath"]["coherence_read_hits"] > 0
    assert result["fastpath"]["coherence_write_hits"] > 0


def test_run_bench_membench_section(tmp_path):
    out = tmp_path / "BENCH_perf.json"
    payload = run_bench(
        out=str(out), quick=True, workload_names=("Cholesky",),
        variants=("TokenTM",), scale_factor=0.25,
    )
    mem = payload["membench"]
    assert mem["identical_stats"] is True
    assert mem["filtered_ops_per_sec"] > 0
    assert mem["unfiltered_ops_per_sec"] > 0
    assert "fast_path" not in payload["config"]
    # The fast-path counters reach the artifact's metrics section.
    metrics = payload["metrics"]
    assert metrics["perf.fastpath.coherence_read_hits"]["value"] > 0


def test_run_bench_only_sections(tmp_path):
    out = tmp_path / "BENCH_perf.json"
    payload = run_bench(out=str(out), quick=True, only=["membench"])
    assert payload["grid"] is None
    assert payload["totals"] is None
    assert payload["config"]["scales"] is None
    assert "kernelbench" not in payload
    assert payload["membench"]["identical_stats"] is True
    on_disk = json.loads(out.read_text())
    assert on_disk == payload
    # A skipped section warns (not fails) against a full baseline.
    from repro.perf.bench import baseline_warnings

    grid_only = run_bench(
        out=str(out), quick=True, workload_names=("Cholesky",),
        variants=("TokenTM",), scale_factor=0.25, traces=False,
        only=["grid"])
    assert grid_only["membench"] is None
    baseline = {"schema": BENCH_SCHEMA, "membench": {"speedup": 1.6}}
    assert check_regression(grid_only, baseline) == []
    warnings = baseline_warnings(grid_only, baseline)
    assert any("membench" in w for w in warnings)


def test_baseline_from_schema8_with_kernelbench(tmp_path):
    """A /8 baseline still carries the deleted ``kernelbench`` section:
    the comparison warns about the schema and the extra section, and
    still checks the sections both payloads share."""
    from repro.perf.bench import baseline_warnings

    payload = run_bench(
        out=str(tmp_path / "b.json"), quick=True,
        only=["membench"],
    )
    baseline = {"schema": "repro-bench-perf/8",
                "membench": {"speedup": payload["membench"]["speedup"]},
                "kernelbench": {"speedup": 3.5}}
    warnings = baseline_warnings(payload, baseline)
    assert any("schema mismatch" in w and "/8" in w for w in warnings)
    assert any("kernelbench" in w for w in warnings)
    assert not any("membench" in w for w in warnings)
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
                  only=["membench", "gird"])


def test_format_bench_summary_handles_skipped_grid(tmp_path):
    from repro.perf.bench import format_bench_summary

    payload = run_bench(
        out=str(tmp_path / "b.json"), quick=True, only=["membench"],
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
    )
    assert "unix_time" not in payload
    assert payload["schema"] == BENCH_SCHEMA == "repro-bench-perf/11"


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
    path.write_text('{"schema": "repro-bench-perf/8", "membench"')
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

    base = {"schema": BENCH_SCHEMA, "membench": {"speedup": 2.0}}
    path = tmp_path / "BENCH_perf.json"
    path.write_text(json.dumps(base))
    payload, problem = load_baseline(str(path))
    assert problem is None
    assert payload == base


def test_check_regression_compares_ratios(tmp_path):
    base = {"membench": {"speedup": 1.6}}
    ok = {"membench": {"speedup": 1.5}}
    bad = {"membench": {"speedup": 1.0}}
    assert check_regression(ok, base, tolerance=0.3) == []
    failures = check_regression(bad, base, tolerance=0.3)
    assert len(failures) == 1 and "membench" in failures[0]
    # Absent sections (e.g. --only grid) are skipped, not failed.
    assert check_regression({"membench": None}, base) == []
    path = tmp_path / "BENCH_perf.json"
    path.write_text(json.dumps(base))
    assert load_bench(str(path)) == base
