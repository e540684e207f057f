"""The bench harness and its JSON artifact, plus the executor's
fidelity to the pre-optimization interpreter loop."""

from __future__ import annotations

import json

import pytest

from repro.analysis.experiments import FIGURE5_VARIANTS, GRID_SCALES
from repro.common.config import SystemConfig
from repro.faults.plan import default_plan
from repro.perf.bench import BENCH_SCHEMA, bench_specs, run_bench
from repro.perf.cache import cell_key
from repro.traces.workload import TraceWorkloadSpec
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
    "variant-OneTM": "e97049ac56d8a999",
    "faults-TokenTM": "ea6ab620bc501113",
    "faults-LogTM-SE_4xH3": "8bb102b03865e683",
    "faults-OneTM": "9836af308e61f715",
    "preemptive": "251303474f5d720a",
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


@pytest.mark.parametrize("interned", [True, False],
                         ids=["fastpath", "no-fastpath"])
@pytest.mark.parametrize("variant", FAMILY_VARIANTS)
def test_legacy_loop_matches_on_variant(variant, interned):
    trace = cholesky().generate(seed=7, scale=0.004, threads=4)
    stats = _assert_loops_agree(f"variant-{variant}", trace, seed=7,
                                variant=variant, reference=not interned)
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


def test_bench_grid_has_55_distinct_cells():
    """Eight synthetic workloads and three fixture traces, each on the
    five Figure 5 variants."""
    specs = bench_specs()
    assert len(specs) == 55
    assert len({cell_key(spec) for spec in specs}) == 55
    assert {s.variant for s in specs} == set(FIGURE5_VARIANTS)


def test_bench_specs_fixture_subset():
    specs = bench_specs(workload_names=("mutex_ring",))
    assert [s.variant for s in specs] == list(FIGURE5_VARIANTS)
    assert {s.workload.name for s in specs} == {"mutex_ring"}
    # Trace cells run at their recorded size.
    assert all(s.scale == 1.0 for s in specs)


@pytest.mark.parametrize("kwargs", [
    {"workload_names": ("Cholesky",)},
    {"workload_names": ("mutex_ring", "Delaunay")},
    {"variants": ("TokenTM",)},
    {"workload_names": ("Cholesky", "mutex_ring"),
     "variants": ("TokenTM", "LogTM-SE_4xH3")},
], ids=["synthetic", "mixed", "variant", "both"])
def test_bench_subsets_are_grid_rows(kwargs):
    """A subset is a filter over the grid: its cells are grid cells,
    in grid order."""
    grid = [cell_key(spec) for spec in bench_specs()]
    subset = [cell_key(spec) for spec in bench_specs(**kwargs)]
    assert subset
    assert subset == [key for key in grid if key in subset]


@pytest.mark.parametrize("kwargs,bad,choice", [
    ({"workload_names": ("Cholesky", "Bogus")}, "Bogus", "Vacation-High"),
    ({"variants": ("TokenTM", "Bogus")}, "Bogus", "LogTM-SE_Perf"),
    # OneTM is a simulator variant but not a Figure 5 grid column.
    ({"variants": ("OneTM",)}, "OneTM", "TokenTM_NoFast"),
], ids=["workload", "variant", "off-grid-variant"])
def test_bench_specs_rejects_unknown_names(kwargs, bad, choice):
    """A name outside the grid is a ConfigError listing the grid's
    choices, raised before any cell runs (never a SystemExit from
    library code)."""
    from repro.common.errors import ConfigError

    with pytest.raises(ConfigError, match=bad) as err:
        bench_specs(**kwargs)
    assert choice in str(err.value)


def test_run_bench_rejects_unknown_workload_before_running(tmp_path):
    from repro.common.errors import ConfigError

    out = tmp_path / "b.json"
    with pytest.raises(ConfigError, match="unknown workload"):
        run_bench(out=str(out), workload_names=["Bogus"])
    assert not out.exists()


def test_bench_specs_synthetic_subset_has_no_fixture_cells():
    """Naming a synthetic workload keeps only its rows: the fixture
    trace cells do not come along."""
    specs = bench_specs(workload_names=("Cholesky",))
    assert len(specs) == 5
    assert {s.workload.name for s in specs} == {"Cholesky"}
    assert not any(isinstance(s.workload, TraceWorkloadSpec)
                   for s in specs)
    assert {s.scale for s in specs} == {GRID_SCALES["Cholesky"]}


def test_claim_benchmark_cells_are_bench_grid_cells(monkeypatch):
    """Every cell the Figure 1, Figure 5 and Table 6 benchmarks ask
    for is a ``repro bench`` grid cell, so a bench run's result cache
    answers all of them."""
    from types import SimpleNamespace

    import benchmarks.conftest as bench_conftest
    from benchmarks import (
        test_figure1_false_positives,
        test_figure5_performance,
        test_table6_overheads,
    )
    from repro.workloads import tm_workloads

    requested = []

    class Recorder:
        def run_cells(self, specs):
            requested.extend(specs)
            return [SimpleNamespace(stats=SimpleNamespace(
                makespan=1, machine={"false_positive_conflicts": 0}))
                for _ in specs]

    monkeypatch.setattr(bench_conftest, "_RUNNER", Recorder())
    for module in (test_figure5_performance, test_figure1_false_positives,
                   test_table6_overheads):
        module._run({}, tm_workloads())
    grid = {cell_key(spec) for spec in bench_specs()}
    assert len(requested) == 40 + 12 + 8
    assert {cell_key(spec) for spec in requested} <= grid


def test_run_bench_writes_schema_documented_json(tmp_path):
    out = tmp_path / "BENCH_perf.json"
    payload = run_bench(
        out=str(out), workload_names=("Cholesky",), variants=("TokenTM",),
        cache_dir=str(tmp_path / "cache"),
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
    assert len(cell["digest"]) == 16
    int(cell["digest"], 16)
    assert on_disk["totals"]["trace_ops"] == cell["trace_ops"]
    assert on_disk["metrics"]["perf.simulated"]["value"] == 1
    # Second run hits the cache: same stats content, no wall time.
    rerun = run_bench(
        out=str(out), workload_names=("Cholesky",), variants=("TokenTM",),
        cache_dir=str(tmp_path / "cache"),
    )
    warm = rerun["grid"]["cells"][0]
    assert warm["cache_hit"] is True
    assert warm["wall_seconds"] is None
    assert warm["makespan"] == cell["makespan"]
    assert warm["digest"] == cell["digest"]
    assert rerun["metrics"]["perf.cache_hits"]["value"] == 1


def test_bench_payload_has_no_wall_clock_identity(tmp_path):
    """Schema /8 dropped ``unix_time``: the committed artifact must
    not churn on every regeneration just because time passed.  Run
    timestamps belong to the landscape's run row, not the payload
    (docs/performance.md)."""
    payload = run_bench(
        out=str(tmp_path / "b.json"),
        workload_names=("Cholesky",), variants=("TokenTM",),
    )
    assert "unix_time" not in payload
    assert payload["schema"] == BENCH_SCHEMA == "repro-bench-perf/13"
