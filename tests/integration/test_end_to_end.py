"""End-to-end integration: real workloads through every machine."""

import pytest

from repro.analysis.experiments import run_variants
from repro.common.config import HTMConfig, RunConfig, SystemConfig
from repro.coherence.protocol import MemorySystem
from repro.htm import VARIANTS, make_htm
from repro.runtime.executor import run_workload
from repro.workloads import barnes, cholesky, delaunay, vacation_low

SMALL_SCALE = 0.002


class TestWorkloadsAcrossVariants:
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_barnes_runs_clean(self, variant):
        cell = run_variants(barnes(), (variant,), scale=0.02,
                            seed=1)[variant]
        assert cell.stats.commits > 0
        assert cell.stats.makespan > 0

    def test_same_trace_same_commits(self):
        cells = run_variants(cholesky(), VARIANTS, scale=SMALL_SCALE,
                             seed=2)
        commit_counts = {c.stats.commits for c in cells.values()}
        assert len(commit_counts) == 1

    def test_large_txn_workload_on_tokentm(self):
        cell = run_variants(vacation_low(), ("TokenTM",),
                            scale=SMALL_SCALE, seed=3)["TokenTM"]
        stats = cell.stats
        assert stats.commits > 0
        # Large transactions exist: some must use software release.
        assert stats.software.count > 0
        assert stats.machine["software_release_cycles"] > 0


class TestSerializabilityOnRealWorkloads:
    @pytest.mark.parametrize("variant", [
        "TokenTM", "LogTM-SE_4xH3", "OneTM",
    ])
    def test_history_serializable(self, variant):
        trace = barnes().generate(seed=4, scale=0.05, threads=8)
        system = SystemConfig().scaled(8)
        machine = make_htm(variant, MemorySystem(system), HTMConfig())
        cfg = RunConfig(system=system, seed=4)
        result = run_workload(machine, trace, cfg, quantum=50)
        if variant == "TokenTM":
            machine.audit()
        assert result.stats.commits == trace.transaction_count()
        result.history.check_serializable(skew_tolerance=2500)


class TestTokenTMAuditOnRealWorkloads:
    def test_books_balance_after_barnes(self):
        cell_cfg = RunConfig(seed=5)
        trace = barnes().generate(seed=5, scale=0.05)
        machine = make_htm("TokenTM", MemorySystem(SystemConfig()),
                           HTMConfig())
        result = run_workload(machine, trace, cell_cfg,
                              track_history=False)
        assert result.stats.commits == trace.transaction_count()
        machine.audit()  # books and coherence both clean at the end

    def test_books_balance_after_delaunay(self):
        trace = delaunay().generate(seed=6, scale=0.001)
        machine = make_htm("TokenTM", MemorySystem(SystemConfig()),
                           HTMConfig())
        result = run_workload(machine, trace,
                              RunConfig(seed=6), track_history=False)
        assert result.stats.commits == trace.transaction_count()
        machine.audit()


class TestExpectedShapes:
    """Cheap sanity versions of the paper's headline comparisons."""

    def test_tokentm_mostly_fast_releases_on_splash(self):
        cell = run_variants(barnes(), ("TokenTM",), scale=0.05,
                            seed=7)["TokenTM"]
        assert cell.stats.fast_release_fraction > 0.75

    def test_vacation_uses_software_release_often(self):
        cell = run_variants(vacation_low(), ("TokenTM",),
                            scale=SMALL_SCALE, seed=7)["TokenTM"]
        assert cell.stats.fast_release_fraction < 0.95

    def test_signatures_lose_on_delaunay(self):
        cells = run_variants(
            delaunay(), ("TokenTM", "LogTM-SE_2xH3"), scale=0.004,
            seed=8,
        )
        token = cells["TokenTM"].stats.makespan
        sig = cells["LogTM-SE_2xH3"].stats.makespan
        assert sig > 1.5 * token

    def test_signature_false_positives_counted(self):
        cell = run_variants(delaunay(), ("LogTM-SE_2xH3",),
                            scale=0.004, seed=8)["LogTM-SE_2xH3"]
        assert cell.stats.machine["false_positive_conflicts"] > 0

    def test_perfect_signatures_have_no_false_positives(self):
        cell = run_variants(delaunay(), ("LogTM-SE_Perf",),
                            scale=0.004, seed=8)["LogTM-SE_Perf"]
        assert cell.stats.machine["false_positive_conflicts"] == 0
