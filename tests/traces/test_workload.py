"""Trace-workload identity: digests, cache keys, grid integration."""

import dataclasses

import pytest

from repro.common.errors import TraceError
from repro.faults.campaign import campaign_cell_key, run_chaos_cell
from repro.faults.plan import FaultPlan
from repro.perf.cache import ResultCache, cell_key
from repro.perf.runner import CellSpec, ParallelRunner
from repro.traces.convert import ConvertOptions
from repro.traces.make_fixtures import (
    make_barrier_storm,
    make_mutex_ring,
    make_prodcons,
)
from repro.traces.workload import (
    TraceWorkload,
    TraceWorkloadSpec,
    fixture_path,
    fixture_workloads,
    trace_digest,
)

EVENTS = "0,0,pth_ty:1^1\n1,0,0,0,1,1 # 0 # * 64\n2,0,pth_ty:2^1\n"


@pytest.fixture
def trace_file(tmp_path):
    path = tmp_path / "mini.strace"
    path.write_text(EVENTS)
    return path


class TestDigest:
    def test_digest_is_stable(self, trace_file):
        assert trace_digest(trace_file) == trace_digest(trace_file)

    def test_digest_tracks_content(self, trace_file):
        before = trace_digest(trace_file)
        trace_file.write_text(EVENTS + "3,0,1,0,0,0\n")
        assert trace_digest(trace_file) != before

    def test_shard_rename_changes_digest(self, tmp_path):
        (tmp_path / "a.strace").write_text(EVENTS)
        before = trace_digest(tmp_path)
        (tmp_path / "a.strace").rename(tmp_path / "z.strace")
        assert trace_digest(tmp_path) != before

    def test_from_spec_rejects_edited_trace(self, trace_file):
        spec = TraceWorkload.from_file(trace_file).spec
        trace_file.write_text(EVENTS + "3,0,1,0,0,0\n")
        with pytest.raises(TraceError, match="changed"):
            TraceWorkload.from_spec(spec)


class TestCacheIdentity:
    def _spec(self, trace_file, **overrides):
        workload = TraceWorkload.from_file(
            trace_file, options=ConvertOptions(transactify=True))
        wspec = workload.spec
        if overrides:
            wspec = dataclasses.replace(wspec, **overrides)
        return CellSpec(wspec, "TokenTM", seed=0, scale=1.0)

    def test_key_is_stable(self, trace_file):
        assert cell_key(self._spec(trace_file)) == \
            cell_key(self._spec(trace_file))

    def test_digest_change_changes_key(self, trace_file):
        a = cell_key(self._spec(trace_file))
        b = cell_key(self._spec(trace_file, digest="0" * 64))
        assert a != b

    def test_convert_options_change_key(self, trace_file):
        a = cell_key(self._spec(trace_file))
        b = cell_key(self._spec(
            trace_file, convert=ConvertOptions(transactify=True,
                                               block_shift=7)))
        assert a != b

    def test_trace_and_synthetic_keys_disjoint(self, trace_file):
        from repro.workloads import cholesky

        a = cell_key(self._spec(trace_file))
        b = cell_key(CellSpec(cholesky().spec, "TokenTM",
                              seed=0, scale=1.0))
        assert a != b

    def test_runner_caches_trace_cells(self, tmp_path, trace_file):
        spec = self._spec(trace_file)
        cache = ResultCache(tmp_path / "cache")
        with ParallelRunner(workers=0, cache=cache) as runner:
            cold, = runner.run_cells([spec])
            warm, = runner.run_cells([spec])
            snap = runner.metrics.snapshot()
        assert snap["perf.cache_hits"]["value"] == 1
        assert cold.stats.snapshot() == warm.stats.snapshot()


class TestFixtures:
    def test_all_fixtures_registered(self):
        assert set(fixture_workloads()) == \
            {"prodcons", "barrier_storm", "mutex_ring"}

    def test_unknown_fixture_rejected(self):
        with pytest.raises(TraceError, match="available"):
            fixture_path("nonesuch")

    @pytest.mark.parametrize("name,make", [
        ("prodcons.strace", make_prodcons),
        ("barrier_storm.strace.gz", make_barrier_storm),
        ("mutex_ring.strace", make_mutex_ring),
    ])
    def test_regeneration_is_byte_identical(self, tmp_path, name, make):
        # Written under another name: the gzip writer pins the header's
        # mtime and stores no file name, so bytes depend on content.
        out = tmp_path / ("regen" + name[name.index("."):])
        make(out)
        assert out.read_bytes() == fixture_path(
            name.split(".")[0]).read_bytes()

    def test_fixture_spec_survives_reconversion(self):
        workload = fixture_workloads()["prodcons"]
        again = TraceWorkload.from_spec(workload.spec)
        assert again.generate().total_ops() == \
            workload.generate().total_ops()


class TestChaosIntegration:
    def test_chaos_cell_replays_trace(self):
        cell = run_chaos_cell(variant="TokenTM", plan=FaultPlan(),
                              seed=1,
                              trace_file=str(fixture_path("mutex_ring")))
        assert cell.ok
        assert cell.workload == "mutex_ring"

    def test_campaign_key_includes_trace_digest(self):
        digest = trace_digest(fixture_path("mutex_ring"))
        common = ("mutex_ring", "TokenTM", 1, FaultPlan(), 1.0, 200,
                  8, None, None)
        with_trace = campaign_cell_key(*common, trace_digest=digest)
        without = campaign_cell_key(*common)
        assert with_trace != without
        assert digest[:16] in with_trace
