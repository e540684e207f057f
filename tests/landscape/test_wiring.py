"""The three fronts record into the ledger: grid cells through the
runner, chaos cells through the campaign (resume included), bench
sections through run_bench."""

from __future__ import annotations

import json

from repro.landscape import LandscapeStore, audit_store, latest_baseline
from repro.perf.bench import BENCH_SCHEMA, run_bench
from repro.perf.cache import ResultCache
from repro.perf.runner import ParallelRunner, grid_specs

from tests.perf.conftest import TINY_SPEC  # noqa: F401 (fixture import)


def _grid_run(store, cache):
    from repro.workloads.base import SyntheticTxnWorkload

    rec = store.begin_run("grid", label="test-grid")
    specs = grid_specs([SyntheticTxnWorkload(TINY_SPEC)], ("TokenTM",),
                       seeds=(1,), scale=0.5)
    runner = ParallelRunner(workers=0, cache=cache, recorder=rec)
    try:
        runner.run_cells(specs)
    finally:
        runner.close()
    rec.finish("ok")


def test_runner_records_cells_with_provenance(tmp_path):
    with LandscapeStore(tmp_path / "db") as store:
        _grid_run(store, ResultCache(tmp_path / "cache"))
        assert audit_store(store) == []
        work, = store.work_rows()
        assert work["kind"] == "cell"
        assert len(work["key"]) == 64  # the cell_key content hash
        assert work["workload"] == "Tiny"
        assert work["variant"] == "TokenTM"
        assert work["seed"] == 1
        assert work["kernel"] is None  # historical column
        outcome, = store.outcome_rows()
        assert outcome["outcome"] == "ok"
        assert outcome["detail"] == "simulated"

        # A warm rerun books the cache hit as its own ok outcome.
        _grid_run(store, ResultCache(tmp_path / "cache"))
        assert audit_store(store) == []
        hits = [o for o in store.outcome_rows()
                if o["detail"] == "served from cache"]
        assert len(hits) == 1


def test_campaign_resume_books_resumed_cells(tmp_path):
    """The landscape is the campaign's one record: the interrupted leg
    books its cell with its outcome record, and the resumed leg books
    the merged cell as its own closed work row carrying that same
    record."""
    from repro.faults.campaign import run_campaign
    from repro.faults.plan import default_plan

    db = tmp_path / "db"
    args = dict(workload="Genome", variants=["tokentm"], seeds=range(2),
                plan=default_plan(intensity=0.5), scale=0.002,
                shrink=False, out_dir=str(tmp_path / "bundles"))

    with LandscapeStore(db) as store:
        rec = store.begin_run("chaos", label="leg-1")
        result = run_campaign(max_cells=1, recorder=rec, **args)
        assert result.interrupted
        rec.finish("interrupted")
        assert audit_store(store) == []
        first, = store.outcome_rows()
        assert json.loads(first["detail"])["seed"] == 0

        rec2 = store.begin_run("chaos", label="leg-2")
        result = run_campaign(recorder=rec2, resume=True, **args)
        assert result.resumed_cells == 1
        assert not result.interrupted
        rec2.finish("ok" if result.ok else "failed")

        assert audit_store(store) == []
        # Two legs, three chaos-cell rows total: 1 + (1 resumed + 1).
        work = store.work_rows()
        assert [w["run_id"] for w in work] == [rec.run_id, rec2.run_id,
                                                rec2.run_id]
        assert work[0]["key"] == work[1]["key"]
        details = [o["detail"] for o in store.outcome_rows()]
        assert details[1] == details[0]


def test_run_bench_records_sections_and_payload(tmp_path):
    db = tmp_path / "db"
    payload = run_bench(
        out=str(tmp_path / "b.json"), quick=True, only=["membench"],
        micro_rounds=1, landscape=str(db))
    assert "unix_time" not in payload

    with LandscapeStore(db, readonly=True) as store:
        assert audit_store(store) == []
        run, = store.runs("bench")
        assert run["status"] == "ok"
        assert run["bench_schema"] == BENCH_SCHEMA
        assert run["cache_schema"] is not None
        assert json.loads(run["payload"]) == payload
        work, = store.work_rows()
        assert (work["kind"], work["key"]) == ("bench_section",
                                               "membench")
        # And the run immediately becomes the --baseline landscape.
        assert latest_baseline(store) == payload
