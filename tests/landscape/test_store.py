"""The durable store: WAL round trips, heal-on-reopen, quarantine,
schema versioning, and the in-process ledger guards."""

from __future__ import annotations

import sqlite3

import pytest

from repro.common.errors import ConfigError
from repro.landscape import (
    LANDSCAPE_COUNTERS,
    LandscapeStore,
    LedgerError,
)
from repro.landscape.schema import LANDSCAPE_SCHEMA
from repro.obs.metrics import MetricsRegistry


def _db(tmp_path):
    return tmp_path / "landscape.db"


def test_run_work_outcome_roundtrip(tmp_path):
    registry = MetricsRegistry()
    with LandscapeStore(_db(tmp_path), metrics=registry) as store:
        rec = store.begin_run(
            "grid", label="test", git_rev="abc123", cache_schema=6,
            seed=7, provenance={"note": "roundtrip"})
        rec.open("cell", "deadbeef", workload="Tiny", variant="TokenTM",
                 seed=7)
        rec.event("retry", "attempt 2", key=("cell", "deadbeef"))
        rec.close_key("cell", "deadbeef", "ok", detail="simulated")
        rec.finish("ok", metrics_snapshot={"perf.simulated": 1})

    with LandscapeStore(_db(tmp_path), readonly=True) as store:
        run, = store.runs()
        assert run["kind"] == "grid"
        assert run["status"] == "ok"
        assert run["git_rev"] == "abc123"
        assert run["cache_schema"] == 6
        # Historical column: only rows from older versions name a
        # hot-loop backend.
        assert run["kernel"] is None
        assert run["seed"] == 7
        assert run["healed"] == 0
        assert run["finished_unix"] >= run["started_unix"]
        work, = store.work_rows()
        assert (work["kind"], work["key"]) == ("cell", "deadbeef")
        assert work["workload"] == "Tiny"
        assert work["kernel"] is None
        outcome, = store.outcome_rows()
        assert outcome["work_id"] == work["id"]
        assert outcome["outcome"] == "ok"
        assert outcome["detail"] == "simulated"
        event, = [e for e in store.events_for(run["id"])
                  if e["kind"] == "retry"]
        assert event["work_id"] == work["id"]

    snap = registry.snapshot()
    assert snap["landscape.runs"]["value"] == 1
    assert snap["landscape.work_opened"]["value"] == 1
    assert snap["landscape.work_closed"]["value"] == 1
    assert snap["landscape.events"]["value"] == 1
    assert snap["landscape.healed"]["value"] == 0
    assert snap["landscape.corrupt"]["value"] == 0
    assert set(LANDSCAPE_COUNTERS) <= set(snap)


def test_recorder_guards_double_close_and_double_finish(tmp_path):
    with LandscapeStore(_db(tmp_path)) as store:
        rec = store.begin_run("grid")
        work_id = rec.open("cell", "k1")
        rec.close(work_id, "ok")
        with pytest.raises(LedgerError, match="double close"):
            rec.close(work_id, "ok")
        rec.finish("ok")
        with pytest.raises(LedgerError, match="already finished"):
            rec.finish("ok")


def test_finish_closes_leftover_work_as_interrupted(tmp_path):
    with LandscapeStore(_db(tmp_path)) as store:
        rec = store.begin_run("chaos")
        rec.open("chaos_cell", "left-open")
        rec.finish("interrupted")
        outcome, = store.outcome_rows()
        assert outcome["outcome"] == "interrupted"
        assert "still open" in outcome["detail"]


def test_close_key_untracked_opens_and_closes_atomically(tmp_path):
    """A resumed chaos cell was dispatched by a *previous* process;
    this recorder still books both sides so the ledger balances."""
    with LandscapeStore(_db(tmp_path)) as store:
        rec = store.begin_run("chaos")
        rec.close_key("chaos_cell", "resumed", "ok",
                      detail="resumed", workload="Tiny")
        rec.finish("ok")
        work, = store.work_rows()
        outcome, = store.outcome_rows()
        assert work["key"] == "resumed"
        assert outcome["outcome"] == "ok"


def test_latest_outcomes_newest_per_key_across_runs(tmp_path):
    store = LandscapeStore(_db(tmp_path))
    rec = store.begin_run("chaos")
    rec.close_key("chaos_cell", "a", "ok", detail="first")
    rec.close_key("chaos_cell", "b", "failed", detail="boom")
    rec.close_key("cell", "a", "ok", detail="other kind")
    rec.finish("ok")
    rec = store.begin_run("chaos")
    rec.close_key("chaos_cell", "a", "ok", detail="second")
    rec.open("chaos_cell", "b")
    store.close()  # dead writer: b's second row heals to interrupted

    with LandscapeStore(_db(tmp_path)) as store:
        latest = store.latest_outcomes("chaos_cell")
    assert latest["a"] == ("ok", "second")
    assert latest["b"][0] == "interrupted"
    assert set(latest) == {"a", "b"}


def test_unknown_vocabulary_rejected_at_write(tmp_path):
    with LandscapeStore(_db(tmp_path)) as store:
        with pytest.raises(LedgerError, match="run kind"):
            store.begin_run("sprint")
        rec = store.begin_run("grid")
        with pytest.raises(LedgerError, match="work kind"):
            rec.open("sprint_cell", "k")
        work_id = rec.open("cell", "k")
        with pytest.raises(LedgerError, match="terminal outcome"):
            store.close_work(work_id, "maybe")
        with pytest.raises(LedgerError, match="run status"):
            rec.finish("maybe")


def test_readonly_missing_raises_and_writes_refused(tmp_path):
    with pytest.raises(ConfigError, match="no landscape store"):
        LandscapeStore(_db(tmp_path), readonly=True)
    with LandscapeStore(_db(tmp_path)) as store:
        store.begin_run("grid").finish("ok")
    with LandscapeStore(_db(tmp_path), readonly=True) as store:
        with pytest.raises(LedgerError, match="read-only"):
            store.begin_run("grid")


def test_heal_on_reopen_after_dead_writer(tmp_path):
    """A writer that dies (simulated: store dropped without finish)
    leaves an open run + open work; the next read-write open heals
    both to honest ``interrupted`` rows with ``healed=1``."""
    store = LandscapeStore(_db(tmp_path))
    rec = store.begin_run("grid", label="doomed")
    rec.open("cell", "in-flight")
    store.close()  # the process "dies": no close, no finish

    registry = MetricsRegistry()
    with LandscapeStore(_db(tmp_path), metrics=registry) as store:
        assert store.healed_runs == 1
        run, = store.runs()
        assert run["status"] == "interrupted"
        assert run["healed"] == 1
        outcome, = store.outcome_rows()
        assert outcome["outcome"] == "interrupted"
        assert outcome["healed"] == 1
        heal_events = [e for e in store.events_for(run["id"])
                       if e["kind"] == "healed"]
        assert len(heal_events) == 1
    assert registry.counter("landscape.healed").value == 1


def test_heal_leaves_closed_work_alone(tmp_path):
    store = LandscapeStore(_db(tmp_path))
    rec = store.begin_run("grid")
    rec.close_key("cell", "done", "ok", detail="simulated")
    rec.open("cell", "in-flight")
    store.close()

    with LandscapeStore(_db(tmp_path)) as store:
        outcomes = {o["detail"]: o["outcome"]
                    for o in store.outcome_rows()}
        assert outcomes["simulated"] == "ok"
        assert len(store.outcome_rows()) == 2


def test_corrupt_database_quarantined_on_rw_open(tmp_path):
    db = _db(tmp_path)
    db.write_bytes(b"this is not a sqlite database at all" * 64)
    registry = MetricsRegistry()
    with LandscapeStore(db, metrics=registry) as store:
        assert store.quarantined == 1
        assert store.runs() == []  # fresh store took the slot
        store.begin_run("grid").finish("ok")
    corrupt = db.parent / (db.name + ".corrupt")
    assert corrupt.exists(), "evidence of corruption must survive"
    assert registry.counter("landscape.corrupt").value == 1


def test_corrupt_database_refused_readonly(tmp_path):
    db = _db(tmp_path)
    db.write_bytes(b"garbage bytes, not sqlite" * 64)
    with pytest.raises(ConfigError, match="unreadable"):
        LandscapeStore(db, readonly=True)
    assert db.exists(), "read-only open must never quarantine"


def test_newer_schema_refused(tmp_path):
    db = _db(tmp_path)
    with LandscapeStore(db) as store:
        store.begin_run("grid").finish("ok")
    conn = sqlite3.connect(db)
    conn.execute(f"PRAGMA user_version = {LANDSCAPE_SCHEMA + 1}")
    conn.close()
    with pytest.raises(ConfigError, match="newer than this build"):
        LandscapeStore(db)
    with pytest.raises(ConfigError, match="newer than this build"):
        LandscapeStore(db, readonly=True)


def test_newer_schema_refused_by_cli(tmp_path, capsys):
    """Every command that opens the store prints one line and exits 2
    (store unusable) rather than a traceback."""
    from repro.cli import main

    db = _db(tmp_path)
    LandscapeStore(db).close()
    conn = sqlite3.connect(db)
    conn.execute(f"PRAGMA user_version = {LANDSCAPE_SCHEMA + 1}")
    conn.close()
    for argv in (["audit", str(db)], ["audit", "--readonly", str(db)],
                 ["query", str(db)],
                 ["chaos", "--seeds", "1", "--variants", "tokentm",
                  "--scale", "0.002", "--landscape", str(db)]):
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        err = captured.err.strip().splitlines()
        assert len(err) == 1 and "newer than this build" in err[0]
        assert err[0].startswith(f"{argv[0]}: ")
        assert captured.out == ""


def test_forward_migration_machinery(tmp_path, monkeypatch):
    """MIGRATIONS is empty at schema 1; exercise the machinery with a
    registered fake step to 2 so the first real bump is routine."""
    db = _db(tmp_path)
    with LandscapeStore(db) as store:
        store.begin_run("grid").finish("ok")

    monkeypatch.setattr("repro.landscape.store.LANDSCAPE_SCHEMA",
                        LANDSCAPE_SCHEMA + 1)
    monkeypatch.setattr(
        "repro.landscape.store.MIGRATIONS",
        {LANDSCAPE_SCHEMA: ("ALTER TABLE runs ADD COLUMN note TEXT",)})
    with LandscapeStore(db) as store:
        version = store.query("PRAGMA user_version")[0][0]
        assert version == LANDSCAPE_SCHEMA + 1
        run, = store.runs()  # old rows survive the migration
        assert run["status"] == "ok"
        assert run["note"] is None  # the new column exists


def test_missing_migration_step_refused(tmp_path, monkeypatch):
    db = _db(tmp_path)
    with LandscapeStore(db) as store:
        store.begin_run("grid").finish("ok")
    monkeypatch.setattr("repro.landscape.store.LANDSCAPE_SCHEMA",
                        LANDSCAPE_SCHEMA + 1)
    with pytest.raises(ConfigError, match="no migration"):
        LandscapeStore(db)
