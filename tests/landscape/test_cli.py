"""CLI surface: ``repro audit`` / ``repro query`` exit codes
(docs/robustness.md contract)."""

from __future__ import annotations

import sqlite3

from repro.cli import main
from repro.landscape import LandscapeStore
from repro.perf.bench import BENCH_SCHEMA


def _bench_store(db, grid_ops):
    """A store holding one trusted bench run per grid ops/s value."""
    with LandscapeStore(db) as store:
        for ops in grid_ops:
            rec = store.begin_run("bench", bench_schema=BENCH_SCHEMA)
            rec.finish("ok", payload={"schema": BENCH_SCHEMA,
                                      "totals": {"sim_ops_per_sec": ops}})


class TestAudit:
    def test_missing_store_exits_2(self, tmp_path, capsys):
        assert main(["audit", str(tmp_path / "nope.db")]) == 2
        assert "no landscape store" in capsys.readouterr().err

    def test_clean_store_exits_0(self, tmp_path, capsys):
        db = tmp_path / "db"
        _bench_store(db, [20000.0])
        assert main(["audit", str(db)]) == 0
        assert "ledger balanced" in capsys.readouterr().out

    def test_violation_exits_1(self, tmp_path, capsys):
        db = tmp_path / "db"
        with LandscapeStore(db) as store:
            rec = store.begin_run("grid")
            rec.close_key("cell", "k", "ok")
            rec.finish("ok")
        conn = sqlite3.connect(db)
        conn.execute("DELETE FROM outcomes")
        conn.commit()
        conn.close()
        assert main(["audit", str(db)]) == 1
        assert "orphan" in capsys.readouterr().out

    def test_dead_writer_heals_then_audits_clean(self, tmp_path, capsys):
        db = tmp_path / "db"
        store = LandscapeStore(db)
        store.begin_run("chaos").open("chaos_cell", "mid")
        store.close()  # dead writer
        # Read-only: report, don't heal.
        assert main(["audit", "--readonly", str(db)]) == 1
        assert "unfinished_run" in capsys.readouterr().out
        # Read-write: heal, then the books balance.
        assert main(["audit", str(db)]) == 0
        captured = capsys.readouterr()
        assert "healed 1 run(s)" in captured.err
        assert "ledger balanced" in captured.out
        assert main(["audit", str(db)]) == 0  # idempotent

    def test_corrupt_store_quarantined_exits_2(self, tmp_path, capsys):
        db = tmp_path / "db"
        db.write_bytes(b"not sqlite" * 100)
        assert main(["audit", str(db)]) == 2
        assert "quarantined" in capsys.readouterr().err
        assert (tmp_path / "db.corrupt").exists()

    def test_selftest_exits_0(self, capsys):
        assert main(["audit", "--selftest"]) == 0
        assert "self-test passed" in capsys.readouterr().out


class TestQuery:
    def test_missing_store_exits_2(self, tmp_path, capsys):
        assert main(["query", str(tmp_path / "nope.db")]) == 2
        assert "no landscape store" in capsys.readouterr().err

    def test_lists_trusted_runs_exits_0(self, tmp_path, capsys):
        db = tmp_path / "db"
        _bench_store(db, [20000.0, 19000.0])
        assert main(["query", str(db)]) == 0
        out = capsys.readouterr().out
        assert "2 trusted run(s)" in out
        assert "grid=19,000 ops/s" in out

    def test_json_report(self, tmp_path, capsys):
        import json

        db = tmp_path / "db"
        _bench_store(db, [20000.0, 19000.0])
        assert main(["query", str(db), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert [p["grid_ops_per_sec"] for p in doc["points"]] == \
            [20000.0, 19000.0]
