"""Trusted bench runs read back from the landscape."""

from __future__ import annotations

from repro.landscape import (
    LandscapeStore,
    format_trajectory,
    trusted_bench_runs,
)
from repro.perf.bench import BENCH_SCHEMA


def _bench_run(store, status="ok", payload=None, **kwargs):
    rec = store.begin_run("bench", bench_schema=BENCH_SCHEMA, **kwargs)
    rec.finish(status, payload=payload)


def _payload(ops=None):
    payload = {"schema": BENCH_SCHEMA}
    if ops is not None:
        payload["totals"] = {"sim_ops_per_sec": ops}
    return payload


def test_only_ok_runs_with_payloads_are_trusted(tmp_path):
    with LandscapeStore(tmp_path / "db") as store:
        assert trusted_bench_runs(store) == []
        _bench_run(store, payload=_payload(20000.0), git_rev="aaa")
        _bench_run(store, status="failed", payload=_payload(99999.0))
        _bench_run(store, status="interrupted")
        _bench_run(store, payload=_payload(30000.0), git_rev="bbb")
        # A grid run never participates, whatever its payload.
        store.begin_run("grid").finish("ok")

        points = trusted_bench_runs(store)
        assert [p.git_rev for p in points] == ["aaa", "bbb"]
        assert [p.grid_ops_per_sec for p in points] == [20000.0, 30000.0]
        assert points[-1].bench_schema == BENCH_SCHEMA


def test_trajectory_lists_each_run_with_grid_ops(tmp_path):
    with LandscapeStore(tmp_path / "db") as store:
        _bench_run(store, payload=_payload(12345.0), git_rev="abc")
        _bench_run(store, payload=_payload())
        points = trusted_bench_runs(store)
    text = format_trajectory(points)
    assert "2 trusted run(s)" in text
    assert f"run #{points[0].run_id} rev=abc grid=12,345 ops/s" in text
    assert f"run #{points[1].run_id} rev=unknown (no grid)" in text


def test_empty_trajectory_formats_helpfully():
    assert "no trusted bench runs" in format_trajectory([])
