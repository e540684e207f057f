"""Trajectories and baselines read back from the landscape."""

from __future__ import annotations

from repro.landscape import (
    LandscapeStore,
    format_trajectory,
    latest_baseline,
    section_deltas,
    trajectory_regressions,
    trusted_bench_runs,
)
from repro.perf.bench import BENCH_SCHEMA


def _bench_run(store, status="ok", payload=None, **kwargs):
    rec = store.begin_run("bench", bench_schema=BENCH_SCHEMA, **kwargs)
    rec.finish(status, payload=payload)


def _payload(mem, ops=None):
    payload = {"schema": BENCH_SCHEMA, "membench": {"speedup": mem}}
    if ops is not None:
        payload["totals"] = {"sim_ops_per_sec": ops}
    return payload


def test_only_ok_runs_with_payloads_are_trusted(tmp_path):
    with LandscapeStore(tmp_path / "db") as store:
        _bench_run(store, payload=_payload(2.0), git_rev="aaa")
        _bench_run(store, status="failed", payload=_payload(9.9))
        _bench_run(store, status="interrupted")
        _bench_run(store, payload=_payload(1.5, ops=30000.0),
                   git_rev="bbb")
        # A grid run never participates, whatever its payload.
        store.begin_run("grid").finish("ok")

        points = trusted_bench_runs(store)
        assert [p.git_rev for p in points] == ["aaa", "bbb"]
        assert points[-1].speedups == {"membench": 1.5}
        assert points[-1].grid_ops_per_sec == 30000.0
        # --baseline landscape means exactly the newest trusted run.
        assert latest_baseline(store) == _payload(1.5, ops=30000.0)


def test_latest_baseline_skips_untrusted_newest(tmp_path):
    with LandscapeStore(tmp_path / "db") as store:
        _bench_run(store, payload=_payload(2.0))
        _bench_run(store, status="failed", payload=_payload(0.1))
        assert latest_baseline(store) == _payload(2.0)


def test_latest_baseline_none_on_fresh_store(tmp_path):
    with LandscapeStore(tmp_path / "db") as store:
        assert latest_baseline(store) is None
        assert trusted_bench_runs(store) == []


def test_trajectory_gates_on_latest_step(tmp_path):
    with LandscapeStore(tmp_path / "db") as store:
        _bench_run(store, payload=_payload(3.2))
        _bench_run(store, payload=_payload(1.6))   # ancient slump
        _bench_run(store, payload=_payload(1.0))
        points = trusted_bench_runs(store)

    # membench fell 37.5% — over a 30% tolerance, under 40%.
    failures = trajectory_regressions(points, tolerance=0.3)
    assert len(failures) == 1
    assert "membench" in failures[0]
    # The ancient 50% slump never triggers: only the latest step is
    # gated (history is for reading, not re-litigating).
    assert trajectory_regressions(points, tolerance=0.4) == []

    deltas = section_deltas(points)
    assert deltas["membench"] == (1.6, 1.0)
    text = format_trajectory(points, failures)
    assert "REGRESSIONS: 1" in text
    assert "3 trusted run(s)" in text


def test_single_run_is_trivially_a_pass(tmp_path):
    with LandscapeStore(tmp_path / "db") as store:
        _bench_run(store, payload=_payload(2.0))
        points = trusted_bench_runs(store)
    assert trajectory_regressions(points) == []
    assert section_deltas(points) == {}
    assert "1 trusted run(s)" in format_trajectory(points, [])


def test_empty_trajectory_formats_helpfully():
    assert "no trusted bench runs" in format_trajectory([], [])
