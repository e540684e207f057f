"""End-to-end observability: live traces agree with RunStats and
tracing never perturbs the simulation."""

from __future__ import annotations

import json

import pytest

from repro.obs.events import EventBus, EventKind, validate_jsonl
from repro.obs.report import TraceReport
from repro.obs.sinks import ListSink
from repro.perf.runner import CellSpec, simulate_cell
from repro.workloads import tm_workloads

SCALE = 0.005
SEED = 1
SPEC = CellSpec(tm_workloads()["Vacation-High"].spec, "TokenTM",
                seed=SEED, scale=SCALE)


@pytest.fixture(scope="module")
def traced_run():
    """One contended Vacation-High run with every event captured."""
    bus = EventBus()
    sink = ListSink()
    report = TraceReport()
    bus.attach(sink)
    bus.attach(report)
    cell, _ = simulate_cell(SPEC, bus=bus)
    return cell.stats, sink.events, report


class TestTraceMatchesStats:
    def test_abort_counts_agree(self, traced_run):
        stats, events, report = traced_run
        assert stats.aborts > 0, "expected contention at this scale"
        aborts = [e for e in events if e.kind is EventKind.TXN_ABORT]
        assert len(aborts) == stats.aborts
        assert report.aborts == stats.aborts

    def test_abort_causes_agree(self, traced_run):
        stats, _, report = traced_run
        assert report.abort_causes == stats.abort_causes
        assert sum(stats.abort_causes.values()) == stats.aborts

    def test_commit_counts_agree(self, traced_run):
        stats, _, report = traced_run
        assert report.commits == stats.commits
        assert report.fast_commits == stats.fast.count
        assert report.sw_commits == stats.software.count

    def test_stall_events_agree(self, traced_run):
        stats, _, report = traced_run
        assert report.stalls == stats.stall_events


class TestStreamInvariants:
    def test_seq_strictly_increasing(self, traced_run):
        _, events, _ = traced_run
        seqs = [e.seq for e in events]
        assert all(b > a for a, b in zip(seqs, seqs[1:]))

    def test_per_tid_cycles_monotonic(self, traced_run):
        _, events, _ = traced_run
        last = {}
        for event in events:
            if event.tid is None:
                continue
            assert event.cycle >= last.get(event.tid, 0), event
            last[event.tid] = event.cycle

    def test_jsonl_round_trip_schema_valid(self, traced_run):
        _, events, _ = traced_run
        lines = [e.to_json() for e in events]
        count, errors = validate_jsonl(lines)
        assert errors == []
        assert count == len(events)


class TestDeterminism:
    def test_tracing_does_not_perturb_results(self, traced_run):
        """A traced run and an untraced run produce identical stats."""
        stats, _, _ = traced_run
        plain = simulate_cell(SPEC)[0].stats
        traced = json.dumps(stats.snapshot(), default=str, sort_keys=True)
        untraced = json.dumps(plain.snapshot(), default=str,
                              sort_keys=True)
        assert traced == untraced
