"""CLI smoke tests (direct invocation, captured stdout)."""

import json

import pytest

from repro.cli import DEFAULT_SCALES, build_parser, main
from repro.htm import VARIANTS


class TestParser:
    def test_variants_listed(self, capsys):
        assert main(["variants"]) == 0
        out = capsys.readouterr().out
        for variant in VARIANTS:
            assert variant in out

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["nonsense"])

    def test_unknown_workload_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "NotAWorkload", "TokenTM"])

    def test_scales_cover_all_workloads(self):
        from repro.workloads import tm_workloads
        assert set(DEFAULT_SCALES) == set(tm_workloads())

    def test_bench_only_choices_enforced(self):
        parser = build_parser()
        args = parser.parse_args(["bench", "--only", "membench",
                                  "--only", "grid"])
        assert args.only == ["membench", "grid"]
        with pytest.raises(SystemExit):
            parser.parse_args(["bench", "--only", "everything"])


class TestCommands:
    def test_run_text(self, capsys):
        assert main(["run", "Cholesky", "TokenTM",
                     "--scale", "0.001", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "Cholesky on TokenTM" in out
        assert "makespan" in out

    def test_run_json(self, capsys):
        assert main(["run", "Cholesky", "TokenTM",
                     "--scale", "0.001", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["variant"] == "TokenTM"
        assert data["commits"] > 0

    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Apache" in out and "BIND" in out

    def test_table5(self, capsys):
        assert main(["table5", "--scale", "0.02"]) == 0
        out = capsys.readouterr().out
        assert "Delaunay" in out and "Num Xacts" in out

    def test_figure5_subset(self, capsys):
        assert main(["figure5", "--workloads", "Cholesky",
                     "--scale", "0.001", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "TokenTM" in out and "Cholesky" in out

    def test_figure1_with_cis(self, capsys):
        assert main(["figure1", "--workloads", "Genome",
                     "--scale", "0.001", "--runs", "2"]) == 0
        out = capsys.readouterr().out
        assert "confidence" in out


class TestTraceCommands:
    def test_run_with_trace_summary(self, capsys):
        assert main(["run", "Cholesky", "TokenTM",
                     "--scale", "0.001", "--trace"]) == 0
        out = capsys.readouterr().out
        assert "trace summary" in out
        assert "txn attempts" in out

    def test_run_trace_out_is_schema_valid(self, tmp_path, capsys):
        from repro.obs.events import validate_jsonl
        path = tmp_path / "trace.jsonl"
        assert main(["run", "Cholesky", "TokenTM", "--scale", "0.001",
                     "--trace-out", str(path)]) == 0
        count, errors = validate_jsonl(path.read_text().splitlines())
        assert errors == []
        assert count > 0

    def test_run_chrome_out_loads(self, tmp_path, capsys):
        path = tmp_path / "trace.json"
        assert main(["run", "Cholesky", "TokenTM", "--scale", "0.001",
                     "--chrome-out", str(path)]) == 0
        doc = json.loads(path.read_text())
        assert doc["traceEvents"]
        tracks = [e for e in doc["traceEvents"]
                  if e.get("name") == "thread_name"]
        assert tracks, "expected per-core track metadata"

    def test_trace_summary(self, capsys):
        assert main(["trace", "Cholesky", "TokenTM",
                     "--scale", "0.001", "--summary"]) == 0
        out = capsys.readouterr().out
        assert "trace summary" in out
        assert "Fast-release funnel" not in out

    def test_trace_full_report(self, capsys):
        assert main(["trace", "Cholesky", "TokenTM",
                     "--scale", "0.001"]) == 0
        out = capsys.readouterr().out
        assert "Fast-release funnel" in out
        assert "Abort attribution" in out

    def test_trace_validate_good_file(self, tmp_path, capsys):
        path = tmp_path / "trace.jsonl"
        assert main(["run", "Cholesky", "TokenTM", "--scale", "0.001",
                     "--trace-out", str(path)]) == 0
        capsys.readouterr()
        assert main(["trace", "--validate", str(path)]) == 0
        assert "0 errors" in capsys.readouterr().out

    def test_trace_validate_bad_file(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"seq": 1, "cycle": -2, "kind": "nope"}\n')
        assert main(["trace", "--validate", str(path)]) == 1

    def test_trace_requires_workload_or_validate(self):
        with pytest.raises(SystemExit):
            main(["trace"])


class TestBenchBaseline:
    """``--baseline`` problems warn and skip — never traceback.

    One bench invocation per failure mode, kept cheap with
    ``--only membench``; the fresh results must still land and the
    exit code must stay 0 (satellite of docs/robustness.md's exit-code
    contract)."""

    def _bench(self, tmp_path, baseline):
        return main(["bench", "--quick", "--only", "membench",
                     "--out", str(tmp_path / "fresh.json"),
                     "--baseline", str(baseline)])

    def test_missing_baseline_warns_and_skips(self, tmp_path, capsys):
        assert self._bench(tmp_path, tmp_path / "nope.json") == 0
        captured = capsys.readouterr()
        assert "comparison skipped" in captured.err
        assert "unreadable" in captured.err
        assert (tmp_path / "fresh.json").exists()

    def test_truncated_baseline_warns_and_skips(self, tmp_path, capsys):
        empty = tmp_path / "empty.json"
        empty.write_text("")
        assert self._bench(tmp_path, empty) == 0
        captured = capsys.readouterr()
        assert "truncated" in captured.err
        assert "comparison skipped" in captured.err

    def test_invalid_json_baseline_warns_and_skips(self, tmp_path,
                                                   capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"schema": "repro-bench-perf/8", ')
        assert self._bench(tmp_path, bad) == 0
        captured = capsys.readouterr()
        assert "not valid JSON" in captured.err
        assert "comparison skipped" in captured.err
