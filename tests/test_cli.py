"""CLI smoke tests (direct invocation, captured stdout)."""

import json

import pytest

from repro.analysis import experiments
from repro.analysis.experiments import GRID_SCALES
from repro.cli import build_parser, main
from repro.htm import VARIANTS
from repro.traces.workload import fixture_path

from tests.conftest import ReferenceMemorySystem


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
        """The grid's scale table lists every workload, in the
        registry's (the paper's) order."""
        from repro.workloads import tm_workloads
        assert tuple(GRID_SCALES) == tuple(tm_workloads())


class TestInputErrors:
    """Bad input prints one line and exits 2 before anything runs."""

    @pytest.mark.parametrize("argv", [
        ["run", "Bogus", "TokenTM"],
        ["run", "TokenTM"],
        ["trace", "Bogus"],
        ["record", "Bogus", "-o", "{out}"],
        ["chaos", "--workload", "Bogus", "--seeds", "1",
         "--out-dir", "{out}"],
    ], ids=["run-unknown", "run-missing", "trace", "record", "chaos"])
    def test_exits_2_with_one_line(self, tmp_path, capsys, argv):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main([a.format(out=out) for a in argv])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        err = captured.err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"{argv[0]}: ")
        assert captured.out == ""
        assert not out.exists()


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


class TestHitFilterInvariance:
    """The interned L1 hit never changes what ``repro run`` prints."""

    @pytest.mark.parametrize("argv", [
        ["run", "Cholesky", "TokenTM", "--scale", "0.002"],
        ["run", "TokenTM", "--trace-file", str(fixture_path("prodcons")),
         "--json"],
    ], ids=["synthetic", "trace-file"])
    def test_unfiltered_run_prints_identical_output(self, monkeypatch,
                                                    capsys, argv):
        assert main(argv) == 0
        filtered = capsys.readouterr().out
        built = []

        def unfiltered(*args, **kwargs):
            built.append(ReferenceMemorySystem(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(experiments, "MemorySystem", unfiltered)
        assert main(argv) == 0
        assert built
        assert capsys.readouterr().out == filtered


class TestBenchNames:
    @pytest.mark.parametrize("flag", ["--workloads", "--variants"])
    def test_unknown_name_exits_2_before_running(self, tmp_path, capsys,
                                                 flag):
        out = tmp_path / "b.json"
        assert main(["bench", flag, "Bogus",
                     "--out", str(out)]) == 2
        captured = capsys.readouterr()
        err = captured.err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("bench: unknown ") and "Bogus" in err[0]
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--workloads", "--variants"])
    def test_empty_selection_is_a_usage_error(self, tmp_path, capsys,
                                              flag):
        out = tmp_path / "b.json"
        with pytest.raises(SystemExit) as exc:
            main(["bench", flag, "--out", str(out)])
        assert exc.value.code == 2
        assert "expected at least one argument" in capsys.readouterr().err
        assert not out.exists()

    def test_fixture_name_selects_its_grid_rows(self, tmp_path, capsys):
        out = tmp_path / "b.json"
        assert main(["bench", "--workloads", "mutex_ring",
                     "--variants", "TokenTM", "--out", str(out)]) == 0
        rows = json.loads(out.read_text())["grid"]["cells"]
        assert [(r["workload"], r["variant"], r["scale"], r["trace"])
                for r in rows] == [("mutex_ring", "TokenTM", 1.0, True)]
