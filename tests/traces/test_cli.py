"""CLI tests for the trace verbs: record, workloads, run, chaos."""

import json

import pytest

from repro.cli import main
from repro.traces.workload import fixture_path


class TestRecordAndReplay:
    def test_record_then_run_cli_round_trip(self, tmp_path, capsys):
        out = tmp_path / "chol.strace.gz"
        rc = main(["record", "Cholesky", "-o", str(out),
                   "--seed", "0", "--scale", "0.005"])
        assert rc == 0
        assert "replay:" in capsys.readouterr().out
        rc = main(["run", "TokenTM", "--trace-file", str(out),
                   "--remap", "none", "--json"])
        assert rc == 0
        replayed = json.loads(capsys.readouterr().out)
        rc = main(["run", "Cholesky", "TokenTM", "--seed", "0",
                   "--scale", "0.005", "--json"])
        assert rc == 0
        direct = json.loads(capsys.readouterr().out)
        assert replayed["makespan"] == direct["makespan"]
        assert replayed["commits"] == direct["commits"]


class TestRunTraceFile:
    def test_run_replays_fixture(self, capsys):
        rc = main(["run", "TokenTM",
                   "--trace-file", str(fixture_path("prodcons")),
                   "--json"])
        assert rc == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["workload"] == "prodcons"
        assert stats["commits"] == 18

    def test_workload_and_trace_file_exclusive(self):
        with pytest.raises(SystemExit):
            main(["run", "Cholesky", "TokenTM",
                  "--trace-file", str(fixture_path("prodcons"))])

    def test_neither_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "TokenTM"])


class TestWorkloadsListing:
    def test_lists_all_kinds(self, capsys):
        rc = main(["workloads", "--scale", "0.004"])
        assert rc == 0
        text = capsys.readouterr().out
        for expected in ("Cholesky", "synthetic", "Apache", "lock",
                         "prodcons", "barrier_storm", "mutex_ring",
                         "trace", "footprint"):
            assert expected in text

    def test_extra_trace_file_row(self, capsys):
        rc = main(["workloads", "--scale", "0.004",
                   "--trace-file", str(fixture_path("prodcons"))])
        assert rc == 0
        lines = [l for l in capsys.readouterr().out.splitlines()
                 if l.startswith("prodcons")]
        assert len(lines) == 2  # fixture row + explicit row


class TestBadTraceFile:
    """A trace file that cannot be read is an input error: exit 2."""

    COMMANDS = {
        "run": ["run", "TokenTM"],
        "workloads": ["workloads"],
        "chaos": ["chaos", "--seeds", "1"],
    }

    @pytest.mark.parametrize("kind", ["missing", "not-events"])
    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_exits_2_with_one_line(self, tmp_path, capsys, monkeypatch,
                                   command, kind):
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "ring.trace"
        if kind == "not-events":
            # An opcode listing, not a SynchroTrace-style event file.
            path.write_text("#repro-trace v1\n#name ring\nT 0\n5 7\n")
        rc = main(self.COMMANDS[command] + ["--trace-file", str(path)])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"{command}: {path}")
        assert list(tmp_path.iterdir()) == \
            ([path] if kind == "not-events" else [])
