"""Campaign checkpointing in the result landscape: --resume, interruption.

The contract under test (docs/robustness.md, "Checkpointed
campaigns"): an interrupted campaign — SIGTERM, kill -9 followed by
heal-on-reopen, or an explicit ``max_cells`` budget — resumes from its
last finished cell, and the merged result is identical to an
uninterrupted run's.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys

import pytest

import repro
from repro.cli import main
from repro.common.errors import ConfigError
from repro.faults.campaign import (
    campaign_cell_key,
    run_campaign,
)
from repro.faults.plan import default_plan
from repro.landscape import LandscapeStore, audit_store
from repro.perf.supervise import flush_on_signals

#: Small enough for seconds-scale cells, same shape the chaos CLI
#: smoke tests use.
ARGS = dict(workload="Cholesky", variants=("tokentm",), seeds=(0, 1),
            scale=0.002, shrink=False)


def _summaries(result):
    return [(c.workload, c.variant, c.seed, c.ok, c.error)
            for c in result.cells]


def _leg(db, **kwargs):
    """One campaign invocation recorded into the store at ``db``, its
    run closed the way ``repro chaos`` closes it."""
    with LandscapeStore(db) as store:
        rec = store.begin_run("chaos")
        try:
            result = run_campaign(recorder=rec, **{**ARGS, **kwargs})
        except (KeyboardInterrupt, SystemExit):
            rec.finish("interrupted")
            raise
        rec.finish("interrupted" if result.interrupted
                   else "ok" if result.ok else "failed")
        assert audit_store(store) == []
    return result


class TestCellKey:
    def test_key_is_content_addressed(self):
        plan = default_plan()
        key = campaign_cell_key("Cholesky", "tokentm", 3, plan, 0.002,
                                200, 8, None, None)
        assert key.startswith("Cholesky/TokenTM/s3/plan:")
        assert "skew:auto" in key and "mut:-" in key
        # Same content, aliased variant name: same key.
        assert key == campaign_cell_key("Cholesky", "TokenTM", 3, plan,
                                        0.002, 200, 8, None, None)
        # Different plan content: different key.
        other = default_plan(intensity=2.0)
        assert key != campaign_cell_key("Cholesky", "tokentm", 3, other,
                                        0.002, 200, 8, None, None)


#: Child process: record one finished cell, open the next one's work
#: row, then hang so the parent can SIGKILL it mid-cell.
_CHILD = """
import sys
from repro.faults.campaign import campaign_cell_key, run_campaign
from repro.faults.plan import default_plan
from repro.landscape import LandscapeStore

store = LandscapeStore(sys.argv[1])
rec = store.begin_run("chaos", label="victim")
run_campaign(workload="Cholesky", variants=("tokentm",), seeds=(0, 1),
             scale=0.002, shrink=False, recorder=rec, max_cells=1)
rec.open("chaos_cell", campaign_cell_key(
    "Cholesky", "tokentm", 1, default_plan(), 0.002, 200, 8, None, None))
print("READY", flush=True)
import time
time.sleep(60)
"""


class TestCampaignCheckpointing:
    def test_max_cells_interrupts_then_resume_completes(self, tmp_path):
        clean = run_campaign(**ARGS)
        db = tmp_path / "landscape.db"
        partial = _leg(db, max_cells=1)
        assert partial.interrupted
        assert len(partial.cells) == 1

        resumed = _leg(db, resume=True)
        assert not resumed.interrupted
        assert resumed.resumed_cells == 1
        assert _summaries(resumed) == _summaries(clean)
        assert resumed.summary() == clean.summary()

    def test_resume_after_sigterm_mid_campaign(self, tmp_path):
        """Simulated batch-scheduler kill: SIGTERM lands after the
        first cell; the run closes ``interrupted`` in-process and the
        rerun picks up from cell 2."""
        db = tmp_path / "landscape.db"

        def bomb(_cell):
            os.kill(os.getpid(), signal.SIGTERM)

        with pytest.raises(SystemExit) as exc:
            with flush_on_signals():
                _leg(db, progress=bomb)
        assert exc.value.code == 128 + signal.SIGTERM
        with LandscapeStore(db) as store:
            assert store.healed_runs == 0
            run, = store.runs()
            assert run["status"] == "interrupted"

        resumed = _leg(db, resume=True)
        assert resumed.resumed_cells == 1
        assert resumed.summary() == run_campaign(**ARGS).summary()

    def test_cell_healed_after_sigkill_simulates_again(self, tmp_path):
        """A SIGKILLed writer leaves the in-flight cell's row open;
        heal-on-reopen closes it ``interrupted``, so resume re-runs
        that cell and only merges the one that really finished."""
        db = tmp_path / "landscape.db"
        env = dict(os.environ)
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        child = subprocess.Popen(
            [sys.executable, "-c", _CHILD, str(db)], env=env,
            stdout=subprocess.PIPE, text=True)
        try:
            assert child.stdout.readline().strip() == "READY"
            os.kill(child.pid, signal.SIGKILL)
            child.wait(timeout=30)
        finally:
            if child.poll() is None:  # pragma: no cover - cleanup only
                child.kill()
            child.stdout.close()
        assert child.returncode == -signal.SIGKILL

        resumed = _leg(db, resume=True)  # the reopen heals first
        assert resumed.resumed_cells == 1
        merged, simulated = resumed.cells
        assert merged.stats is None and simulated.stats is not None
        assert resumed.summary() == run_campaign(**ARGS).summary()
        with LandscapeStore(db, readonly=True) as store:
            assert [r["healed"] for r in store.runs()] == [1, 0]
            assert audit_store(store) == []

    def test_resumed_failed_cell_keeps_error_and_bundle(self, tmp_path):
        mutant = dict(mutant="token_leak", out_dir=str(tmp_path / "b"))
        clean = run_campaign(**ARGS, **mutant)
        assert clean.failures and clean.bundle_paths
        db = tmp_path / "landscape.db"
        _leg(db, max_cells=1, **mutant)

        resumed = _leg(db, resume=True, **mutant)
        assert resumed.resumed_cells == 1
        assert not resumed.cells[0].ok
        assert resumed.cells[0].error["error"]
        assert _summaries(resumed) == _summaries(clean)
        assert resumed.summary() == clean.summary()

    def test_fully_journaled_campaign_runs_nothing(self, tmp_path):
        db = tmp_path / "landscape.db"
        _leg(db)
        replayed = _leg(db, resume=True, max_cells=0)
        # max_cells=0 forbids any simulation: completing anyway proves
        # every cell was answered from the landscape.
        assert not replayed.interrupted
        assert replayed.resumed_cells == len(replayed.cells) == 2

    def test_changed_plan_invalidates_journal_entries(self, tmp_path):
        db = tmp_path / "landscape.db"
        _leg(db)
        rerun = _leg(db, resume=True, plan=default_plan(intensity=2.0))
        assert rerun.resumed_cells == 0  # different plan, new keys


class TestChaosResumeCLI:
    BASE = ["chaos", "--workload", "Cholesky", "--variants", "tokentm",
            "--seeds", "2", "--scale", "0.002", "--no-shrink"]

    def test_interrupt_exits_3_then_resume_exits_0(self, tmp_path,
                                                   capsys):
        base = self.BASE + ["--out-dir", str(tmp_path / "bundles"),
                            "--landscape", str(tmp_path / "db")]
        rc = main(base + ["--max-cells", "1"])
        captured = capsys.readouterr()
        assert rc == 3
        assert "campaign interrupted" in captured.err
        assert "--resume" in captured.err

        rc = main(base + ["--resume", "--json"])
        captured = capsys.readouterr()
        assert rc == 0
        payload = json.loads(captured.out)
        assert payload["cells"] == 2
        assert payload["interrupted"] is False

    def test_resumed_json_summary_matches_clean_run(self, tmp_path,
                                                    capsys):
        base = self.BASE + ["--out-dir", str(tmp_path / "bundles"),
                            "--json"]
        assert main(base) == 0
        clean = json.loads(capsys.readouterr().out)

        db = str(tmp_path / "db")
        assert main(base + ["--landscape", db, "--max-cells", "1"]) == 3
        capsys.readouterr()
        assert main(base + ["--landscape", db, "--resume"]) == 0
        resumed = json.loads(capsys.readouterr().out)
        assert resumed == clean
        assert main(["audit", db]) == 0

    def test_resume_defaults_landscape_path(self, tmp_path, monkeypatch,
                                            capsys):
        monkeypatch.chdir(tmp_path)
        rc = main(self.BASE[:5] + ["--seeds", "1", "--scale", "0.002",
                                   "--no-shrink", "--resume"])
        capsys.readouterr()
        assert rc == 0
        assert (tmp_path / "landscape.db").exists()


def test_run_campaign_without_journal_unchanged():
    """The checkpointing knobs default off: no recorder, no file I/O,
    identical result object shape."""
    result = run_campaign(**ARGS)
    assert not result.interrupted
    assert result.resumed_cells == 0
    assert "interrupted" in result.summary()


def test_resume_without_recorder_refused():
    with pytest.raises(ConfigError, match="recorder"):
        run_campaign(resume=True, **ARGS)
