"""Crash-safe sqlite store behind the result landscape.

Durability model (mirrors docs/landscape.md):

* **WAL mode, ``synchronous=FULL``** — every committed transaction
  survives power loss; readers never block the single writer.
* **One transaction per logical write** — a row is either fully
  there or absent; there is no multi-statement window a SIGKILL can
  tear.  (The *ledger* can still be torn — a process can die between
  opening work and closing it — which is exactly what the audit and
  heal-on-reopen exist to handle.)
* **Single-writer discipline** — at most one read-write
  :class:`LandscapeStore` is open per database.  Opening read-write
  therefore implies any previous writer is dead, which makes
  heal-on-reopen sound: every ``open`` run found at open belongs to
  a crashed process and is closed as ``interrupted`` with
  ``healed=1`` (its outcome-less work rows likewise).
* **Corrupt-db quarantine** — if sqlite reports the file is not a
  database or ``quick_check`` fails, the bytes move aside to
  ``<path>.corrupt`` (with any ``-wal``/``-shm`` companions) and a
  fresh store starts, mirroring ResultCache's ``.pkl.corrupt``
  policy: results are reproducible, evidence of corruption is not —
  keep the evidence, free the slot.
* **Schema versioning** — ``PRAGMA user_version`` holds
  :data:`~repro.landscape.schema.LANDSCAPE_SCHEMA`; older databases
  migrate forward at open (each step + the version bump in one
  transaction, so a mid-migration kill re-runs cleanly), newer ones
  are refused with :class:`~repro.common.errors.ConfigError`.

Recorder write failures **raise**: a landscape that silently drops
ledger entries would pass every audit while recording nothing, which
is worse than no landscape at all.  Callers opt in by constructing a
store; once they do, writes are load-bearing.
"""

from __future__ import annotations

import json
import os
import sqlite3
import subprocess
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.common.errors import ConfigError, ReproError
from repro.landscape.schema import (
    CREATE_TABLES,
    LANDSCAPE_SCHEMA,
    MIGRATIONS,
    OUTCOME_INTERRUPTED,
    RUN_KINDS,
    RUN_OPEN,
    TERMINAL_OUTCOMES,
    WORK_KINDS,
)
from repro.obs.metrics import LANDSCAPE_COUNTERS


class LedgerError(ReproError):
    """In-process misuse of the outcome ledger.

    Raised when the *running* process tries to violate the ledger —
    closing work twice, closing work it never opened by id, recording
    an unknown outcome.  Cross-process violations (a crash between
    open and close) are not errors at write time; they are what
    :mod:`repro.landscape.audit` detects after the fact.
    """


def current_git_rev(root: Optional[Path] = None) -> Optional[str]:
    """Best-effort ``git rev-parse HEAD`` for provenance stamping.

    Returns ``None`` outside a work tree or without git — provenance
    degrades, recording never fails because of it.
    """
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=str(root) if root else None,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else None


class LandscapeStore:
    """The durable landscape database.

    Parameters
    ----------
    path:
        Database file; parent directories are created.  The
        conventional location is ``<cache-dir>/landscape.db`` but any
        path works.
    metrics:
        Optional :class:`~repro.obs.metrics.MetricsRegistry`;
        ``landscape.*`` counters are pre-registered and published
        there.
    readonly:
        Open for audit/query without healing, migrating, or taking
        the writer slot.  A missing file raises
        :class:`~repro.common.errors.ConfigError` (there is nothing
        to read) instead of creating an empty store.
    """

    def __init__(self, path, metrics=None, readonly: bool = False):
        self.path = Path(path)
        self.metrics = metrics
        self.readonly = readonly
        self.quarantined = 0
        self.healed_runs = 0
        if metrics is not None:
            for name in LANDSCAPE_COUNTERS:
                metrics.counter(name)
        if readonly:
            if not self.path.exists():
                raise ConfigError(f"no landscape store at {self.path}")
            self._conn = self._open_readonly()
            self._check_version(self._user_version())
        else:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._conn = self._open_rw()

    # -- opening / integrity ------------------------------------------

    def _open_readonly(self) -> sqlite3.Connection:
        conn = sqlite3.connect(
            f"file:{self.path}?mode=ro", uri=True,
            isolation_level=None, timeout=60.0,
        )
        conn.row_factory = sqlite3.Row
        try:
            conn.execute("PRAGMA quick_check").fetchone()
        except sqlite3.DatabaseError as exc:
            conn.close()
            raise ConfigError(
                f"landscape store {self.path} is unreadable: {exc}"
            ) from exc
        return conn

    def _open_rw(self) -> sqlite3.Connection:
        conn = self._connect_checked()
        if conn is None:
            # Unreadable: quarantine the bytes and start fresh.
            self._quarantine_db()
            conn = self._connect_checked()
            if conn is None:  # pragma: no cover - fresh db can't fail
                raise ConfigError(
                    f"landscape store {self.path} unreadable even "
                    f"after quarantine"
                )
        self._migrate(conn)
        self._heal(conn)
        return conn

    def _connect_checked(self) -> Optional[sqlite3.Connection]:
        """Connect read-write; ``None`` if the file is not a sound
        database (caller quarantines)."""
        conn = sqlite3.connect(str(self.path), isolation_level=None,
                               timeout=60.0)
        conn.row_factory = sqlite3.Row
        try:
            conn.execute("PRAGMA journal_mode=WAL")
            conn.execute("PRAGMA synchronous=FULL")
            row = conn.execute("PRAGMA quick_check").fetchone()
            if row is None or row[0] != "ok":
                raise sqlite3.DatabaseError(
                    f"quick_check: {row[0] if row else 'no result'}"
                )
        except sqlite3.DatabaseError:
            conn.close()
            return None
        return conn

    def _quarantine_db(self) -> None:
        """Move the unreadable database (and WAL companions) aside to
        ``<path>.corrupt``, mirroring ResultCache's policy."""
        for suffix in ("", "-wal", "-shm"):
            src = Path(str(self.path) + suffix)
            if not src.exists():
                continue
            try:
                os.replace(src, str(src) + ".corrupt")
            except OSError:
                # Lost a race or an unwritable directory; the fresh
                # connect below will surface anything fatal.
                pass
        self.quarantined += 1
        if self.metrics is not None:
            self.metrics.counter("landscape.corrupt").inc()

    def _user_version(self) -> int:
        return int(self._conn.execute("PRAGMA user_version").fetchone()[0])

    @staticmethod
    def _check_version(version: int) -> None:
        if version > LANDSCAPE_SCHEMA:
            raise ConfigError(
                f"landscape store is schema {version}, newer than this "
                f"build's {LANDSCAPE_SCHEMA}; refusing to touch it"
            )

    def _migrate(self, conn: sqlite3.Connection) -> None:
        version = int(conn.execute("PRAGMA user_version").fetchone()[0])
        self._check_version(version)
        if version == 0:
            # Fresh database: create at the current schema in one
            # transaction (user_version write included, so a kill
            # mid-create leaves version 0 and this simply re-runs).
            conn.execute("BEGIN IMMEDIATE")
            for ddl in CREATE_TABLES:
                conn.execute(ddl)
            conn.execute(f"PRAGMA user_version = {LANDSCAPE_SCHEMA}")
            conn.execute("COMMIT")
            return
        while version < LANDSCAPE_SCHEMA:
            steps = MIGRATIONS.get(version)
            if steps is None:
                raise ConfigError(
                    f"no migration from landscape schema {version} to "
                    f"{version + 1}"
                )
            conn.execute("BEGIN IMMEDIATE")
            for sql in steps:
                conn.execute(sql)
            conn.execute(f"PRAGMA user_version = {version + 1}")
            conn.execute("COMMIT")
            version += 1

    def _heal(self, conn: sqlite3.Connection) -> None:
        """Close runs (and their outcome-less work) left ``open`` by a
        dead writer.  Sound because the store is single-writer: if we
        hold the read-write slot, nobody else is mid-run."""
        now = time.time()
        open_runs = conn.execute(
            "SELECT id FROM runs WHERE status = ?", (RUN_OPEN,)
        ).fetchall()
        for (run_id,) in [tuple(r) for r in open_runs]:
            conn.execute("BEGIN IMMEDIATE")
            orphans = conn.execute(
                "SELECT w.id FROM work w LEFT JOIN outcomes o "
                "ON o.work_id = w.id WHERE w.run_id = ? AND o.id IS NULL",
                (run_id,),
            ).fetchall()
            for (work_id,) in [tuple(r) for r in orphans]:
                conn.execute(
                    "INSERT INTO outcomes "
                    "(work_id, outcome, healed, closed_unix, detail) "
                    "VALUES (?, ?, 1, ?, ?)",
                    (work_id, OUTCOME_INTERRUPTED, now,
                     "healed: writer died with work open"),
                )
            conn.execute(
                "UPDATE runs SET status = ?, healed = 1, "
                "finished_unix = ? WHERE id = ?",
                (OUTCOME_INTERRUPTED, now, run_id),
            )
            conn.execute(
                "INSERT INTO events (run_id, kind, detail, at_unix) "
                "VALUES (?, 'healed', ?, ?)",
                (run_id,
                 f"run healed to interrupted ({len(orphans)} open work "
                 f"rows closed)", now),
            )
            conn.execute("COMMIT")
            self.healed_runs += 1
            if self.metrics is not None:
                self.metrics.counter("landscape.healed").inc()

    # -- write side ----------------------------------------------------

    def _write(self, sql: str, params: Tuple = ()) -> int:
        if self.readonly:
            raise LedgerError("landscape store is read-only")
        cur = self._conn.execute("BEGIN IMMEDIATE")
        try:
            cur = self._conn.execute(sql, params)
            self._conn.execute("COMMIT")
        except BaseException:
            self._conn.execute("ROLLBACK")
            raise
        return int(cur.lastrowid)

    def begin_run(self, kind: str, label: Optional[str] = None, *,
                  git_rev: Optional[str] = None,
                  cache_schema: Optional[int] = None,
                  bench_schema: Optional[str] = None,
                  seed: Optional[int] = None,
                  provenance: Optional[Dict] = None) -> "RunRecorder":
        """Open a run row (status ``open``) and return its recorder."""
        if kind not in RUN_KINDS:
            raise LedgerError(f"unknown run kind {kind!r}")
        run_id = self._write(
            "INSERT INTO runs (kind, label, status, started_unix, "
            "git_rev, cache_schema, bench_schema, seed, "
            "provenance) VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)",
            (kind, label, RUN_OPEN, time.time(), git_rev, cache_schema,
             bench_schema, seed,
             json.dumps(provenance, sort_keys=True) if provenance else None),
        )
        if self.metrics is not None:
            self.metrics.counter("landscape.runs").inc()
        return RunRecorder(self, run_id)

    def finish_run(self, run_id: int, status: str,
                   metrics_snapshot: Optional[Dict] = None,
                   payload: Optional[Dict] = None) -> None:
        if status not in TERMINAL_OUTCOMES:
            raise LedgerError(f"unknown run status {status!r}")
        self._write(
            "UPDATE runs SET status = ?, finished_unix = ?, "
            "metrics = COALESCE(?, metrics), "
            "payload = COALESCE(?, payload) WHERE id = ?",
            (status, time.time(),
             json.dumps(metrics_snapshot, sort_keys=True)
             if metrics_snapshot is not None else None,
             json.dumps(payload, sort_keys=True)
             if payload is not None else None,
             run_id),
        )

    def open_work(self, run_id: int, kind: str, key: str, *,
                  workload: Optional[str] = None,
                  variant: Optional[str] = None,
                  seed: Optional[int] = None,
                  fault_plan: Optional[str] = None,
                  trace_digest: Optional[str] = None,
                  provenance: Optional[Dict] = None) -> int:
        """Record the debit: a unit of work was dispatched."""
        if kind not in WORK_KINDS:
            raise LedgerError(f"unknown work kind {kind!r}")
        work_id = self._write(
            "INSERT INTO work (run_id, kind, key, workload, variant, "
            "seed, fault_plan, trace_digest, opened_unix, "
            "provenance) VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
            (run_id, kind, key, workload, variant, seed, fault_plan,
             trace_digest, time.time(),
             json.dumps(provenance, sort_keys=True) if provenance else None),
        )
        if self.metrics is not None:
            self.metrics.counter("landscape.work_opened").inc()
        return work_id

    def close_work(self, work_id: int, outcome: str,
                   detail: Optional[str] = None,
                   healed: bool = False) -> None:
        """Record the credit: the unit reached its terminal outcome."""
        if outcome not in TERMINAL_OUTCOMES:
            raise LedgerError(f"unknown terminal outcome {outcome!r}")
        self._write(
            "INSERT INTO outcomes (work_id, outcome, healed, "
            "closed_unix, detail) VALUES (?, ?, ?, ?, ?)",
            (work_id, outcome, 1 if healed else 0, time.time(), detail),
        )
        if self.metrics is not None:
            self.metrics.counter("landscape.work_closed").inc()

    def event(self, run_id: int, kind: str,
              detail: Optional[str] = None,
              work_id: Optional[int] = None) -> None:
        """Record a non-terminal event (retry, timeout, quarantine…)."""
        self._write(
            "INSERT INTO events (run_id, work_id, kind, detail, at_unix) "
            "VALUES (?, ?, ?, ?, ?)",
            (run_id, work_id, kind, detail, time.time()),
        )
        if self.metrics is not None:
            self.metrics.counter("landscape.events").inc()

    # -- read side -----------------------------------------------------

    def query(self, sql: str, params: Tuple = ()) -> List[sqlite3.Row]:
        return self._conn.execute(sql, params).fetchall()

    def runs(self, kind: Optional[str] = None) -> List[sqlite3.Row]:
        if kind is None:
            return self.query("SELECT * FROM runs ORDER BY id")
        return self.query("SELECT * FROM runs WHERE kind = ? ORDER BY id",
                          (kind,))

    def work_rows(self, run_id: Optional[int] = None) -> List[sqlite3.Row]:
        if run_id is None:
            return self.query("SELECT * FROM work ORDER BY id")
        return self.query("SELECT * FROM work WHERE run_id = ? ORDER BY id",
                          (run_id,))

    def outcome_rows(self) -> List[sqlite3.Row]:
        return self.query("SELECT * FROM outcomes ORDER BY id")

    def latest_outcomes(
            self, kind: str) -> Dict[str, Tuple[str, Optional[str]]]:
        """``key -> (outcome, detail)`` of the newest outcome booked for
        each ``kind`` work key, across every run in the store."""
        rows = self.query(
            "SELECT w.key, o.outcome, o.detail FROM work w "
            "JOIN outcomes o ON o.work_id = w.id WHERE w.kind = ? "
            "ORDER BY o.id", (kind,))
        return {row["key"]: (row["outcome"], row["detail"]) for row in rows}

    def events_for(self, run_id: int) -> List[sqlite3.Row]:
        return self.query(
            "SELECT * FROM events WHERE run_id = ? ORDER BY id", (run_id,))

    # -- lifecycle -----------------------------------------------------

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def __enter__(self) -> "LandscapeStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class RunRecorder:
    """Ledger pen bound to one run.

    Tracks in-process open work by ``(kind, key)`` so call sites can
    close by key (the runner and the chaos campaign know keys, not
    row ids), and guards against in-process double closes — the
    cross-process variants stay representable on purpose, for the
    audit to find.
    """

    def __init__(self, store: LandscapeStore, run_id: int):
        self.store = store
        self.run_id = run_id
        self._open: Dict[Tuple[str, str], int] = {}
        self._finished = False

    def open(self, kind: str, key: str, **prov) -> int:
        work_id = self.store.open_work(self.run_id, kind, key, **prov)
        self._open[(kind, key)] = work_id
        return work_id

    def close(self, work_id: int, outcome: str,
              detail: Optional[str] = None) -> None:
        for pair, wid in list(self._open.items()):
            if wid == work_id:
                del self._open[pair]
                break
        else:
            raise LedgerError(
                f"work {work_id} is not open in this recorder "
                f"(double close, or never opened here)"
            )
        self.store.close_work(work_id, outcome, detail)

    def close_key(self, kind: str, key: str, outcome: str,
                  detail: Optional[str] = None, **prov) -> int:
        """Close the tracked open row for ``(kind, key)`` — or, if
        none is tracked, open and close one atomically (a unit whose
        dispatch this recorder never saw, e.g. a chaos cell resumed
        from a previous run's outcome)."""
        work_id = self._open.pop((kind, key), None)
        if work_id is None:
            work_id = self.store.open_work(self.run_id, kind, key, **prov)
        self.store.close_work(work_id, outcome, detail)
        return work_id

    def event(self, kind: str, detail: Optional[str] = None,
              key: Optional[Tuple[str, str]] = None) -> None:
        work_id = self._open.get(key) if key is not None else None
        self.store.event(self.run_id, kind, detail, work_id)

    def finish(self, status: str, metrics_snapshot: Optional[Dict] = None,
               payload: Optional[Dict] = None) -> None:
        """Close the run row.  Open work this recorder still tracks is
        closed ``interrupted`` first — the in-process analogue of
        heal-on-reopen (a budget stop or signal unwound the loop)."""
        if self._finished:
            raise LedgerError(f"run {self.run_id} already finished")
        for (kind, key), work_id in sorted(self._open.items()):
            self.store.close_work(
                work_id, OUTCOME_INTERRUPTED,
                detail="run finished with work still open",
            )
        self._open.clear()
        self.store.finish_run(self.run_id, status, metrics_snapshot,
                              payload)
        self._finished = True
