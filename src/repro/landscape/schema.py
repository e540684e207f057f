"""Landscape database schema: versioned DDL and forward migrations.

The landscape is a **double-entry outcome ledger** over three fronts
of results (grid cells, chaos campaign cells, bench sections), plus
the provenance needed to trust them later:

``runs``
    One row per producing invocation — a grid run, a chaos campaign,
    or a bench run.  Carries the provenance common to everything the
    invocation produced: git revision, ``CACHE_SCHEMA`` /
    ``BENCH_SCHEMA`` versions, seed, wall-clock
    timestamps, the end-of-run metrics snapshot, and (for bench runs)
    the full payload JSON that ``repro query`` reads back.
``work``
    One row per unit of work, inserted when the unit is *dispatched*
    (the debit side of the ledger).  Keyed by the unit's full
    result-determining content: the :func:`~repro.perf.cache.cell_key`
    content hash for grid cells, the
    :func:`~repro.faults.campaign.campaign_cell_key` for chaos cells,
    the section name for bench sections — plus per-unit provenance
    (workload, variant, seed, fault-plan hash, trace digest).  Both
    tables keep a historical ``kernel`` column: rows written while the
    simulator had selectable hot-loop backends name the backend, and
    newer rows leave it NULL.
``outcomes``
    One row per *terminal* outcome (the credit side): ``ok`` /
    ``failed`` / ``quarantined`` / ``interrupted``.  The ledger
    invariant — **every work row has exactly one outcome row** — is
    deliberately *not* a UNIQUE constraint: like TokenTM's token
    books, the invariant is enforced by an auditor
    (:mod:`repro.landscape.audit`), so a torn write, a lost close, or
    a double commit is *detected after the fact* rather than silently
    impossible to represent.
``events``
    Non-terminal happenings along the way: retries, timeouts, worker
    deaths, cache quarantines, heals.  Events never close work; they
    explain the path a unit took to its one terminal outcome.

Schema versioning rides sqlite's ``user_version`` pragma.  Bump
:data:`LANDSCAPE_SCHEMA` and append a :data:`MIGRATIONS` entry when
the DDL changes; :class:`~repro.landscape.store.LandscapeStore`
applies pending migrations forward in one transaction at open and
refuses databases *newer* than the running build.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

#: Current schema version (sqlite ``user_version``).  A database at
#: an older version is migrated forward at open; a newer one is
#: refused (downgrade would need code this build does not have).
LANDSCAPE_SCHEMA = 1

#: Run kinds (``runs.kind``).
RUN_GRID = "grid"
RUN_CHAOS = "chaos"
RUN_BENCH = "bench"
RUN_KINDS = (RUN_GRID, RUN_CHAOS, RUN_BENCH)

#: Work kinds (``work.kind``).
WORK_CELL = "cell"
WORK_CHAOS_CELL = "chaos_cell"
WORK_BENCH_SECTION = "bench_section"
WORK_KINDS = (WORK_CELL, WORK_CHAOS_CELL, WORK_BENCH_SECTION)

#: The four terminal outcomes.  Every dispatched unit of work must
#: reach exactly one of these (the audit invariant):
#:
#: ``ok``           finished and its result is trustworthy;
#: ``failed``       finished by failing (exhausted retries, invariant
#:                  violation, raised) — the failure is the result;
#: ``quarantined``  its result was discarded as corrupt/untrusted
#:                  (e.g. a poisoned cache entry backed the unit);
#: ``interrupted``  never finished — budget interruption, signal, or
#:                  healed after a crash left the row open.
OUTCOME_OK = "ok"
OUTCOME_FAILED = "failed"
OUTCOME_QUARANTINED = "quarantined"
OUTCOME_INTERRUPTED = "interrupted"
TERMINAL_OUTCOMES = (OUTCOME_OK, OUTCOME_FAILED, OUTCOME_QUARANTINED,
                     OUTCOME_INTERRUPTED)

#: Run statuses (``runs.status``): ``open`` while the producing
#: process is alive, then one terminal status.  ``open`` rows found
#: at (read-write) reopen belong to a dead process — the store heals
#: them to ``interrupted`` with ``healed=1``.
RUN_OPEN = "open"
RUN_STATUSES = (RUN_OPEN,) + TERMINAL_OUTCOMES

#: Non-terminal event kinds (``events.kind``).  Free-form by design —
#: these canonical names are what the shipped wiring emits.
EVENT_RETRY = "retry"
EVENT_TIMEOUT = "timeout"
EVENT_WORKER_DEATH = "worker_death"
EVENT_CACHE_QUARANTINE = "cache_quarantine"
EVENT_HEALED = "healed"

#: DDL for a fresh database at :data:`LANDSCAPE_SCHEMA`.
CREATE_TABLES: Tuple[str, ...] = (
    """
    CREATE TABLE IF NOT EXISTS runs (
        id            INTEGER PRIMARY KEY,
        kind          TEXT NOT NULL,
        label         TEXT,
        status        TEXT NOT NULL DEFAULT 'open',
        healed        INTEGER NOT NULL DEFAULT 0,
        started_unix  REAL NOT NULL,
        finished_unix REAL,
        git_rev       TEXT,
        cache_schema  INTEGER,
        bench_schema  TEXT,
        kernel        TEXT,
        seed          INTEGER,
        provenance    TEXT,
        metrics       TEXT,
        payload       TEXT
    )
    """,
    """
    CREATE TABLE IF NOT EXISTS work (
        id           INTEGER PRIMARY KEY,
        run_id       INTEGER NOT NULL,
        kind         TEXT NOT NULL,
        key          TEXT NOT NULL,
        workload     TEXT,
        variant      TEXT,
        seed         INTEGER,
        fault_plan   TEXT,
        trace_digest TEXT,
        kernel       TEXT,
        opened_unix  REAL NOT NULL,
        provenance   TEXT
    )
    """,
    """
    CREATE TABLE IF NOT EXISTS outcomes (
        id          INTEGER PRIMARY KEY,
        work_id     INTEGER NOT NULL,
        outcome     TEXT NOT NULL,
        healed      INTEGER NOT NULL DEFAULT 0,
        closed_unix REAL NOT NULL,
        detail      TEXT
    )
    """,
    """
    CREATE TABLE IF NOT EXISTS events (
        id      INTEGER PRIMARY KEY,
        run_id  INTEGER NOT NULL,
        work_id INTEGER,
        kind    TEXT NOT NULL,
        detail  TEXT,
        at_unix REAL NOT NULL
    )
    """,
    "CREATE INDEX IF NOT EXISTS work_run ON work(run_id)",
    "CREATE INDEX IF NOT EXISTS work_key ON work(kind, key)",
    "CREATE INDEX IF NOT EXISTS outcomes_work ON outcomes(work_id)",
    "CREATE INDEX IF NOT EXISTS events_run ON events(run_id)",
)

#: Forward migrations: ``{from_version: (sql, ...)}`` taking a
#: database from ``from_version`` to ``from_version + 1``.  Applied
#: in order inside one transaction by the store; the final
#: ``user_version`` write rides the same transaction, so a kill
#: mid-migration leaves the old version intact and the migration
#: simply re-runs.  Empty at schema 1; the machinery is exercised by
#: ``tests/landscape/test_store.py`` with a registered fake step.
MIGRATIONS: Dict[int, Sequence[str]] = {}
