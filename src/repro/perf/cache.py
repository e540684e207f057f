"""Content-hashed on-disk cache of finished grid cells.

A cell's result is fully determined by its content: the workload
spec, the HTM variant, the system and HTM configurations, the seed,
the scale, and the thread count.  :func:`cell_key` hashes a canonical
JSON rendering of exactly that content (plus a schema version), so

* re-running a figure or table build hits the cache and is near-free;
* an interrupted sweep resumes where it stopped (finished cells are
  on disk, unfinished ones re-run);
* *any* change to a knob that affects results — a latency constant, a
  signature geometry, the scale — changes the key and transparently
  invalidates just the affected cells.

Entries live under ``<root>/<k[:2]>/<k>.pkl`` (pickled
:class:`~repro.analysis.experiments.Cell`) with a ``.json`` sidecar
holding the human-readable key material for debugging.  Writes are
atomic (temp file + ``os.replace``), so a killed run never leaves a
truncated entry.  Bump :data:`CACHE_SCHEMA` when the simulator's
behaviour changes in a way the key content cannot see.

Reads are *crash-safe* too: an entry that cannot be unpickled — a
truncation that slipped past the atomic write (full disk, torn copy),
or a stale class layout raising ``AttributeError``/``ImportError``
from an entry written under an old ``CACHE_SCHEMA`` discipline — is
treated as a miss, **quarantined** to ``<key>.pkl.corrupt`` so it can
never fail again on the next run, and counted through the
``perf.cache_corrupt`` metric.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pickle
import tempfile
from pathlib import Path
from typing import Any, Dict, Optional

#: Version folded into every key.  Bump on behavioural changes that
#: the key payload itself does not capture (e.g. executor semantics).
#: 2: CellSpec payload grew a hit-filter on/off field.
#: 3: CellSpec payload grew ``faults`` / ``monitor`` fields: chaos
#:    runs must never share entries with clean runs (and pre-faults
#:    entries never answer post-faults requests).
#: 4: ``workload`` may now be a trace spec (path/digest/convert) and
#:    the executor gained SIGNAL/WAIT dependency ops — entries from
#:    builds without the trace front-end must not answer for it.
#: 5: CellSpec payload grew a ``kernel`` field (pluggable
#:    SimulationKernel backends).  Backends are byte-identical by
#:    contract, but they must never share entries: a cross-kernel
#:    verification run answered from the other backend's cache would
#:    silently prove nothing.
#: 6: the ``kernel`` field is gone again: the executor has one hot
#:    loop, so there is no backend left to key on.
#: 7: the hit-filter field is gone: cells always run with the filter
#:    on, so there is no unfiltered run left to key on.
#: 8: OneTM cells now count log-write, log-stall and undo cycles, and
#:    time-shared cells deschedule a migrating thread on the core it
#:    leaves; entries from earlier builds hold stale stats for both.
#: 9: CellSpec payload lost its ``faults`` / ``monitor`` fields: grid
#:    cells are always clean runs (chaos campaigns key their own
#:    cells), so there is no fault plan left to key on.
#: 10: six config fields that no cell could vary left the payload.
#: 11: CellSpec payload grew ``timeslice`` and ``policy`` (the knobs
#:     the ablations used to pass to a hand-built executor).
CACHE_SCHEMA = 11

#: Default cache directory (overridable via the environment).
ENV_CACHE_DIR = "REPRO_CACHE_DIR"
DEFAULT_CACHE_DIR = ".repro-cache"


def default_cache_dir() -> Path:
    """Cache root: ``$REPRO_CACHE_DIR`` or ``./.repro-cache``."""
    return Path(os.environ.get(ENV_CACHE_DIR, DEFAULT_CACHE_DIR))


def _canonical(obj: Any) -> Any:
    """Recursively reduce dataclasses/containers to JSON-able values."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: _canonical(getattr(obj, f.name))
                for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): _canonical(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_canonical(v) for v in obj]
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    raise TypeError(f"cannot canonicalize {type(obj).__name__} for cache key")


def cell_key(spec) -> str:
    """Content hash (hex) of one grid cell.

    ``spec`` is anything with a ``payload()`` returning the dict of
    result-determining content (:class:`repro.perf.runner.CellSpec`),
    or such a dict directly.
    """
    payload = spec.payload() if hasattr(spec, "payload") else spec
    canonical = {"cache_schema": CACHE_SCHEMA, **_canonical(payload)}
    blob = json.dumps(canonical, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class ResultCache:
    """Directory-backed store of pickled grid cells, keyed by hash.

    ``metrics`` (a :class:`~repro.obs.metrics.MetricsRegistry`) makes
    quarantines observable as ``perf.cache_corrupt``; a
    :class:`~repro.perf.runner.ParallelRunner` attaches its own
    registry automatically.  :attr:`quarantined` counts them locally
    either way.
    """

    def __init__(self, root: Optional[os.PathLike] = None, metrics=None,
                 recorder=None):
        self.root = Path(root) if root is not None else default_cache_dir()
        self.metrics = metrics
        #: Optional :class:`~repro.landscape.store.RunRecorder`: when
        #: set, every quarantine is also recorded as a non-terminal
        #: ``cache_quarantine`` event in the result landscape.  A
        #: :class:`~repro.perf.runner.ParallelRunner` attaches its own
        #: recorder automatically, like ``metrics``.
        self.recorder = recorder
        #: Corrupt entries quarantined by this instance.
        self.quarantined = 0

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.pkl"

    def get(self, key: str):
        """The cached cell for ``key``, or None.

        Any entry that fails to load — truncated pickle, or a stale
        class layout raising ``AttributeError``/``ImportError`` under
        ``CACHE_SCHEMA`` discipline — reads as a miss and is moved
        aside to ``<key>.pkl.corrupt`` so the re-simulated result can
        take its slot (and the bad bytes stay available for autopsy).
        """
        path = self._path(key)
        try:
            with open(path, "rb") as fh:
                return pickle.load(fh)
        except FileNotFoundError:
            return None
        except Exception:
            self._quarantine(path)
            return None

    def _quarantine(self, path: Path) -> None:
        self.quarantined += 1
        if self.metrics is not None:
            self.metrics.counter("perf.cache_corrupt").inc()
        if self.recorder is not None:
            self.recorder.event("cache_quarantine",
                                f"unreadable entry moved to "
                                f"{path.name}.corrupt")
        try:
            os.replace(path, Path(str(path) + ".corrupt"))
        except OSError:
            pass  # raced with a concurrent quarantine or a cleanup

    def put(self, key: str, cell, sidecar: Optional[Dict] = None) -> None:
        """Store ``cell`` under ``key`` atomically.

        ``sidecar`` (normally the key payload) is written next to the
        entry as pretty JSON so a human can tell what a hash holds.
        """
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                pickle.dump(cell, fh, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        if sidecar is not None:
            side = path.with_suffix(".json")
            side.write_text(
                json.dumps(_canonical(sidecar), sort_keys=True, indent=2)
                + "\n",
                encoding="utf-8",
            )

    def __contains__(self, key: str) -> bool:
        return self._path(key).exists()

    def __len__(self) -> int:
        if not self.root.exists():
            return 0
        return sum(1 for _ in self.root.glob("*/*.pkl"))

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        removed = 0
        if not self.root.exists():
            return 0
        for path in self.root.glob("*/*.pkl"):
            path.unlink()
            side = path.with_suffix(".json")
            if side.exists():
                side.unlink()
            removed += 1
        return removed
