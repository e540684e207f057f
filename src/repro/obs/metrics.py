"""Metrics registry: counters, gauges, fixed-bucket histograms.

All values are simulated quantities (cycles, counts); nothing here
reads wall clocks.  Histograms use *fixed* bucket edges chosen at
construction so two runs of the same configuration always bucket
identically — a prerequisite for diffing traces across variants.

The registry subsumes :class:`~repro.runtime.stats.RunStats`: use
:func:`registry_from_stats` to expose every run-level aggregate (and
the machine counters) through the same namespace the event-derived
metrics live in.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Sequence, Tuple, Union

from repro.common.errors import SimulationError

Number = Union[int, float]

#: Default edges for cycle-valued histograms (transaction durations,
#: stall/release costs).  Roughly logarithmic; last bucket is open.
CYCLE_EDGES: Tuple[int, ...] = (
    100, 300, 1_000, 3_000, 10_000, 30_000, 100_000, 300_000, 1_000_000,
)

#: Default edges for set-size histograms (blocks per transaction).
SET_SIZE_EDGES: Tuple[int, ...] = (1, 2, 4, 8, 16, 32, 64, 128, 256, 1024)

#: Canonical names of the grid-supervision counters published by
#: :class:`~repro.perf.runner.ParallelRunner` (docs/robustness.md,
#: "Surviving the host").  Pre-registered at runner construction so a
#: clean run's snapshot still shows them at zero — dashboards can
#: tell "no failures" apart from "not instrumented".
PERF_RESILIENCE_COUNTERS: Tuple[str, ...] = (
    "perf.retries",        # cell attempts re-run after a failure
    "perf.timeouts",       # cells killed for exceeding their budget
    "perf.worker_deaths",  # pool breakages survived (OOM/SIGKILL)
    "perf.cells_failed",   # cells that exhausted their retry budget
    "perf.cache_corrupt",  # cache entries quarantined as unreadable
)

#: Canonical names of the result-landscape counters published by
#: :class:`~repro.landscape.store.LandscapeStore` (docs/landscape.md).
#: Pre-registered at zero when a store is constructed with a
#: registry, so a run with a landscape attached always snapshots the
#: full key set — "no heals" is distinguishable from "no landscape".
LANDSCAPE_COUNTERS: Tuple[str, ...] = (
    "landscape.runs",         # runs opened in the store
    "landscape.work_opened",  # work rows opened (ledger debits)
    "landscape.work_closed",  # terminal outcomes recorded (credits)
    "landscape.events",       # non-terminal events recorded
    "landscape.healed",       # runs healed to interrupted at reopen
    "landscape.corrupt",      # databases quarantined as unreadable
)


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise SimulationError(
                f"counter {self.name!r} cannot decrease (inc {amount})"
            )
        self.value += amount

    def snapshot(self) -> Dict[str, Number]:
        return {"type": "counter", "value": self.value}


class Gauge:
    """Last-written value (e.g. a fraction or a high-water mark)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value: Number = 0

    def set(self, value: Number) -> None:
        self.value = value

    def snapshot(self) -> Dict[str, Number]:
        return {"type": "gauge", "value": self.value}


class Histogram:
    """Fixed-edge histogram.

    ``edges`` are upper bounds: a value lands in the first bucket
    whose edge is >= value; values above the last edge land in the
    overflow bucket (``counts[-1]``).  Edges must be strictly
    increasing and are immutable after construction.
    """

    __slots__ = ("name", "edges", "counts", "total", "sum")

    def __init__(self, name: str, edges: Sequence[Number]):
        if not edges:
            raise SimulationError(f"histogram {name!r} needs bucket edges")
        if any(b <= a for a, b in zip(edges, edges[1:])):
            raise SimulationError(
                f"histogram {name!r} edges must be strictly increasing: "
                f"{tuple(edges)}"
            )
        self.name = name
        self.edges: Tuple[Number, ...] = tuple(edges)
        self.counts = [0] * (len(self.edges) + 1)
        self.total = 0
        self.sum: Number = 0

    def observe(self, value: Number) -> None:
        self.counts[self._bucket(value)] += 1
        self.total += 1
        self.sum += value

    def _bucket(self, value: Number) -> int:
        lo, hi = 0, len(self.edges)
        while lo < hi:
            mid = (lo + hi) // 2
            if value <= self.edges[mid]:
                hi = mid
            else:
                lo = mid + 1
        return lo

    @property
    def mean(self) -> float:
        return self.sum / self.total if self.total else 0.0

    def snapshot(self) -> Dict[str, object]:
        return {
            "type": "histogram",
            "edges": list(self.edges),
            "counts": list(self.counts),
            "count": self.total,
            "sum": self.sum,
        }


class MetricsRegistry:
    """Name-keyed metric store with get-or-create semantics."""

    def __init__(self):
        self._metrics: Dict[str, object] = {}

    def _get(self, name: str, cls, factory):
        metric = self._metrics.get(name)
        if metric is None:
            metric = factory()
            self._metrics[name] = metric
        elif not isinstance(metric, cls):
            raise SimulationError(
                f"metric {name!r} already registered as "
                f"{type(metric).__name__}, not {cls.__name__}"
            )
        return metric

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter, lambda: Counter(name))

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge, lambda: Gauge(name))

    def histogram(self, name: str,
                  edges: Optional[Sequence[Number]] = None) -> Histogram:
        metric = self._get(
            name, Histogram, lambda: Histogram(name, edges or CYCLE_EDGES)
        )
        if edges is not None and metric.edges != tuple(edges):
            raise SimulationError(
                f"histogram {name!r} already registered with edges "
                f"{metric.edges}, not {tuple(edges)}"
            )
        return metric

    def names(self) -> Iterable[str]:
        return sorted(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __getitem__(self, name: str):
        return self._metrics[name]

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """Flat {name: metric snapshot} dict, sorted for stable output."""
        return {name: self._metrics[name].snapshot()
                for name in sorted(self._metrics)}


def registry_from_stats(stats, registry: Optional[MetricsRegistry] = None,
                        prefix: str = "run") -> MetricsRegistry:
    """Expose a :class:`RunStats` through a metrics registry.

    Every scalar the tables are built from becomes a counter or
    gauge under ``<prefix>.``; machine counters (HTMStats snapshot)
    land under ``<prefix>.machine.``.  This is what lets one export
    path (the registry snapshot) carry both event-derived metrics
    and the legacy end-of-run aggregates.
    """
    reg = registry if registry is not None else MetricsRegistry()
    counters = {
        "commits": stats.commits,
        "aborts": stats.aborts,
        "preemptions": stats.preemptions,
        "stall_events": stats.stall_events,
        "stall_cycles": stats.stall_cycles,
        "backoff_cycles": stats.backoff_cycles,
    }
    for name, value in counters.items():
        reg.counter(f"{prefix}.{name}").inc(value)
    for cause, count in sorted(stats.abort_causes.items()):
        reg.counter(f"{prefix}.aborts.{cause}").inc(count)
    gauges = {
        "makespan": stats.makespan,
        "fast_release_fraction": stats.fast_release_fraction,
        "avg_read_set": stats.avg_read_set,
        "avg_write_set": stats.avg_write_set,
        "max_read_set": stats.max_read_set,
        "max_write_set": stats.max_write_set,
    }
    for name, value in gauges.items():
        reg.gauge(f"{prefix}.{name}").set(value)
    for name, value in sorted(stats.machine.items()):
        if name.startswith("_") or not isinstance(value, (int, float)):
            continue
        reg.counter(f"{prefix}.machine.{name}").inc(int(value))
    return reg


#: LogTM-SE conflict-check work counters (``LogTMSE.sigcheck``),
#: published as ``perf.sigcheck.*``: checks made, checks the summary
#: signatures cleared without a scan, and per-transaction probes.
SIGCHECK_COUNTERS: Tuple[str, ...] = ("checks", "summary_clears", "probes")


def publish_sigcheck(snapshot: Dict[str, int],
                     registry: Optional[MetricsRegistry] = None
                     ) -> MetricsRegistry:
    """Expose a :class:`~repro.htm.logtm_se.SigCheckStats` snapshot as
    ``perf.sigcheck.*`` counters.

    They describe how the simulator computed, not what the machine
    did, so they stay outside ``RunStats``.  Every counter is registered, at zero when the
    snapshot lacks it, so a run with no LogTM-SE machine (pass ``{}``)
    has the same key set.
    """
    reg = registry if registry is not None else MetricsRegistry()
    for name in SIGCHECK_COUNTERS:
        reg.counter(f"perf.sigcheck.{name}").inc(int(snapshot.get(name, 0)))
    return reg
