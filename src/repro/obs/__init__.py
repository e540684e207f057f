"""Observability subsystem: structured events, metrics, sinks, reports.

The simulator's figures and tables are end-of-run aggregates; this
package exposes *why* those aggregates look the way they do.  It has
four parts:

* :mod:`repro.obs.events` — a typed, timestamped event bus published
  to by every simulator layer (transactions, tokens, conflicts,
  coherence, context switches, paging).  Timestamps are simulated
  cycles; instrumentation never reads wall clocks or RNGs, so traced
  and untraced runs are bit-identical.
* :mod:`repro.obs.metrics` — counters, gauges, and fixed-bucket
  histograms, subsuming :class:`~repro.runtime.stats.RunStats` for
  export.
* :mod:`repro.obs.sinks` — ring buffer (bounded memory, drop
  accounting), JSONL trace writer, and a Chrome ``trace_event``
  exporter whose output loads directly in Perfetto/chrome://tracing.
* :mod:`repro.obs.report` — conflict/abort attribution: per-block
  conflict heatmap, abort-cause breakdown, fast-release funnel.

Tracing is **opt-in and zero-cost when off**: every component holds a
bus reference (default :data:`~repro.obs.events.NULL_BUS`, which is
permanently disabled) and guards each emission with one ``enabled``
check.
"""

from repro.obs.events import (
    NULL_BUS,
    AbortCause,
    Event,
    EventBus,
    EventKind,
    validate_event,
    validate_jsonl,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.report import TraceReport
from repro.obs.sinks import (
    ChromeTraceExporter,
    JsonlSink,
    ListSink,
    RingBufferSink,
)

__all__ = [
    "AbortCause",
    "ChromeTraceExporter",
    "Counter",
    "Event",
    "EventBus",
    "EventKind",
    "Gauge",
    "Histogram",
    "JsonlSink",
    "ListSink",
    "MetricsRegistry",
    "NULL_BUS",
    "RingBufferSink",
    "TraceReport",
    "validate_event",
    "validate_jsonl",
]
