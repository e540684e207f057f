"""Metrics registry: counters, gauges, histogram bucketing."""

from __future__ import annotations

import pytest

from repro.common.errors import SimulationError
from repro.obs.metrics import (
    CYCLE_EDGES,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)


class TestCounter:
    def test_inc(self):
        c = Counter("x")
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_rejects_negative(self):
        with pytest.raises(SimulationError):
            Counter("x").inc(-1)


class TestHistogram:
    def test_bucketing_at_edges(self):
        h = Histogram("h", (10, 20, 30))
        # Edges are inclusive upper bounds.
        for value, bucket in ((0, 0), (10, 0), (11, 1), (20, 1),
                              (25, 2), (30, 2)):
            assert h._bucket(value) == bucket, value

    def test_overflow_bucket(self):
        h = Histogram("h", (10, 20))
        h.observe(21)
        h.observe(1_000_000)
        assert h.counts == [0, 0, 2]
        assert h.total == 2

    def test_mean(self):
        h = Histogram("h", CYCLE_EDGES)
        assert h.mean == 0.0
        h.observe(100)
        h.observe(300)
        assert h.mean == 200.0

    def test_edges_must_increase(self):
        with pytest.raises(SimulationError):
            Histogram("h", (10, 10))
        with pytest.raises(SimulationError):
            Histogram("h", ())

    def test_snapshot(self):
        h = Histogram("h", (5,))
        h.observe(3)
        snap = h.snapshot()
        assert snap == {"type": "histogram", "edges": [5],
                        "counts": [1, 0], "count": 1, "sum": 3}


class TestRegistry:
    def test_get_or_create(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")

    def test_type_conflict(self):
        reg = MetricsRegistry()
        reg.counter("a")
        with pytest.raises(SimulationError):
            reg.gauge("a")

    def test_histogram_edges_conflict(self):
        reg = MetricsRegistry()
        reg.histogram("h", (1, 2))
        with pytest.raises(SimulationError):
            reg.histogram("h", (1, 3))

    def test_snapshot_sorted(self):
        reg = MetricsRegistry()
        reg.counter("b").inc()
        reg.gauge("a").set(0.5)
        assert list(reg.snapshot()) == ["a", "b"]
