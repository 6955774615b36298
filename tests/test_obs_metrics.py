"""Tests for the metrics registry (repro.obs.metrics) and RunStats bridge."""

import json

import pytest

from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Histogram,
    MetricsRegistry,
)
from repro.runner.stats import RunStats


class TestPrimitives:
    def test_counter_rejects_negative(self):
        registry = MetricsRegistry()
        registry.inc("c", 2)
        with pytest.raises(ValueError):
            registry.counter("c").inc(-1)
        assert registry.counter("c").value == 2

    def test_gauge_last_write_wins(self):
        registry = MetricsRegistry()
        registry.set_gauge("g", 1.0)
        registry.set_gauge("g", 7.5)
        assert registry.gauge_values() == {"g": 7.5}

    def test_histogram_buckets_are_cumulative(self):
        hist = Histogram("h", buckets=(1.0, 10.0))
        for value in (0.5, 0.7, 5.0, 99.0):
            hist.observe(value)
        assert hist.cumulative() == [
            (1.0, 2), (10.0, 3), (float("inf"), 4)
        ]
        assert hist.count == 4
        assert hist.total == pytest.approx(105.2)
        assert hist.mean == pytest.approx(26.3)

    def test_histogram_boundary_value_lands_in_bucket(self):
        # Prometheus `le` semantics: a value equal to a bound counts
        # toward that bucket.
        hist = Histogram("h", buckets=(1.0,))
        hist.observe(1.0)
        assert hist.cumulative()[0] == (1.0, 1)

    def test_registry_get_or_create_is_stable(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")
        assert registry.histogram("h") is registry.histogram("h")


class TestSnapshot:
    def test_snapshot_is_sorted_and_json_stable(self):
        registry = MetricsRegistry()
        # Insert deliberately out of order.
        registry.inc("z.last")
        registry.inc("a.first")
        registry.observe("m.hist", 3.0)
        registry.set_gauge("k.gauge", 2.0)
        snap = registry.snapshot()
        assert list(snap["counters"]) == ["a.first", "z.last"]
        assert snap["histograms"]["m.hist"]["buckets"][-1][0] == "+Inf"
        # Byte-identical across identical runs.
        other = MetricsRegistry()
        other.inc("z.last")
        other.inc("a.first")
        other.observe("m.hist", 3.0)
        other.set_gauge("k.gauge", 2.0)
        assert json.dumps(snap, sort_keys=True) == json.dumps(
            other.snapshot(), sort_keys=True
        )


class TestDefaultBuckets:
    def test_default_buckets_cover_repair_scales(self):
        assert DEFAULT_BUCKETS[0] <= 0.1
        assert DEFAULT_BUCKETS[-1] >= 1800.0


class TestRunStatsBridge:
    def test_counters_and_timers_views(self):
        stats = RunStats()
        stats.count("z.trials", 2)
        stats.count("a.trials")
        stats.add_time("phase.wall", 1.5)
        stats.add_time("phase.wall", 0.5)
        assert stats.counters == {"a.trials": 1, "z.trials": 2}
        assert stats.timers == {"phase.wall": 2.0}

    def test_as_dict_keys_are_sorted(self):
        stats = RunStats()
        for name in ("zz", "mm", "aa"):
            stats.count(name)
            stats.add_time(name, 1.0)
        doc = stats.as_dict()
        assert list(doc["counters"]) == ["aa", "mm", "zz"]
        assert list(doc["timers"]) == ["aa", "mm", "zz"]

    def test_merge_and_merge_dict(self):
        a, b = RunStats(), RunStats()
        a.count("c")
        b.count("c", 4)
        b.add_time("t", 2.0)
        a.merge_dict(b.as_dict())
        a.merge_dict({"counters": {"c": 5}, "timers": {"t": 1.0}})
        assert a.counters == {"c": 10}
        assert a.timers == {"t": 3.0}

    def test_registry_is_shared_surface(self):
        registry = MetricsRegistry()
        stats = RunStats(registry=registry)
        stats.count("runner.trials", 3)
        assert registry.counter_values()["runner.trials"] == 3
        # The registry snapshot therefore subsumes the legacy dict.
        assert (
            stats.as_dict()["counters"]
            == registry.snapshot()["counters"]
        )
