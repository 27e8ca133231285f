"""Tests for the counter/gauge/histogram registry."""

import pytest

from repro import obs
from repro.obs.metrics import DEFAULT_BUCKETS, METRIC_HELP, Histogram, MetricRegistry


class TestCounter:
    def test_get_or_create_returns_same_series(self):
        registry = MetricRegistry()
        a = registry.counter("requests_total", {"path": "hit"})
        b = registry.counter("requests_total", {"path": "hit"})
        assert a is b
        a.inc()
        b.inc(2)
        assert a.value == 3.0

    def test_labels_distinguish_series(self):
        registry = MetricRegistry()
        registry.counter("requests_total", {"path": "hit"}).inc(5)
        registry.counter("requests_total", {"path": "miss"}).inc(1)
        assert registry.value("requests_total", {"path": "hit"}) == 5.0
        assert registry.value("requests_total", {"path": "miss"}) == 1.0
        assert registry.family_total("requests_total") == 6.0

    def test_counter_rejects_negative_increment(self):
        with pytest.raises(ValueError):
            MetricRegistry().counter("ups_total").inc(-1)

    def test_catalogue_fills_help_text(self):
        registry = MetricRegistry()
        counter = registry.counter("delta_ticks_total")
        assert counter.help == METRIC_HELP["delta_ticks_total"]


class TestGauge:
    def test_set_and_inc(self):
        gauge = MetricRegistry().gauge("depth")
        gauge.set(4)
        gauge.inc(-1)
        assert gauge.value == 3.0


class TestHistogram:
    def test_observe_fills_cumulative_buckets(self):
        histogram = Histogram("latency", None, "", buckets=(0.1, 1.0))
        for value in (0.05, 0.5, 5.0):
            histogram.observe(value)
        assert histogram.count == 3
        assert histogram.sum == pytest.approx(5.55)
        assert histogram.cumulative_buckets() == [(0.1, 1), (1.0, 2)]

    def test_default_buckets_are_ascending(self):
        assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)

    def test_rejects_empty_buckets(self):
        with pytest.raises(ValueError):
            Histogram("empty", None, "", buckets=())


class TestRegistry:
    def test_type_mismatch_raises(self):
        registry = MetricRegistry()
        registry.counter("thing_total")
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("thing_total", {"other": "labels"})

    def test_value_on_histogram_raises(self):
        registry = MetricRegistry()
        registry.histogram("latency").observe(0.2)
        with pytest.raises(TypeError):
            registry.value("latency")

    def test_value_of_unregistered_series_is_zero(self):
        assert MetricRegistry().value("never_touched_total") == 0.0

    def test_as_flat_dict_renders_labels(self):
        registry = MetricRegistry()
        registry.counter("hits_total", {"path": "warm"}).inc(2)
        registry.gauge("depth").set(1.5)
        assert registry.as_flat_dict() == {
            'hits_total{path="warm"}': 2.0,
            "depth": 1.5,
        }

    def test_collect_groups_families_adjacently(self):
        registry = MetricRegistry()
        registry.counter("b_total", {"x": "1"})
        registry.counter("a_total")
        registry.counter("b_total", {"x": "2"})
        assert [m.name for m in registry.collect()] == ["a_total", "b_total", "b_total"]


class TestRunIsolation:
    def test_consecutive_captures_start_from_zero(self):
        with obs.capture() as first:
            obs.inc("miner_runs_total")
            obs.inc("miner_runs_total")
        with obs.capture() as second:
            obs.inc("miner_runs_total")
        assert first.metrics.value("miner_runs_total") == 2.0
        assert second.metrics.value("miner_runs_total") == 1.0

    def test_nested_capture_does_not_leak_into_outer(self):
        with obs.capture() as outer:
            obs.inc("service_intervals_total")
            with obs.capture() as inner:
                obs.inc("service_intervals_total", 5)
            obs.inc("service_intervals_total")
        assert outer.metrics.value("service_intervals_total") == 2.0
        assert inner.metrics.value("service_intervals_total") == 5.0


class TestFamilyHelp:
    def test_first_registration_pins_family_help(self):
        registry = MetricRegistry()
        registry.counter("thing_total", {"a": "1"}, help_text="first")
        second = registry.counter("thing_total", {"a": "2"}, help_text="second")
        assert second.help == "first"

    def test_catalogue_fills_family_help_for_later_series(self):
        registry = MetricRegistry()
        registry.counter("delta_ticks_total", {"path": "cold"})
        later = registry.counter("delta_ticks_total", {"path": "patched"})
        assert later.help == METRIC_HELP["delta_ticks_total"]
