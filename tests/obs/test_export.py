"""Tests for Prometheus-text and JSONL exposition."""

import math

import pytest

from repro import obs
from repro.obs.export import (
    escape_help,
    escape_label_value,
    prometheus_text,
    read_jsonl,
    to_jsonl_lines,
)
from repro.obs.metrics import MetricRegistry


def unescape_label_value(value: str) -> str:
    """Inverse of ``escape_label_value``, as a Prometheus parser applies it."""
    out, i = [], 0
    while i < len(value):
        if value[i] == "\\" and i + 1 < len(value):
            out.append({"n": "\n", '"': '"', "\\": "\\"}[value[i + 1]])
            i += 2
        else:
            out.append(value[i])
            i += 1
    return "".join(out)


class TestEscaping:
    def test_label_value_escapes_backslash_quote_newline(self):
        assert escape_label_value('a\\b"c\nd') == 'a\\\\b\\"c\\nd'

    def test_help_escapes_backslash_and_newline_only(self):
        assert escape_help('say "hi"\\\n') == 'say "hi"\\\\\\n'

    def test_escaped_label_round_trips_through_exposition(self):
        registry = MetricRegistry()
        registry.counter("odd_total", {"key": 'value with "quotes"\nand newline'}).inc()
        text = prometheus_text(registry)
        assert 'key="value with \\"quotes\\"\\nand newline"' in text
        assert "\nand newline" not in text.split("# TYPE")[1].splitlines()[1]

    @pytest.mark.parametrize(
        "raw",
        [
            'value with "quotes"',
            "trailing backslash\\",
            "\\n literal, then\nreal newline",
            '\\"already escaped-looking\\"',
            "\\\\double\\\\",
            "",
        ],
    )
    def test_escape_unescape_round_trip(self, raw):
        assert unescape_label_value(escape_label_value(raw)) == raw

    def test_adversarial_label_stays_on_one_sample_line(self):
        # A newline that escaped escaping would split the sample in two
        # and corrupt every series below it — the classic exposition bug.
        registry = MetricRegistry()
        registry.counter("odd_total", {"key": 'a\n# TYPE fake counter\nb"'}).inc()
        sample_lines = [
            line
            for line in prometheus_text(registry).splitlines()
            if not line.startswith("#")
        ]
        assert len(sample_lines) == 1
        name, quoted = sample_lines[0].split("{key=", 1)
        assert name == "odd_total"
        assert unescape_label_value(quoted[1 : quoted.rindex('"')]) == (
            'a\n# TYPE fake counter\nb"'
        )


class TestPrometheusText:
    def test_family_headers_render_once(self):
        registry = MetricRegistry()
        registry.counter("engine_aggregate_total", {"path": "cache_hit"}).inc(3)
        registry.counter("engine_aggregate_total", {"path": "cold"}).inc(1)
        text = prometheus_text(registry)
        assert text.count("# HELP engine_aggregate_total") == 1
        assert text.count("# TYPE engine_aggregate_total counter") == 1
        assert 'engine_aggregate_total{path="cache_hit"} 3' in text
        assert 'engine_aggregate_total{path="cold"} 1' in text
        assert text.endswith("\n")

    def test_gauge_and_float_rendering(self):
        registry = MetricRegistry()
        registry.gauge("coverage").set(0.5)
        text = prometheus_text(registry)
        assert "# TYPE coverage gauge" in text
        assert "coverage 0.5" in text

    def test_histogram_expands_to_bucket_sum_count(self):
        registry = MetricRegistry()
        histogram = registry.histogram("latency_seconds", buckets=(0.1, 1.0))
        histogram.observe(0.05)
        histogram.observe(10.0)
        text = prometheus_text(registry)
        assert 'latency_seconds_bucket{le="0.1"} 1' in text
        assert 'latency_seconds_bucket{le="1"} 1' in text
        assert 'latency_seconds_bucket{le="+Inf"} 2' in text
        assert "latency_seconds_sum 10.05" in text
        assert "latency_seconds_count 2" in text

    def test_defaults_to_active_collector(self):
        assert prometheus_text() == ""
        with obs.capture():
            obs.inc("miner_runs_total")
            assert "miner_runs_total 1" in prometheus_text()

    def test_non_finite_gauges_render_prometheus_spellings(self):
        # json.dumps would emit Infinity/NaN (invalid); the text format
        # has its own spellings and a scraper rejects anything else.
        registry = MetricRegistry()
        registry.gauge("hot", {"sign": "pos"}).set(math.inf)
        registry.gauge("hot", {"sign": "neg"}).set(-math.inf)
        registry.gauge("hot", {"sign": "nan"}).set(math.nan)
        text = prometheus_text(registry)
        assert 'hot{sign="pos"} +Inf' in text
        assert 'hot{sign="neg"} -Inf' in text
        assert 'hot{sign="nan"} NaN' in text
        assert "Infinity" not in text
        assert "inf" not in text.replace("+Inf", "").replace("-Inf", "")

    def test_non_finite_histogram_sum_renders(self):
        registry = MetricRegistry()
        histogram = registry.histogram("weird", buckets=(1.0,))
        histogram.observe(math.inf)
        text = prometheus_text(registry)
        assert "weird_sum +Inf" in text
        assert 'weird_bucket{le="+Inf"} 1' in text

    def test_every_catalogued_metric_renders(self):
        # The acceptance bar: after an instrumented run, prometheus_text()
        # renders every registered metric with its catalogue help line.
        registry = MetricRegistry()
        for name in obs.METRIC_HELP:
            registry.counter(name).inc()
        text = prometheus_text(registry)
        for name, help_text in obs.METRIC_HELP.items():
            assert f"# HELP {name} {escape_help(help_text)}" in text
            assert f"\n{name} 1" in "\n" + text


class TestJsonl:
    def test_round_trip_preserves_spans_and_metrics(self, tmp_path):
        with obs.capture() as collector:
            with obs.span("outer", layer=1):
                with obs.span("inner", ratio=0.25, names=("a", "b")):
                    pass
            obs.inc("miner_runs_total")
            obs.set_gauge("depth", 2)
            obs.observe("latency", 0.42)
        path = tmp_path / "trace.jsonl"
        obs.write_jsonl(collector, str(path))
        records = read_jsonl(str(path))

        meta = records[0]
        assert meta["type"] == "meta"
        assert meta["n_spans"] == 2
        spans = {r["name"]: r for r in records if r["type"] == "span"}
        assert spans["inner"]["parent_id"] == spans["outer"]["span_id"]
        assert spans["inner"]["attributes"] == {"ratio": 0.25, "names": ["a", "b"]}
        counters = {r["name"]: r for r in records if r["type"] == "counter"}
        assert counters["miner_runs_total"]["value"] == 1.0
        gauges = {r["name"]: r for r in records if r["type"] == "gauge"}
        assert gauges["depth"]["value"] == 2.0
        histograms = {r["name"]: r for r in records if r["type"] == "histogram"}
        assert histograms["latency"]["count"] == 1

    def test_non_finite_and_exotic_attributes_serialize(self):
        with obs.capture() as collector:
            with obs.span("odd", infinite=math.inf, obj=object()):
                pass
        lines = list(to_jsonl_lines(collector))
        assert len(lines) == 2  # meta + one span, all JSON-parseable
        import json

        span = json.loads(lines[1])
        assert span["attributes"]["infinite"] == "inf"
        assert isinstance(span["attributes"]["obj"], str)


class TestReadJsonlTruncation:
    """A crash mid-write leaves a half line: recoverable, not corrupt."""

    def write_trace(self, tmp_path):
        with obs.capture() as collector:
            with obs.span("outer"):
                pass
            obs.inc("miner_runs_total")
        path = tmp_path / "trace.jsonl"
        obs.write_jsonl(collector, str(path))
        return path

    def test_truncated_final_line_warns_and_keeps_prefix(self, tmp_path):
        path = self.write_trace(tmp_path)
        full = read_jsonl(str(path))
        text = path.read_text()
        path.write_text(text[: len(text) - len('runs_total", "labels')])
        with pytest.warns(RuntimeWarning, match="truncated final line"):
            truncated = read_jsonl(str(path))
        assert truncated == full[:-1]  # everything but the cut record

    def test_warning_reports_line_number_and_kept_count(self, tmp_path):
        path = self.write_trace(tmp_path)
        n_lines = len(path.read_text().splitlines())
        path.write_text(path.read_text()[:-3])
        with pytest.warns(RuntimeWarning, match=rf"line {n_lines} .kept {n_lines - 1}"):
            read_jsonl(str(path))

    def test_truncated_line_with_trailing_blanks_still_recovers(self, tmp_path):
        path = self.write_trace(tmp_path)
        path.write_text(path.read_text()[:-3] + "\n\n  \n")
        with pytest.warns(RuntimeWarning, match="truncated final line"):
            records = read_jsonl(str(path))
        assert len(records) >= 1

    def test_mid_file_corruption_still_raises(self, tmp_path):
        import json

        path = self.write_trace(tmp_path)
        lines = path.read_text().splitlines()
        lines[0] = lines[0][:-5]  # damage a line that is *not* the tail
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(json.JSONDecodeError):
            read_jsonl(str(path))

    def test_clean_file_emits_no_warning(self, tmp_path):
        import warnings

        path = self.write_trace(tmp_path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            records = read_jsonl(str(path))
        assert records[0]["type"] == "meta"
