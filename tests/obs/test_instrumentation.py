"""Integration: the instrumented mining path under a capture.

The cardinal rule of the telemetry subsystem is that observation never
changes the observed computation — candidates, stats and rankings must be
bit-identical with tracing on and off — and that an instrumented run
actually records the spans and counters the docs promise.
"""

import os
import sys
from pathlib import Path

import pytest

import repro.core.engine as engine_module
from repro import obs
from repro.core.classification_power import delete_redundant_attributes
from repro.core.delta import StreamingRAPMiner
from repro.core.miner import RAPMiner
from repro.core.search import layerwise_topdown_search
from repro.obs import report as obs_report
from repro.obs.metrics import MetricRegistry


@pytest.fixture
def indices(example_dataset):
    return list(range(example_dataset.schema.n_attributes))


class TestSearchUnchangedByTracing:
    def test_candidates_bit_identical_on_vs_off(self, example_dataset, indices):
        baseline = layerwise_topdown_search(example_dataset, indices, t_conf=0.8)
        with obs.capture():
            traced = layerwise_topdown_search(example_dataset, indices, t_conf=0.8)
        after = layerwise_topdown_search(example_dataset, indices, t_conf=0.8)

        assert traced.candidates == baseline.candidates
        assert traced.stats == baseline.stats
        assert after.candidates == baseline.candidates
        assert after.stats == baseline.stats

    def test_miner_result_bit_identical_on_vs_off(self, example_dataset):
        miner = RAPMiner()
        baseline = miner.run(example_dataset)
        with obs.capture():
            traced = miner.run(example_dataset)
        assert traced.candidates == baseline.candidates
        assert traced.stats == baseline.stats


class TestSearchSpans:
    def test_run_and_layer_spans_with_attributes(self, example_dataset, indices):
        with obs.capture() as collector:
            outcome = layerwise_topdown_search(example_dataset, indices, t_conf=0.8)

        runs = collector.find_spans("search.run")
        assert len(runs) == 1
        run = runs[0]
        assert run.attributes["n_attributes"] == len(indices)
        assert run.attributes["n_candidates"] == len(outcome.candidates)
        assert run.attributes["n_cuboids"] == outcome.stats.n_cuboids_visited
        assert run.attributes["stop_reason"] in {
            "coverage_early_stop",
            "lattice_exhausted",
            "max_layer_reached",
        }
        assert run.attributes["coverage_fraction"] == pytest.approx(1.0)

        layers = collector.find_spans("search.layer")
        assert len(layers) == outcome.stats.deepest_layer_visited
        assert all(layer.parent_id == run.span_id for layer in layers)
        totals = sum(layer.attributes["n_cuboids"] for layer in layers)
        assert totals == outcome.stats.n_cuboids_visited
        assert sum(l.attributes["n_candidates"] for l in layers) == len(
            outcome.candidates
        )

    def test_search_counters_match_stats(self, example_dataset, indices):
        with obs.capture() as collector:
            outcome = layerwise_topdown_search(example_dataset, indices, t_conf=0.8)
        metrics = collector.metrics
        assert metrics.value("search_cuboids_total") == outcome.stats.n_cuboids_visited
        assert (
            metrics.value("search_combinations_total")
            == outcome.stats.n_combinations_evaluated
        )
        assert metrics.value("search_candidates_total") == len(outcome.candidates)
        if outcome.stats.early_stopped:
            assert metrics.value("search_early_stops_total") == 1.0

    def test_no_anomalous_leaves_short_circuits(self, example_dataset, indices):
        quiet = example_dataset.with_labels(example_dataset.labels * False)
        with obs.capture() as collector:
            outcome = layerwise_topdown_search(quiet, indices, t_conf=0.8)
        assert outcome.candidates == []
        run = collector.find_spans("search.run")[0]
        assert run.attributes["stop_reason"] == "no_anomalous_leaves"


class TestStageSpans:
    def test_cp_span_records_decisions(self, example_dataset):
        with obs.capture() as collector:
            result = delete_redundant_attributes(example_dataset, t_cp=0.005)
        span = collector.find_spans("cp.attribute_deletion")[0]
        assert span.attributes["kept"] == list(result.kept_names(example_dataset))
        kept = collector.metrics.value("cp_attributes_total", {"decision": "kept"})
        deleted = collector.metrics.value("cp_attributes_total", {"decision": "deleted"})
        assert kept == len(result.kept_indices)
        assert deleted == len(result.deleted_indices)

    def test_miner_span_nests_stages(self, example_dataset):
        with obs.capture() as collector:
            result = RAPMiner().run(example_dataset)
        miner_span = collector.find_spans("miner.run")[0]
        assert miner_span.attributes["outcome"] == "localized"
        assert miner_span.attributes["n_candidates"] == len(result.candidates)
        children = {s.name for s in collector.children_of(miner_span)}
        assert "cp.attribute_deletion" in children
        assert "search.run" in children
        assert collector.metrics.value("miner_runs_total") == 1.0

    def test_incremental_counters_by_path(self, example_dataset):
        miner = StreamingRAPMiner()
        with obs.capture() as collector:
            first = miner.run(example_dataset)
            second = miner.run(example_dataset)
        assert second.candidates == first.candidates
        metrics = collector.metrics
        assert metrics.family_total("delta_ticks_total") == 2.0
        assert (
            metrics.value("delta_ticks_total", {"path": "cold", "reason": "first_tick"})
            == 1.0
        )
        assert metrics.value("delta_ticks_total", {"path": "patched", "reason": "none"}) == 1.0
        spans = collector.find_spans("streaming.run")
        assert [span.attributes["path"] for span in spans] == ["cold", "patched"]


def _caller_file():
    """File of the innermost frame outside ``repro/obs`` and this module."""
    obs_dir = os.path.dirname(obs.__file__) + os.sep
    frame = sys._getframe(1)
    while frame is not None and (
        frame.f_code.co_filename.startswith(obs_dir)
        or frame.f_code.co_filename == __file__
    ):
        frame = frame.f_back
    return frame.f_code.co_filename if frame is not None else None


class TestEngineTallies:
    """The engine reports per-event work as span attributes, not metrics."""

    def test_warm_run_makes_no_registry_call_from_the_engine(
        self, example_dataset, monkeypatch
    ):
        miner = RAPMiner()
        baseline = miner.run(example_dataset)  # builds the engine's caches
        callers = []

        def recording(real):
            def wrapper(*args, **kwargs):
                callers.append(_caller_file())
                return real(*args, **kwargs)

            return wrapper

        for name in ("inc", "set_gauge", "observe"):
            monkeypatch.setattr(obs, name, recording(getattr(obs, name)))
        for name in ("counter", "gauge", "histogram", "_get_or_create"):
            monkeypatch.setattr(
                MetricRegistry, name, recording(getattr(MetricRegistry, name))
            )
        with obs.capture(ring_only=True) as collector:
            warm = miner.run(example_dataset)
        assert warm.candidates == baseline.candidates
        assert callers, "the miner's own counters should still reach the registry"
        assert engine_module.__file__ not in callers
        (run,) = [s for s in collector.snapshot_spans() if s.name == "miner.run"]
        assert run.attributes["engine_aggregate_cache_hit"] > 0
        assert "engine_aggregate_cold" not in run.attributes

    def test_engine_module_bumps_no_counters(self):
        source = Path(engine_module.__file__).read_text()
        assert "obs.inc(" not in source
        assert "from .. import obs" not in source

    def test_nested_run_spans_add_up(self, example_dataset):
        with obs.capture() as collector:
            RAPMiner().run(example_dataset)
        (run,) = collector.find_spans("miner.run")
        (search,) = collector.find_spans("search.run")
        engine_keys = [k for k in search.attributes if k.startswith("engine_")]
        assert engine_keys, "a cold search aggregates through the engine"
        for key in engine_keys:
            assert run.attributes[key] >= search.attributes[key]
        assert run.attributes.get("engine_bincount_batched", 0) >= 1

    def test_tallies_outside_a_tallying_span_are_dropped(self):
        with obs.capture() as collector:
            with obs.span("outer") as outer:
                obs.trace.tally("engine_aggregate_cold")
        assert "engine_aggregate_cold" not in outer.attributes
        assert [s.name for s in collector.spans] == ["outer"]


class TestReportRendering:
    def test_render_summary_lists_spans_and_metrics(self, example_dataset):
        with obs.capture() as collector:
            RAPMiner().run(example_dataset)
        text = obs_report.render_summary(collector)
        assert "spans:" in text
        assert "miner.run" in text
        assert "search.run" in text
        assert "metrics:" in text
        assert "miner_runs_total" in text

    def test_span_accumulators_group_by_name(self, example_dataset, indices):
        with obs.capture() as collector:
            layerwise_topdown_search(example_dataset, indices, t_conf=0.8)
            layerwise_topdown_search(example_dataset, indices, t_conf=0.8)
        accumulators = obs_report.span_accumulators(collector)
        assert accumulators["search.run"].n == 2
        assert accumulators["search.run"].percentile(50) >= 0.0

    def test_empty_capture_renders_placeholder(self):
        with obs.capture() as collector:
            pass
        assert "empty capture" in obs_report.render_summary(collector)
