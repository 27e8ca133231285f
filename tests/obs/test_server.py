"""Live telemetry plane: scrape a real server during a real replay.

These tests bind :class:`~repro.obs.server.TelemetryServer` to an
ephemeral port (``port=0``) and exercise every route over actual HTTP,
with the heavyweight case scraping ``/metrics`` *while* a streaming
replay is feeding the capture — the deployment shape behind
``repro stream-localize --serve-metrics``.  ``make telemetry-smoke``
runs this file alone.
"""

import json
import re
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro import obs
from repro.core.config import RAPMinerConfig
from repro.core.delta import DeltaConfig
from repro.core.delta import StreamingRAPMiner
from repro.data.cdn_simulator import CDNSimulator, CDNSimulatorConfig
from repro.data.dataset import FineGrainedDataset
from repro.data.injection import inject_failures, sample_raps
from repro.data.schema import cdn_schema
from repro.obs.server import PROMETHEUS_CONTENT_TYPE, TelemetryServer
from repro.obs.slo import SLOTracker
from repro.service import replay_stream

CONFIG = RAPMinerConfig(enable_attribute_deletion=False)
PINNED = DeltaConfig(crossover=0.5)  # timing-independent path choice

#: A metric sample line: bare name, optional label set, one value.
SAMPLE_RE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*"
    r"(\{[a-zA-Z_][a-zA-Z0-9_]*=\"(?:[^\"\\]|\\.)*\""
    r"(,[a-zA-Z_][a-zA-Z0-9_]*=\"(?:[^\"\\]|\\.)*\")*\})?"
    r" (\+Inf|-Inf|NaN|-?\d+(\.\d+)?([eE][+-]?\d+)?)$"
)


def get(url: str):
    """``(status, content_type, body_bytes)`` — HTTP errors returned, not raised."""
    try:
        with urllib.request.urlopen(url, timeout=10) as response:
            return response.status, response.headers.get("Content-Type"), response.read()
    except urllib.error.HTTPError as err:
        return err.code, err.headers.get("Content-Type"), err.read()


def assert_valid_exposition(text: str) -> dict:
    """Validate Prometheus text 0.0.4 shape; returns ``{family: kind}``."""
    families = {}
    helped = set()
    for line in text.splitlines():
        if not line:
            continue
        if line.startswith("# HELP "):
            name = line.split(" ", 3)[2]
            assert name not in helped, f"duplicate HELP for {name}"
            helped.add(name)
        elif line.startswith("# TYPE "):
            __, ___, name, kind = line.split(" ", 3)
            assert name not in families, f"duplicate TYPE for {name}"
            assert kind in ("counter", "gauge", "histogram")
            families[name] = kind
        else:
            assert SAMPLE_RE.match(line), f"malformed sample line: {line!r}"
            bare = line.split("{", 1)[0].split(" ", 1)[0]
            base = re.sub(r"_(bucket|sum|count)$", "", bare)
            assert bare in families or base in families, (
                f"sample {bare!r} has no preceding # TYPE"
            )
    return families


@pytest.fixture
def incident_ticks():
    """Four ticks of one persisted 2-RAP incident over a *fixed* background.

    Only the forecast lane of the RAP rows is redrawn per tick, so the
    changed-leaf fraction is low and ticks after the first take the
    patched path — the stream shape the delta session is built for.
    """
    sim = CDNSimulator(cdn_schema(6, 3, 3, 5), CDNSimulatorConfig(seed=31))
    rng = np.random.default_rng(31)
    background = sim.snapshot(100).to_dataset()
    raps = sample_raps(background, 2, rng, min_support=6)
    first, __ = inject_failures(background, raps, rng)
    rap_rows = np.flatnonzero(first.labels)
    ticks = [first]
    for __ in range(3):
        f = first.f.copy()
        f[rap_rows] = first.v[rap_rows] / rng.uniform(0.45, 0.65, rap_rows.size)
        ticks.append(
            FineGrainedDataset(first.schema, first.codes, first.v, f, first.labels)
        )
    return ticks


class TestLiveScrape:
    """The acceptance-shaped smoke: scrape a replay while it runs."""

    def test_scrape_during_replay(self, incident_ticks):
        tracker = SLOTracker(windows=(2, 8))
        with obs.capture() as collector:
            with TelemetryServer() as server:
                assert server.running
                assert server.port != 0  # the ephemeral port resolved
                scraped = []

                def spy_slo(outcome, registry=None):
                    SLOTracker.record(tracker, outcome, registry)
                    scraped.append(get(f"{server.url}/metrics"))

                # Scrape after every tick *during* the replay: the spy
                # rides the slo hook, so each scrape sees a mid-replay
                # registry under concurrent mutation.
                tracker_proxy = type("Spy", (), {"record": staticmethod(spy_slo)})()
                replay = replay_stream(
                    incident_ticks,
                    miner=StreamingRAPMiner(CONFIG, delta=PINNED),
                    slo=tracker_proxy,
                )
                assert len(replay.ticks) == len(incident_ticks)
                assert replay.patched_ticks >= 1  # the delta path engaged

                for status, content_type, __ in scraped:
                    assert status == 200
                    assert content_type == PROMETHEUS_CONTENT_TYPE
                final = scraped[-1][2].decode()
                families = assert_valid_exposition(final)
                assert any(f.startswith("delta_") for f in families)
                assert any(f.startswith("slo_") for f in families)
                assert "slo_burn_rate" in families
                assert families["slo_burn_rate"] == "gauge"
                assert "telemetry_requests_total" in families
                # The healthy replay burns no tick_success budget.
                assert 'slo_ticks_total{objective="tick_success",outcome="bad"} 0' in final
            assert not server.running
        assert collector.spans  # the replay traced under the capture

    def test_debug_routes_serve_spans_and_profile(self, incident_ticks):
        with obs.capture():
            with TelemetryServer() as server:
                replay_stream(
                    incident_ticks[:2], miner=StreamingRAPMiner(CONFIG, delta=PINNED)
                )
                status, content_type, body = get(f"{server.url}/debug/spans")
                assert status == 200 and content_type == "application/json"
                spans = json.loads(body)
                assert spans["count"] > 0
                assert spans["total_finished"] >= spans["count"]
                assert spans["ring_capacity"] == 256
                assert {"name", "span_id", "duration_s"} <= set(spans["spans"][0])

                status, __, body = get(f"{server.url}/debug/spans?limit=3")
                assert status == 200
                assert json.loads(body)["count"] == 3

                status, __, body = get(f"{server.url}/debug/profile")
                profile = json.loads(body)
                assert status == 200
                assert profile["source"] == "spans"
                assert profile["families"], "span-family table must be non-empty"
                top = profile["families"][0]
                assert {"name", "count", "self_s", "self_fraction"} <= set(top)

                status, __, body = get(f"{server.url}/debug/profile?top=1")
                assert len(json.loads(body)["families"]) == 1

    def test_candidates_identical_with_and_without_telemetry(self, incident_ticks):
        quiet = replay_stream(
            incident_ticks, miner=StreamingRAPMiner(CONFIG, delta=PINNED)
        )
        with obs.capture():
            with TelemetryServer() as server:
                get(f"{server.url}/metrics")
                loud = replay_stream(
                    incident_ticks,
                    miner=StreamingRAPMiner(CONFIG, delta=PINNED),
                    slo=SLOTracker(windows=(4,)),
                )
        assert [t.patterns for t in loud.ticks] == [t.patterns for t in quiet.ticks]
        assert [t.path for t in loud.ticks] == [t.path for t in quiet.ticks]


class TestRoutes:
    def test_healthz_up_and_vetoed(self):
        with TelemetryServer() as server:
            status, __, body = get(f"{server.url}/healthz")
            payload = json.loads(body)
            assert status == 200
            assert payload["status"] == "ok"
            assert payload["uptime_s"] >= 0.0
        with TelemetryServer(healthy=lambda: False) as server:
            status, __, body = get(f"{server.url}/healthz")
            assert status == 503
            assert json.loads(body)["status"] == "unhealthy"

    def test_healthz_dict_probe_is_echoed(self):
        with TelemetryServer(healthy=lambda: {"queue_depth": 3}) as server:
            status, __, body = get(f"{server.url}/healthz")
            payload = json.loads(body)
            assert status == 200  # a truthy dict is healthy
            assert payload["queue_depth"] == 3

    def test_readyz_defaults_to_collector_presence(self):
        with TelemetryServer() as server:
            status, __, body = get(f"{server.url}/readyz")
            assert status == 503
            assert json.loads(body)["ready"] is False
            with obs.capture():
                status, __, body = get(f"{server.url}/readyz")
                assert status == 200
                assert json.loads(body)["ready"] is True

    def test_readyz_probe_dict_decides_and_is_echoed(self):
        verdict = {"ready": False, "reason": "history 3/10"}
        with TelemetryServer(readiness=lambda: verdict) as server:
            status, __, body = get(f"{server.url}/readyz")
            payload = json.loads(body)
            assert status == 503
            assert payload["ready"] is False
            assert payload["reason"] == "history 3/10"
            verdict["ready"] = True
            status, __, body = get(f"{server.url}/readyz")
            assert status == 200

    def test_metrics_without_collector_is_empty_not_error(self):
        with TelemetryServer() as server:
            status, content_type, body = get(f"{server.url}/metrics")
            assert status == 200
            assert content_type == PROMETHEUS_CONTENT_TYPE
            assert body == b""

    def test_debug_routes_without_collector_are_503(self):
        with TelemetryServer() as server:
            assert get(f"{server.url}/debug/spans")[0] == 503
            assert get(f"{server.url}/debug/profile")[0] == 503

    def test_unknown_route_404_lists_routes(self):
        with TelemetryServer() as server:
            status, __, body = get(f"{server.url}/nope")
            payload = json.loads(body)
            assert status == 404
            assert "/metrics" in payload["routes"]
            assert "/healthz" in payload["routes"]

    def test_requests_counted_per_route_and_status(self):
        with obs.capture() as collector:
            with TelemetryServer() as server:
                get(f"{server.url}/metrics")
                get(f"{server.url}/metrics")
                get(f"{server.url}/nope")
            counters = {
                (m.labels["route"], m.labels["status"]): m.value
                for m in collector.metrics.collect()
                if m.name == "telemetry_requests_total"
            }
        assert counters[("/metrics", "200")] == 2
        assert counters[("/nope", "404")] == 1

    def test_pinned_collector_survives_capture_exit(self):
        with obs.capture() as collector:
            obs.inc("pinned_total")
        with TelemetryServer(collector=collector) as server:
            status, __, body = get(f"{server.url}/metrics")
            assert status == 200
            assert b"pinned_total 1" in body

    def test_profile_source_ring(self):
        with obs.capture():
            with obs.span("outer"):
                with obs.span("inner"):
                    pass
            with TelemetryServer(profile_source="ring") as server:
                __, ___, body = get(f"{server.url}/debug/profile")
                payload = json.loads(body)
        assert payload["source"] == "ring"
        assert {p["name"] for p in payload["families"]} == {"outer", "inner"}

    def test_profile_source_validated(self):
        with pytest.raises(ValueError, match="profile_source"):
            TelemetryServer(profile_source="flamegraph")

    def test_double_start_rejected_and_stop_idempotent(self):
        server = TelemetryServer().start()
        try:
            with pytest.raises(RuntimeError, match="already started"):
                server.start()
        finally:
            server.stop()
        server.stop()  # no-op on a stopped server
        assert not server.running
