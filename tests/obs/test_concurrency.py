"""Scrape-under-mutation guarantees: no torn reads, bounded span memory.

The telemetry server reads the registry and the span ring from its own
threads while the engine's fan-out mutates them.  These tests hammer
both sides from real threads and assert the reader-visible invariants:
a histogram never tears (``sum(buckets) == count``), an exposition never
contains a malformed line, and the recent-span ring holds at most its
capacity no matter how many spans finish.
"""

import threading

import pytest

from repro import obs
from repro.obs.export import prometheus_text
from repro.obs.metrics import MetricRegistry
from repro.obs.trace import Collector, SpanRing, Span

N_THREADS = 4
OPS_PER_THREAD = 2_000


def hammer(registry, barrier):
    barrier.wait()
    counter = registry.counter("hits_total", {"path": "warm"})
    histogram = registry.histogram("latency_seconds", buckets=(0.001, 0.01, 0.1))
    gauge = registry.gauge("depth")
    for i in range(OPS_PER_THREAD):
        counter.inc()
        # Stay within the largest bound so every sample lands in a finite
        # bucket and sum(bucket_counts) == count is a readable invariant.
        histogram.observe((i % 90) / 1000.0)
        gauge.set(i)


def run_threads(target, n=N_THREADS, args=()):
    barrier = threading.Barrier(n)
    threads = [
        threading.Thread(target=target, args=(*args, barrier)) for __ in range(n)
    ]
    for t in threads:
        t.start()
    return threads


class TestRegistryUnderMutation:
    def test_prometheus_text_is_wellformed_mid_mutation(self):
        import re

        sample = re.compile(
            r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? (\+Inf|-Inf|NaN|-?[\d.eE+-]+)$"
        )
        registry = MetricRegistry()
        threads = run_threads(hammer, args=(registry,))
        for __ in range(25):
            for line in prometheus_text(registry).splitlines():
                if line and not line.startswith("#"):
                    assert sample.match(line), f"malformed mid-mutation: {line!r}"
        for t in threads:
            t.join()
        # The final scrape's histogram rows are internally consistent.
        text = prometheus_text(registry)
        count = int(text.split("latency_seconds_count ", 1)[1].splitlines()[0])
        inf_bucket = int(
            text.split('latency_seconds_bucket{le="+Inf"} ', 1)[1].splitlines()[0]
        )
        assert count == inf_bucket == N_THREADS * OPS_PER_THREAD


class TestSpanRingBounds:
    def test_memory_stays_bounded_at_capacity(self):
        ring = SpanRing(capacity=8)
        for i in range(1000):
            ring.append(
                Span(f"s{i}", span_id=i, parent_id=None, start_unix=0.0, start=0.0)
            )
        assert len(ring) == 8
        assert ring.total_appended == 1000
        assert len(ring._slots) == 8  # the backing store itself never grows
        names = [s.name for s in ring.snapshot()]
        assert names == [f"s{i}" for i in range(992, 1000)]  # newest, oldest first

    def test_limit_returns_newest(self):
        ring = SpanRing(capacity=8)
        for i in range(10):
            ring.append(Span(f"s{i}", i, None, 0.0, 0.0))
        assert [s.name for s in ring.snapshot(limit=3)] == ["s7", "s8", "s9"]
        assert [s.name for s in ring.snapshot(limit=99)] == [
            f"s{i}" for i in range(2, 10)
        ]

    def test_partial_fill_snapshots_in_order(self):
        ring = SpanRing(capacity=8)
        for i in range(3):
            ring.append(Span(f"s{i}", i, None, 0.0, 0.0))
        assert len(ring) == 3
        assert [s.name for s in ring.snapshot()] == ["s0", "s1", "s2"]

    def test_capacity_validated(self):
        with pytest.raises(ValueError, match="capacity"):
            SpanRing(capacity=0)

    def test_concurrent_appends_never_exceed_capacity(self):
        ring = SpanRing(capacity=16)

        def producer(ring, barrier):
            barrier.wait()
            for i in range(OPS_PER_THREAD):
                ring.append(Span("s", i, None, 0.0, 0.0))

        threads = run_threads(producer, args=(ring,))
        sizes = [len(ring.snapshot()) for __ in range(100)]
        for t in threads:
            t.join()
        assert max(sizes) <= 16
        assert len(ring) == 16
        assert ring.total_appended == N_THREADS * OPS_PER_THREAD

    def test_collector_feeds_ring_and_spans_list(self):
        with obs.capture() as collector:
            for __ in range(5):
                with obs.span("tick"):
                    pass
        assert len(collector.spans) == 5
        assert len(collector.recent) == 5
        assert collector.recent.total_appended == 5

    def test_collector_ring_capacity_configurable(self):
        collector = Collector(ring_capacity=2)
        previous = obs.install(collector)
        try:
            for i in range(4):
                with obs.span(f"s{i}"):
                    pass
        finally:
            obs.uninstall(previous)
        assert len(collector.spans) == 4  # the full record is untouched
        assert [s.name for s in collector.recent.snapshot()] == ["s2", "s3"]
