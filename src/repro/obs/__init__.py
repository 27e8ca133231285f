"""Zero-dependency observability for the mining hot path.

``repro.obs`` is the subsystem the efficiency story runs on: structured
spans (:mod:`~repro.obs.trace`), a counter/gauge/histogram registry
(:mod:`~repro.obs.metrics`), Prometheus-text and JSONL exposition
(:mod:`~repro.obs.export`) and human-readable run summaries / incident
audit trails (:mod:`~repro.obs.report`), a live HTTP telemetry plane
(:mod:`~repro.obs.server`), declarative SLO burn-rate tracking
(:mod:`~repro.obs.slo`) and a span-family self-time profiler
(:mod:`~repro.obs.profile`).  ``report``, ``server``, ``slo`` and
``profile`` are imported explicitly — they are kept off the eager
surface so the hot path never pays for ``http.server``.

The contract with instrumented code: **off means free**.  With no
collector installed, :func:`~repro.obs.trace.span` yields a shared no-op
span and hot loops skip their counter bumps behind the single
module-level flag :data:`trace.ACTIVE`, so production runs without a
capture pay only a boolean check.  Everything activates together under
:func:`capture`::

    from repro import obs

    with obs.capture(trace_path="run.jsonl") as collector:
        miner.run(labelled)
    print(obs.prometheus_text(collector.metrics))

See ``docs/observability.md`` for the span taxonomy and metric catalogue.
"""

from __future__ import annotations

from typing import Optional, Union

from . import trace
from .export import prometheus_text, read_jsonl, to_jsonl_lines, write_jsonl
from .metrics import METRIC_HELP, Counter, Gauge, Histogram, MetricRegistry
from .trace import (
    NULL_SPAN,
    Collector,
    NullSpan,
    Span,
    SpanRing,
    active_collector,
    capture,
    current_span,
    install,
    is_active,
    span,
    uninstall,
)

__all__ = [
    "trace",
    "Span",
    "NullSpan",
    "NULL_SPAN",
    "SpanRing",
    "Collector",
    "MetricRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "METRIC_HELP",
    "capture",
    "span",
    "current_span",
    "is_active",
    "active_collector",
    "install",
    "uninstall",
    "inc",
    "observe",
    "set_gauge",
    "prometheus_text",
    "to_jsonl_lines",
    "write_jsonl",
    "read_jsonl",
]


def inc(name: str, value: Union[int, float] = 1, **labels: str) -> None:
    """Bump a counter on the active collector; no-op when tracing is off.

    Hot loops should guard with ``if obs.trace.ACTIVE:`` to skip even the
    call, and per-event counts belong in :func:`trace.tally` instead;
    cooler paths can call unconditionally.
    """
    collector = trace._collector
    if collector is not None:
        collector.metrics.counter(name, labels).inc(value)


def set_gauge(name: str, value: Union[int, float], **labels: str) -> None:
    """Set a gauge on the active collector; no-op when tracing is off."""
    collector = trace._collector
    if collector is not None:
        collector.metrics.gauge(name, labels).set(value)


def observe(name: str, value: Union[int, float], **labels: str) -> None:
    """Record a histogram sample on the active collector; no-op when off."""
    collector = trace._collector
    if collector is not None:
        collector.metrics.histogram(name, labels).observe(value)
