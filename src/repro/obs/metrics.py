"""Counters, gauges and histograms in a per-run registry.

Metrics follow Prometheus conventions: ``*_total`` counters only go up,
gauges hold a last-written value, histograms record cumulative bucket
counts plus a running sum.  A metric is identified by its name *and* its
fixed label set — ``engine_aggregate_total{path="cache_hit"}`` and
``engine_aggregate_total{path="cold"}`` are two series of one family.

Every :class:`~repro.obs.trace.Collector` owns its own
:class:`MetricRegistry`, so runs captured back to back never bleed counts
into each other.  All mutation is lock-protected: fleet worker
threads and the serving event loop bump counters concurrently.

``METRIC_HELP`` is the subsystem's metric catalogue — instrumentation
sites register metrics by name only and the registry fills in the help
text, keeping the catalogue reviewable in one place (and rendering it
into ``docs/observability.md``).
"""

from __future__ import annotations

import bisect
import threading
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricRegistry",
    "METRIC_HELP",
    "DEFAULT_BUCKETS",
]

#: Catalogue of every metric the instrumentation emits (name -> help text).
METRIC_HELP: Dict[str, str] = {
    # -- aggregation engine ------------------------------------------------
    "engine_aggregate_total": "Cuboid aggregate requests by resolution path",
    "engine_bincount_passes_total": "np.bincount passes executed by the engine",
    "engine_batch_cuboids_total": "Cuboids aggregated through batched fused passes",
    "engine_layer_scan_memo_hits_total": "layer_scan results replayed from the (layer, t_conf) memo",
    "engine_warm_clones_total": "Engines warm-cloned across intervals",
    # -- two-stage miner ---------------------------------------------------
    "cp_attributes_total": "Algorithm 1 attribute decisions (kept vs deleted)",
    "search_cuboids_total": "Cuboids evaluated by Algorithm 2",
    "search_combinations_total": "Attribute combinations evaluated by Algorithm 2",
    "search_candidates_total": "RAP candidates accepted by Algorithm 2",
    "search_criteria3_pruned_total": "Combinations pruned as descendants of a candidate",
    "search_early_stops_total": "Searches ended by the coverage early stop",
    "miner_runs_total": "RAPMiner.run invocations",
    # -- case-stacked batch kernel -----------------------------------------
    "stacked_layers_fused_total": "BFS layers aggregated once for a whole case batch",
    "stacked_groups_total": "Shared-layout groups formed by run_batch",
    "stacked_batch_cases_total": "Cases localized through RAPMiner.run_batch",
    # -- streaming delta sessions ------------------------------------------
    "delta_ticks_total": "Delta-session ticks by path (patched vs cold) and fallback reason",
    # -- localization service ----------------------------------------------
    "service_intervals_total": "Collection intervals observed by the service",
    "service_incidents_total": "Intervals that raised an incident report",
    # -- SLO tracking ------------------------------------------------------
    "slo_objective_target": "Configured good-tick target fraction of the objective",
    "slo_ticks_total": "Ticks classified against an SLO objective by outcome",
    "slo_good_fraction": "Good-tick fraction of the objective's sliding window",
    "slo_burn_rate": "Error-budget burn rate of the objective's sliding window",
    "slo_error_budget_remaining": "Unspent error-budget fraction of the window (negative = overspent)",
    # -- telemetry plane ---------------------------------------------------
    "telemetry_requests_total": "Telemetry-plane HTTP requests by route and status",
    # -- resilience --------------------------------------------------------
    "resilience_deadline_exceeded_total": "Searches ended by deadline-budget expiry by path",
    "resilience_degrade_total": "Degradation-ladder decisions by tier and reason",
    "resilience_retry_total": "Retried stage calls after a transient failure",
    "resilience_stage_failures_total": "Stage calls that exhausted retries (or hit an open breaker)",
    "resilience_breaker_transitions_total": "Circuit-breaker state transitions by breaker and state",
    "resilience_breaker_state": "Circuit-breaker state as a gauge (0 closed, 1 half-open, 2 open)",
    "resilience_degradation_tier": "Latest degradation-ladder rung as a gauge (index into TIERS)",
    "resilience_fallback_total": "Pipeline stages served by their degraded fallback",
    "resilience_malformed_inputs_total": "Sanitized inputs by kind (nan lanes, wrong length, bad forecast)",
    "resilience_stop_reason_total": "Incident reports by search stop reason and degradation tier",
    # -- serving fleet -----------------------------------------------------
    "fleet_cases_total": "Cases submitted to the fleet supervisor",
    "fleet_queue_depth": "Queued cases per layout FIFO (gauge, labelled by layout)",
    "fleet_engine_builds_total": "Worker engine builds by outcome (patched, warm, cold, warmstart)",
    "fleet_warm_starts_total": "Tenants primed from the store after a restart",
    "fleet_crashes_total": "Worker runs ended by an escaping exception",
    "fleet_requeues_total": "Crashed cases requeued once onto their layout FIFO",
    "fleet_errors_total": "Cases degraded to error records by the fleet crash protocol",
    "fleet_store_records_total": "Records appended to the fleet segment log by kind",
    "fleet_store_bytes_total": "Bytes appended to the fleet segment log",
    "fleet_store_recovered_total": "Torn trailing records dropped when opening a segment log",
    # -- serving front door ------------------------------------------------
    "serving_requests_total": "Localization requests by protocol and outcome",
    "serving_request_seconds": "End-to-end request latency from admission to response (histogram)",
    "serving_queue_depth": "Admitted-but-unfinished requests held by the server (gauge)",
    "serving_admitted_total": "Requests admitted by service tier (full vs degraded)",
    "serving_shed_total": "Requests shed by the admission controller by reason",
    "serving_tenant_inflight": "In-flight admitted requests per tenant (gauge)",
    "serving_malformed_total": "Malformed requests rejected with a typed error by code",
    "serving_deadline_stops_total": "Requests whose search ended on the per-request deadline",
}

#: Default histogram bucket upper bounds (seconds; tuned for span durations).
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.0001,
    0.0005,
    0.001,
    0.005,
    0.01,
    0.05,
    0.1,
    0.5,
    1.0,
    5.0,
)

Labels = Mapping[str, str]
_Key = Tuple[str, Tuple[Tuple[str, str], ...]]


def _label_key(labels: Optional[Labels]) -> Tuple[Tuple[str, str], ...]:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class _Metric:
    """Shared identity: name, fixed labels, help text, and a lock."""

    kind = "untyped"

    def __init__(self, name: str, labels: Optional[Labels], help_text: str):
        self.name = name
        self.labels: Dict[str, str] = dict(_label_key(labels))
        self.help = help_text
        self._lock = threading.Lock()


class Counter(_Metric):
    """Monotonically increasing count."""

    kind = "counter"

    def __init__(self, name: str, labels: Optional[Labels], help_text: str):
        super().__init__(name, labels, help_text)
        self._value = 0.0

    def inc(self, value: Union[int, float] = 1) -> None:
        if value < 0:
            raise ValueError("counters can only increase")
        with self._lock:
            self._value += value

    @property
    def value(self) -> float:
        return self._value


class Gauge(_Metric):
    """Last-written value (may move in either direction)."""

    kind = "gauge"

    def __init__(self, name: str, labels: Optional[Labels], help_text: str):
        super().__init__(name, labels, help_text)
        self._value = 0.0

    def set(self, value: Union[int, float]) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, value: Union[int, float] = 1) -> None:
        with self._lock:
            self._value += value

    @property
    def value(self) -> float:
        return self._value


class Histogram(_Metric):
    """Cumulative-bucket histogram with running count and sum."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        labels: Optional[Labels],
        help_text: str,
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ):
        super().__init__(name, labels, help_text)
        bounds = sorted(float(b) for b in buckets)
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self.bounds: Tuple[float, ...] = tuple(bounds)
        self._bucket_counts = [0] * len(bounds)
        self._count = 0
        self._sum = 0.0

    def observe(self, value: Union[int, float]) -> None:
        value = float(value)
        with self._lock:
            index = bisect.bisect_left(self.bounds, value)
            if index < len(self._bucket_counts):
                self._bucket_counts[index] += 1
            self._count += 1
            self._sum += value

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    def cumulative_buckets(self) -> List[Tuple[float, int]]:
        """``(upper_bound, cumulative_count)`` pairs, ascending (no +Inf row)."""
        pairs: List[Tuple[float, int]] = []
        running = 0
        with self._lock:
            for bound, count in zip(self.bounds, self._bucket_counts):
                running += count
                pairs.append((bound, running))
        return pairs


class MetricRegistry:
    """Registration-ordered store of one run's metrics.

    ``counter``/``gauge``/``histogram`` are get-or-create: the first call
    for a ``(name, labels)`` pair creates the series, later calls return
    it.  Re-registering a name with a different metric type raises — a
    name means one thing per run.
    """

    def __init__(self) -> None:
        self._metrics: Dict[_Key, _Metric] = {}
        self._kinds: Dict[str, str] = {}
        self._family_help: Dict[str, str] = {}
        self._lock = threading.Lock()

    def _get_or_create(self, factory, kind: str, name: str, labels, help_text):
        key = (name, _label_key(labels))
        with self._lock:
            metric = self._metrics.get(key)
            if metric is None:
                known = self._kinds.get(name)
                if known is not None and known != kind:
                    raise ValueError(
                        f"metric {name!r} already registered as a {known}, "
                        f"cannot re-register as a {kind}"
                    )
                # Help is a family property: the first registration wins, so
                # one family never renders two different # HELP lines.
                if name in self._family_help:
                    resolved_help = self._family_help[name]
                else:
                    resolved_help = (
                        help_text if help_text is not None else METRIC_HELP.get(name, "")
                    )
                    self._family_help[name] = resolved_help
                metric = factory(name, labels, resolved_help)
                self._metrics[key] = metric
                self._kinds[name] = kind
            return metric

    def counter(
        self, name: str, labels: Optional[Labels] = None, help_text: Optional[str] = None
    ) -> Counter:
        metric = self._get_or_create(Counter, "counter", name, labels, help_text)
        assert isinstance(metric, Counter)
        return metric

    def gauge(
        self, name: str, labels: Optional[Labels] = None, help_text: Optional[str] = None
    ) -> Gauge:
        metric = self._get_or_create(Gauge, "gauge", name, labels, help_text)
        assert isinstance(metric, Gauge)
        return metric

    def histogram(
        self,
        name: str,
        labels: Optional[Labels] = None,
        help_text: Optional[str] = None,
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        factory = lambda n, l, h: Histogram(n, l, h, buckets)  # noqa: E731
        metric = self._get_or_create(factory, "histogram", name, labels, help_text)
        assert isinstance(metric, Histogram)
        return metric

    # -- queries -----------------------------------------------------------

    def collect(self) -> List[_Metric]:
        """All metrics in registration order (series of a family adjacent)."""
        with self._lock:
            ordered = list(self._metrics.values())
        ordered.sort(key=lambda m: m.name)
        return ordered

    def get(self, name: str, labels: Optional[Labels] = None) -> Optional[_Metric]:
        return self._metrics.get((name, _label_key(labels)))

    def value(self, name: str, labels: Optional[Labels] = None) -> float:
        """Value of a counter/gauge series; 0.0 when it never registered."""
        metric = self.get(name, labels)
        if metric is None:
            return 0.0
        if isinstance(metric, (Counter, Gauge)):
            return metric.value
        raise TypeError(f"metric {name!r} is a {metric.kind}, not a scalar")

    def family_total(self, name: str) -> float:
        """Sum over every label series of one counter/gauge family."""
        total = 0.0
        with self._lock:
            series = [m for (n, __), m in self._metrics.items() if n == name]
        for metric in series:
            if not isinstance(metric, (Counter, Gauge)):
                raise TypeError(f"metric {name!r} is a {metric.kind}, not a scalar")
            total += metric.value
        return total

    def as_flat_dict(self) -> Dict[str, float]:
        """Scalar series flattened to ``name{k="v",...} -> value``."""
        flat: Dict[str, float] = {}
        for metric in self.collect():
            if not isinstance(metric, (Counter, Gauge)):
                continue
            if metric.labels:
                rendered = ",".join(f'{k}="{v}"' for k, v in sorted(metric.labels.items()))
                flat[f"{metric.name}{{{rendered}}}"] = metric.value
            else:
                flat[metric.name] = metric.value
        return flat
