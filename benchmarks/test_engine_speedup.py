"""Engine vs. naive-path speedup of Algorithm 2 on the fast-preset RAPMD cases.

The measured workload is the repository's full sensitivity-sweep protocol
(Fig. 10): per case, :func:`layerwise_topdown_search` runs once per
``t_cp`` grid point (over that threshold's surviving attributes, at the
default ``t_conf``) and once per ``t_conf`` grid point (over the default
threshold's attributes) — eleven searches over one collection interval.
This is the production shape of repeated search and exactly what the
shared :class:`AggregationEngine` accelerates:

* the **naive path** drives the shared search code through
  :class:`NaiveAggregationEngine`, reproducing the pre-engine cost profile
  (per-cuboid leaf-table aggregation with four separate bincounts and a
  full-table mask per candidate, re-derived from scratch at every grid
  point);
* the **engine path** uses one :class:`AggregationEngine` per case,
  created *inside* the timed region (no warm-start credit for the cold
  first search) and shared across the grid, the way :func:`engine_for`
  shares it in production — aggregates are threshold-independent, so
  later grid points hit the cache.

Attribute deletion (Algorithm 1) is precomputed outside the timed region:
its cost is identical on both paths and the report isolates the search.
Candidates must be bit-identical per (case, grid point); the wall-clock
report is written to ``BENCH_search.json`` at the repository root (see
``make bench-search``).  Each case also carries the engine counter totals
of one instrumented (untimed) sweep — cache hit rate, bincount passes,
layer-scan memo hits — so a speedup regression in the artifact can be
attributed to a specific cache without re-running anything.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import pytest

from repro import obs
from repro.core.classification_power import delete_redundant_attributes
from repro.core.config import RAPMinerConfig
from repro.core.engine import AggregationEngine, NaiveAggregationEngine
from repro.core.search import layerwise_topdown_search
from repro.experiments.figures import DEFAULT_TCONF_GRID, DEFAULT_TCP_GRID

REPORT_PATH = Path(__file__).resolve().parents[1] / "BENCH_search.json"
#: Timed repetitions per case and path; the minimum is reported.
REPEATS = 9
#: Acceptance floor from the issue: total naive time / total engine time.
TARGET_SPEEDUP = 3.0


def _grid_points(config):
    """The Fig. 10 grid as (label, kept-set key, t_conf) triples."""
    points = [(f"t_cp={t_cp}", t_cp, config.t_conf) for t_cp in DEFAULT_TCP_GRID]
    points += [
        (f"t_conf={t_conf}", config.t_cp, t_conf) for t_conf in DEFAULT_TCONF_GRID
    ]
    return points


def _kept_indices(case, config):
    """Algorithm 1 survivors per ``t_cp`` grid value (computed untimed)."""
    thresholds = set(DEFAULT_TCP_GRID) | {config.t_cp}
    return {
        t_cp: delete_redundant_attributes(case.dataset, t_cp).kept_indices
        for t_cp in thresholds
    }


def _run_sweep(case, kept, grid, engine_factory, shared_engine):
    """One full grid sweep; returns outcomes keyed by grid-point label."""
    engine = engine_factory(case.dataset) if shared_engine else None
    outcomes = {}
    for label, t_cp, t_conf in grid:
        outcomes[label] = layerwise_topdown_search(
            case.dataset,
            kept[t_cp],
            t_conf=t_conf,
            engine=engine if shared_engine else engine_factory(case.dataset),
        )
    return outcomes


def _time_sweeps(case, kept, grid):
    """Min-of-REPEATS timings of both paths, repeats interleaved.

    Alternating naive/engine repetitions inside one loop means a slow
    stretch of the machine (frequency scaling, a neighbouring process)
    penalizes both paths alike instead of skewing whichever path happened
    to run during it — the reported ratio measures the code, not the
    scheduler.
    """
    paths = (
        ("naive", NaiveAggregationEngine, False),
        ("engine", AggregationEngine, True),
    )
    best = {name: float("inf") for name, __, __ in paths}
    outcomes = {}
    for _ in range(REPEATS):
        for name, factory, shared in paths:
            start = time.perf_counter()
            outcomes[name] = _run_sweep(case, kept, grid, factory, shared)
            best[name] = min(best[name], time.perf_counter() - start)
    return best, outcomes


def _engine_counters(case, kept, grid):
    """Engine counter totals of one instrumented (untimed) shared-engine sweep.

    Captured outside the timed region so the telemetry itself never skews
    the wall-clock numbers; the counters make a perf regression diagnosable
    from the artifact alone (did the cache hit rate collapse, or did the
    bincount pass count explode?).
    """
    with obs.capture() as collector:
        _run_sweep(case, kept, grid, AggregationEngine, shared_engine=True)
    metrics = collector.metrics
    requests = metrics.family_total("engine_aggregate_total")
    cache_hits = metrics.value("engine_aggregate_total", {"path": "cache_hit"})
    return {
        "aggregate_requests": int(requests),
        "aggregate_by_path": {
            path: int(metrics.value("engine_aggregate_total", {"path": path}))
            for path in ("cache_hit", "warm_refresh", "cold")
        },
        "cache_hit_rate": cache_hits / requests if requests else 0.0,
        "bincount_passes": int(metrics.family_total("engine_bincount_passes_total")),
        "batched_cuboids": int(metrics.value("engine_batch_cuboids_total")),
        "layer_scan_memo_hits": int(
            metrics.value("engine_layer_scan_memo_hits_total")
        ),
    }


def test_engine_speedup_report(rapmd_cases, capsys):
    config = RAPMinerConfig()
    grid = _grid_points(config)
    rows = []
    for case in rapmd_cases:
        kept = _kept_indices(case, config)
        best, outcomes = _time_sweeps(case, kept, grid)
        naive_s, engine_s = best["naive"], best["engine"]
        naive_outcomes, engine_outcomes = outcomes["naive"], outcomes["engine"]
        # Bit-identical candidate sets at every grid point: same
        # combinations, confidences, supports, in the same BFS order.
        for label, __, __ in grid:
            assert (
                engine_outcomes[label].candidates == naive_outcomes[label].candidates
            ), f"{case.case_id} diverged at {label}"
            assert engine_outcomes[label].stats == naive_outcomes[label].stats
        rows.append(
            {
                "case": case.case_id,
                "naive_s": naive_s,
                "engine_s": engine_s,
                "speedup": naive_s / engine_s if engine_s > 0 else float("inf"),
            }
        )

    # Counter collection happens after ALL timing: the instrumented sweeps
    # allocate spans and metric objects, and interleaving that with the
    # timed regions would perturb later cases (GC pressure, cache state).
    for row, case in zip(rows, rapmd_cases):
        row["engine_counters"] = _engine_counters(case, _kept_indices(case, config), grid)

    naive_total = sum(r["naive_s"] for r in rows)
    engine_total = sum(r["engine_s"] for r in rows)
    overall = naive_total / engine_total if engine_total > 0 else float("inf")
    total_requests = sum(
        r["engine_counters"]["aggregate_requests"] for r in rows
    )
    total_cache_hits = sum(
        r["engine_counters"]["aggregate_by_path"]["cache_hit"] for r in rows
    )
    engine_counter_totals = {
        "aggregate_requests": total_requests,
        "cache_hit_rate": total_cache_hits / total_requests if total_requests else 0.0,
        "bincount_passes": sum(
            r["engine_counters"]["bincount_passes"] for r in rows
        ),
        "layer_scan_memo_hits": sum(
            r["engine_counters"]["layer_scan_memo_hits"] for r in rows
        ),
    }
    report = {
        "benchmark": "layerwise_topdown_search sensitivity-grid sweep",
        "dataset": "rapmd-fast-preset",
        "t_cp_grid": list(DEFAULT_TCP_GRID),
        "t_conf_grid": list(DEFAULT_TCONF_GRID),
        "searches_per_case": len(grid),
        "repeats": REPEATS,
        "cases": rows,
        "naive_total_s": naive_total,
        "engine_total_s": engine_total,
        "speedup": overall,
        "engine_counter_totals": engine_counter_totals,
    }
    REPORT_PATH.write_text(json.dumps(report, indent=2) + "\n")

    with capsys.disabled():
        print(f"\n[engine speedup] {len(rows)} cases x {len(grid)} grid points:")
        print(f"  naive  total: {naive_total * 1e3:8.2f} ms")
        print(f"  engine total: {engine_total * 1e3:8.2f} ms")
        print(
            f"  cache hit rate: {engine_counter_totals['cache_hit_rate']:.1%}  "
            f"bincount passes: {engine_counter_totals['bincount_passes']}"
        )
        print(f"  speedup: {overall:.2f}x  (report: {REPORT_PATH.name})")

    assert overall >= TARGET_SPEEDUP, (
        f"engine speedup {overall:.2f}x below the {TARGET_SPEEDUP}x target"
    )


@pytest.mark.parametrize("path", ["naive", "engine"])
def test_benchmark_search_path(benchmark, rapmd_cases, path):
    """pytest-benchmark timings of one representative case's sweep per path."""
    config = RAPMinerConfig()
    grid = _grid_points(config)
    case = rapmd_cases[0]
    kept = _kept_indices(case, config)
    factory = NaiveAggregationEngine if path == "naive" else AggregationEngine

    def run():
        return _run_sweep(case, kept, grid, factory, shared_engine=path == "engine")

    benchmark(run)
