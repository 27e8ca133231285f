"""Outside-in tracing: spans around calls into each layer's public functions.

Nothing here edits the program.  :func:`install` swaps a public function
or method for a wrapper that records one span per call, and returns the
undo.  Module-level functions are rebound wherever a ``repro`` module holds
the original object (``from .protocol import parse_request`` copies the
name into the importer), so the wrappers keep working when a later change
moves a function to another module.

A span is ``[name, start, end, parent, attrs]``: perf-counter seconds, the
index of the enclosing span on the same thread (or ``None``), and a small
dict of counts taken from the call's arguments or result.  Spans live in
memory and are written out once, at exit (:meth:`Tracer.dump`).  Garbage
collector pauses are recorded as ``runtime.gc`` spans through
``gc.callbacks``.

The per-layer metrics are derived from the spans of the timed operations
by :func:`serve_layers`, :func:`batch_layers` and :func:`stream_layers`.
"""

from __future__ import annotations

import functools
import gc
import json
import statistics
import sys
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

NAME, START, END, PARENT, ATTRS = range(5)


class Tracer:
    """In-memory span recorder, safe to call from several threads."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def __len__(self) -> int:
        return len(self.spans)

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn: Callable, describe: Optional[Callable] = None):
        """*fn* recording one span per call; *describe(args, result)* adds attrs."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            record = [name, time.perf_counter(), None, stack[-1] if stack else None, None]
            with self._lock:
                index = len(self.spans)
                self.spans.append(record)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
                if describe is not None:
                    record[ATTRS] = describe(args, result)
                return result
            finally:
                record[END] = time.perf_counter()
                stack.pop()

        return traced

    def track_gc(self) -> Callable[[], None]:
        """Record collector pauses as ``runtime.gc`` spans; returns the undo."""

        def callback(phase: str, info: Dict) -> None:
            now = time.perf_counter()
            if phase == "start":
                self._local.gc_start = now
                return
            started = getattr(self._local, "gc_start", None)
            if started is not None:
                with self._lock:
                    self.spans.append(
                        ["runtime.gc", started, now, None, {"generation": info["generation"]}]
                    )

        gc.callbacks.append(callback)
        return lambda: gc.callbacks.remove(callback)

    def dump(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump(self.spans, handle)


def load_spans(path: str) -> List[list]:
    with open(path) as handle:
        return json.load(handle)


def _layer_of(args, result) -> Dict:
    cuboids = args[1]
    return {"layer": len(cuboids[0].attribute_indices) if cuboids else 0}


def _search_counts(args, result) -> Dict:
    stats = result.stats
    return {
        "cuboids": stats.n_cuboids_visited,
        "combinations": stats.n_combinations_evaluated,
        "pruned": stats.n_criteria3_pruned,
        "deepest": stats.deepest_layer_visited,
    }


def _tick_path(args, result) -> Dict:
    return {"path": result.path, "rebased": result.rebased}


def _group_count(args, result) -> Dict:
    return {"groups": len(result)}


def _targets():
    """``(span name, owner, attribute, describe)`` for every traced call.

    *owner* is a class (the method is replaced on it) or ``None`` for a
    module-level function, which is found through the package exports.
    """
    import repro
    import repro.core as core
    import repro.data as data
    import repro.serving as serving

    protocol = sys.modules[serving.parse_request.__module__]
    functions = [
        ("serving.parse_request", serving.parse_request, None),
        ("data.case_from_dict", data.case_from_dict, None),
        ("serving.ok_body", protocol.ok_body, None),
        ("serving.encode_frame", serving.encode_frame, None),
        ("cp.delete", core.delete_redundant_attributes, None),
        ("search.run", core.layerwise_topdown_search, _search_counts),
        ("stacked.search", core.batched_layerwise_topdown_search, None),
        ("stacked.group", core.group_datasets_by_layout, _group_count),
    ]
    methods = [
        ("serving.try_admit", serving.AdmissionController, "try_admit", None),
        ("miner.run", repro.RAPMiner, "run", None),
        ("miner.run_batch", repro.RAPMiner, "run_batch", None),
        ("search.layer_scan", core.AggregationEngine, "layer_scan", _layer_of),
        ("stacked.build", core.StackedCaseEngine, "__init__", None),
        ("stacked.cp", core.StackedCaseEngine, "attribute_deletions", None),
        ("delta.begin_tick", core.DeltaSession, "begin_tick", _tick_path),
    ]
    return functions, methods


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every traced call (see :func:`_targets`); returns the undo."""
    functions, methods = _targets()
    undo: List[Tuple[object, str, object]] = []
    modules = [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]
    for name, original, describe in functions:
        wrapper = tracer.wrap(name, original, describe)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    undo.append((module, attr, original))
                    setattr(module, attr, wrapper)
    for name, owner, attr, describe in methods:
        original = owner.__dict__[attr]
        undo.append((owner, attr, original))
        setattr(owner, attr, tracer.wrap(name, original, describe))

    def uninstall() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return uninstall


# -- per-layer metrics ----------------------------------------------------------


def _ms(span) -> float:
    return (span[END] - span[START]) * 1e3


def _sum_ms(spans, name: str) -> float:
    return sum(_ms(s) for s in spans if s[NAME] == name)


def _median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def _core_serial(ops: Sequence[Sequence[list]]) -> Dict[str, float]:
    """``cp.*`` and ``search.*`` over operations running the serial path."""
    per: Dict[str, List[float]] = {
        "cp.delete_ms": [],
        "search.run_ms": [],
        "search.layer1_ms": [],
        "search.layer2_ms": [],
        "search.layer3plus_ms": [],
    }
    counts = {"cuboids": 0, "combinations": 0, "pruned": 0}
    deepest = 0
    for spans in ops:
        searches = [s for s in spans if s[NAME] == "search.run"]
        if not searches:
            continue
        per["cp.delete_ms"].append(_sum_ms(spans, "cp.delete"))
        per["search.run_ms"].append(sum(_ms(s) for s in searches))
        layers = [0.0, 0.0, 0.0]
        for s in spans:
            if s[NAME] == "search.layer_scan":
                layers[min(s[ATTRS]["layer"], 3) - 1] += _ms(s)
        per["search.layer1_ms"].append(layers[0])
        per["search.layer2_ms"].append(layers[1])
        per["search.layer3plus_ms"].append(layers[2])
        for s in searches:
            for key in counts:
                counts[key] += s[ATTRS][key]
            deepest = max(deepest, s[ATTRS]["deepest"])
    metrics = {name: _median(values) for name, values in per.items()}
    metrics["search.cuboids_visited"] = counts["cuboids"]
    metrics["search.combinations_evaluated"] = counts["combinations"]
    metrics["search.criteria3_pruned"] = counts["pruned"]
    metrics["search.deepest_layer"] = deepest
    return metrics


def gc_ms(spans: Sequence[list], since: float) -> float:
    """Total collector pause time after *since* (perf-counter seconds)."""
    return sum(_ms(s) for s in spans if s[NAME] == "runtime.gc" and s[START] >= since)


def serve_layers(
    spans: Sequence[list], warmup: int, latencies_ms: Sequence[float]
) -> Tuple[Dict[str, float], float]:
    """Stage breakdown of the timed requests, and the stage-sum error.

    With one request in flight, the spans of request *i* are those that
    start between its ``parse_request`` and the next one.  Returns the
    per-layer metrics (medians over requests, counts summed) and the
    largest per-request gap between the stage sum and the measured
    latency, as a share of that latency.
    """
    requests: List[List[list]] = []
    for span in sorted((s for s in spans if s[NAME] != "runtime.gc"), key=lambda s: s[START]):
        if span[NAME] == "serving.parse_request":
            requests.append([span])
        elif requests:
            requests[-1].append(span)
    timed = requests[warmup:]
    if len(timed) != len(latencies_ms):
        raise RuntimeError(
            f"traced server answered {len(timed)} timed requests, client sent "
            f"{len(latencies_ms)}"
        )
    stages: Dict[str, List[float]] = {
        name: []
        for name in (
            "serving.decode_ms",
            "data.case_decode_ms",
            "serving.admit_ms",
            "serving.queue_wait_ms",
            "fleet.execute_ms",
            "serving.encode_ms",
            "serving.transport_ms",
        )
    }
    worst_gap = 0.0
    for spans_of, latency in zip(timed, latencies_ms):
        parse = spans_of[0]
        admit = next(s for s in spans_of if s[NAME] == "serving.try_admit")
        run = next(s for s in spans_of if s[NAME] == "miner.run" and s[PARENT] is None)
        decode = _ms(parse)
        queue_wait = (run[START] - admit[END]) * 1e3
        encode = sum(
            _ms(s)
            for s in spans_of
            if s[NAME] in ("serving.ok_body", "serving.encode_frame") and s[START] >= run[END]
        )
        known = decode + _ms(admit) + queue_wait + _ms(run) + encode
        transport = latency - known
        stages["serving.decode_ms"].append(decode)
        stages["data.case_decode_ms"].append(_sum_ms(spans_of, "data.case_from_dict"))
        stages["serving.admit_ms"].append(_ms(admit))
        stages["serving.queue_wait_ms"].append(queue_wait)
        stages["fleet.execute_ms"].append(_ms(run))
        stages["serving.encode_ms"].append(encode)
        stages["serving.transport_ms"].append(transport)
        worst_gap = max(worst_gap, abs(known + max(transport, 0.0) - latency) / latency)
    metrics = {name: _median(values) for name, values in stages.items()}
    metrics.update(_core_serial(timed))
    since = timed[0][0][START] if timed else 0.0
    metrics["runtime.gc_ms"] = gc_ms(spans, since)
    return metrics, worst_gap


def batch_layers(passes: Sequence[Sequence[list]]) -> Dict[str, float]:
    """``stacked.*`` per ``run_batch`` pass (medians; counts per pass)."""
    per: Dict[str, List[float]] = {
        "stacked.build_ms": [],
        "stacked.cp_ms": [],
        "stacked.search_ms": [],
        "stacked.other_ms": [],
        "stacked.groups": [],
        "stacked.subgroups": [],
    }
    for spans in passes:
        run = sum(_ms(s) for s in spans if s[NAME] == "miner.run_batch" and s[PARENT] is None)
        build = _sum_ms(spans, "stacked.build")
        cp = _sum_ms(spans, "stacked.cp")
        search = _sum_ms(spans, "stacked.search")
        per["stacked.build_ms"].append(build)
        per["stacked.cp_ms"].append(cp)
        per["stacked.search_ms"].append(search)
        per["stacked.other_ms"].append(run - build - cp - search)
        per["stacked.groups"].append(
            sum(s[ATTRS]["groups"] for s in spans if s[NAME] == "stacked.group")
        )
        per["stacked.subgroups"].append(sum(1 for s in spans if s[NAME] == "stacked.search"))
    return {name: _median(values) for name, values in per.items()}


def stream_layers(ticks: Sequence[Sequence[list]]) -> Dict[str, float]:
    """``delta.*`` timings per tick path plus the serial core's layers."""
    patch: List[float] = []
    cold: List[float] = []
    search: List[float] = []
    for spans in ticks:
        begin = next(s for s in spans if s[NAME] == "delta.begin_tick")
        if begin[ATTRS]["path"] == "patched":
            patch.append(_ms(begin))
            search.append(_sum_ms(spans, "miner.run"))
        else:
            cold.append(_ms(begin))
    metrics = {
        "delta.patch_ms": _median(patch),
        "delta.cold_tick_ms": _median(cold),
        "delta.search_ms": _median(search),
    }
    metrics.update(_core_serial(ticks))
    return metrics
