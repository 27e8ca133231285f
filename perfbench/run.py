"""Paper-scale benchmark of the RAPMiner reproduction: ``serve``, ``batch``, ``stream``.

Usage (from the repository root)::

    python3 perfbench/run.py --workload serve --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs the
same operations once untraced and once with the span wrappers of
``tracing.py`` installed, and reports the per-layer metrics.  The last
line of standard output is the result object; the line before it is the
run context.  ``README.md`` explains the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_build" / "perfbench"
SETUP_SAMPLES = 10

#: Metric names and units come from the benchmark's definition.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("paper", "tiny"), default="paper")
    parser.add_argument(
        "--corrupt-reference",
        action="store_true",
        help="alter one reference answer (the self-test checks it counts as failed)",
    )
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--build-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def in_process_setup(workload: str, scale_name: str, seed: int):
    """Import ``repro``, make the inputs, resolve the backend, warm up once.

    Returns the workload and the set-up seconds, which count the import,
    the backend resolution and the warm-up pass but not input generation.
    """
    start = time.perf_counter()
    import repro  # noqa: F401
    import repro.core
    import repro.data  # noqa: F401

    imported = time.perf_counter() - start
    import workloads

    scale = workloads.SCALES[scale_name]
    bench = (workloads.Batch if workload == "batch" else workloads.Stream)(scale, seed)
    first = bench.datasets[0] if workload == "batch" else bench.ticks[0]
    start = time.perf_counter()
    backend = repro.core.engine_for(workloads.fresh_copy(first)).backend
    bench.warm_up()
    return bench, backend, imported + time.perf_counter() - start


def timed_with_setups(run_chunk, operations: int, probe) -> tuple:
    """Run *operations* in SETUP_SAMPLES chunks, one set-up sample before each.

    ``probe(cpu)`` sets the program up in a fresh process bound to *cpu*,
    taking the usable CPUs in turn, so every run has as many samples on
    each core whichever core is slow at the time.  Spread over the run,
    the samples see the same host drift as the timed loop, not only its
    first seconds.  Returns the samples and the chunks merged into one run.
    """
    import workloads

    cpus = workloads.usable_cpus()
    samples, parts = [], []
    for index in range(SETUP_SAMPLES):
        samples.append(probe(cpus[index % len(cpus)]))
        count = (operations * (index + 1)) // SETUP_SAMPLES - (operations * index) // SETUP_SAMPLES
        if count:
            parts.append(run_chunk(count))
    return samples, merge_runs(parts)


def merge_runs(parts: list) -> dict:
    """Counts and times add up, latency samples join, path checks must all hold."""
    merged = {"attempted": 0, "failed": 0, "window_s": 0.0, "latencies_s": [], "path_mix_ok": True}
    for part in parts:
        for key in ("attempted", "failed", "window_s"):
            merged[key] += part[key]
        merged["latencies_s"] += part["latencies_s"]
        merged["path_mix_ok"] = merged["path_mix_ok"] and part.get("path_mix_ok", True)
        if "delta" in part:
            delta = merged.setdefault("delta", dict.fromkeys(part["delta"], 0))
            for key, value in part["delta"].items():
                delta[key] += value
    return merged


def setup_probe(args, cpu: int) -> float:
    """One in-process set-up, in a fresh interpreter bound to *cpu*."""
    import workloads

    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed),
        "--scale", args.scale, "--setup-probe",
    ]
    with workloads.children_on(cpu):
        out = subprocess.run(command, capture_output=True, text=True, timeout=120, cwd=str(ROOT))
    if out.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])["setup_s"]


def build_native() -> None:
    """Compile or load the native library once, untimed, before any timing."""
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", "batch",
         "--seed", "0", "--build-only"],
        capture_output=True, text=True, timeout=600, cwd=str(ROOT),
    )
    if out.returncode != 0:
        raise RuntimeError(f"native build step failed:\n{out.stderr}")


def source_context() -> dict:
    rev = None
    if (ROOT / ".git").exists():
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
        )
        rev = out.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.suffix in (".py", ".c") and path.is_file():
            digest.update(path.relative_to(SRC).as_posix().encode())
            digest.update(path.read_bytes())
    return {"git_rev": rev, "src_sha256": digest.hexdigest()[:16]}


def throughput(run: dict) -> float:
    return (run["attempted"] - run["failed"]) / run["window_s"]


def overhead_pct(untraced: dict, traced: dict) -> float:
    base = throughput(untraced)
    return 100.0 * (base - throughput(traced)) / base


def run_in_process(args) -> tuple:
    bench, backend, _ = in_process_setup(args.workload, args.scale, args.seed)
    import tracing
    import workloads

    scale = workloads.SCALES[args.scale]
    if args.workload == "batch":
        operations = workloads.operation_count(scale.batch_passes_per_s, args.seconds, args.trace)
        datasets = bench.datasets
    else:
        operations = workloads.operation_count(scale.stream_passes_per_s, args.seconds, args.trace)
        datasets = bench.ticks
    context = {
        "backend": backend.info(),
        "passes": operations,
        "ops_per_pass": len(datasets),
    }
    if args.workload == "batch":
        context.update(cases=len(datasets), layout_groups=bench.layout_groups)
    else:
        context.update(
            ticks=len(datasets),
            incidents=scale.incidents,
            predicted_cold_per_pass=bench.paths.count("cold"),
            predicted_patched_per_pass=bench.paths.count("patched"),
        )
    bench.references = workloads.reference_candidates(datasets)
    if args.corrupt_reference:
        bench.references[0] = bench.references[0][:-1]
    # The benchmark's own inputs and references leave the collector's
    # view, so collector pauses in the timed loop come from the program.
    gc.collect()
    gc.freeze()
    probe = workloads.host_probe_ms()
    workloads.reset_peak_rss()
    if args.trace:
        untraced = bench.run(operations)
    else:
        context["setup_samples_s"], untraced = timed_with_setups(
            bench.run, operations, lambda cpu: setup_probe(args, cpu)
        )
    peak_rss_mb = workloads.peak_rss_mb()
    probe += workloads.host_probe_ms()
    context["host_probe_ms"] = statistics.median(probe)
    runs = [untraced]
    if args.workload == "stream":
        context["delta"] = untraced["delta"]
    if not args.trace:
        metrics = {
            "setup_s": statistics.median(context["setup_samples_s"]),
            "results_per_s": throughput(untraced),
            **workloads.percentiles_ms(untraced["latencies_s"]),
            "peak_rss_mb": peak_rss_mb,
        }
    else:
        tracer = tracing.Tracer()
        uninstall = tracing.install(tracer)
        untrack = tracer.track_gc()
        try:
            traced = bench.run(operations, tracer)
        finally:
            untrack()
            uninstall()
        runs.append(traced)
        OUT.mkdir(parents=True, exist_ok=True)
        tracer.dump(str(OUT / f"spans-{args.workload}-{args.seed}.json"))
        segments = [tracer.spans[a:b] for a, b in traced["marks"]]
        if args.workload == "batch":
            metrics = tracing.batch_layers(segments)
        else:
            metrics = tracing.stream_layers(segments)
            metrics.update({
                "delta.patched_ticks": traced["delta"]["patched"],
                "delta.cold_ticks": traced["delta"]["cold"],
                "delta.rebases": traced["delta"]["rebases"],
                "delta.changed_rows": traced["delta"]["changed_rows"],
            })
        first_mark = traced["marks"][0][0]
        since = tracer.spans[first_mark][tracing.START] if len(tracer) > first_mark else 0.0
        metrics["runtime.gc_ms"] = tracing.gc_ms(tracer.spans, since)
        metrics["tracing.overhead_pct"] = overhead_pct(untraced, traced)
        metrics["runtime.host_probe_ms"] = context["host_probe_ms"]
    path_ok = all(run.get("path_mix_ok", True) for run in runs)
    return runs, metrics, context, path_ok


def run_serve(args) -> tuple:
    import tracing
    import workloads

    scale = workloads.SCALES[args.scale]
    bench = workloads.Serve(scale, args.seed)
    bench.references = workloads.reference_candidates(bench.datasets)
    if args.corrupt_reference:
        bench.references[0] = bench.references[0][:-1]
    requests = workloads.operation_count(scale.serve_requests_per_s, args.seconds, args.trace)
    context = {"cases": len(bench.frames), "requests": requests}
    gc.collect()
    gc.freeze()
    probe = workloads.host_probe_ms()

    if not args.trace:

        def set_up(cpu: int) -> float:
            server, client, setup_s = bench.start(cpu=cpu)
            client.close()
            server.stop()
            return setup_s

        server, client, _ = bench.start()
        try:
            samples, untraced = timed_with_setups(
                lambda count: bench.run(client, count), requests, set_up
            )
            peak = server.peak_rss_mb()
        finally:
            client.close()
            server.stop()
        probe += workloads.host_probe_ms()
        context.update(setup_samples_s=samples, host_probe_ms=statistics.median(probe))
        metrics = {
            "setup_s": statistics.median(samples),
            "results_per_s": throughput(untraced),
            **workloads.percentiles_ms(untraced["latencies_s"]),
            "peak_rss_mb": peak,
        }
        return [untraced], metrics, context, True

    server, client, _ = bench.start()
    try:
        untraced = bench.run(client, requests)
    finally:
        client.close()
        server.stop()
    OUT.mkdir(parents=True, exist_ok=True)
    spans_path = OUT / f"spans-serve-{args.seed}.json"
    if spans_path.exists():
        spans_path.unlink()
    server, client, _ = bench.start(str(spans_path))
    try:
        traced = bench.run(client, requests)
        cold_builds = server.cold_engine_builds()
    finally:
        client.close()
        server.stop()
    probe += workloads.host_probe_ms()
    spans = tracing.load_spans(str(spans_path))
    latencies_ms = [s * 1e3 for s in traced["latencies_s"]]
    metrics, worst_gap = tracing.serve_layers(spans, len(bench.frames), latencies_ms)
    stage_sum = sum(
        metrics[name]
        for name in (
            "serving.decode_ms", "serving.admit_ms", "serving.queue_wait_ms",
            "fleet.execute_ms", "serving.encode_ms", "serving.transport_ms",
        )
    )
    median_latency = statistics.median(latencies_ms)
    context.update(
        host_probe_ms=statistics.median(probe),
        stage_sum_ms=stage_sum,
        latency_p50_ms=median_latency,
        stage_sum_error_pct=100.0 * abs(stage_sum - median_latency) / median_latency,
        worst_request_gap_pct=100.0 * worst_gap,
    )
    metrics.update({
        "serving.request_bytes": traced["request_bytes"],
        "serving.response_bytes": traced["response_bytes"],
        "fleet.engine_cold_builds": cold_builds,
        "runtime.host_probe_ms": context["host_probe_ms"],
        "tracing.overhead_pct": overhead_pct(untraced, traced),
    })
    return [untraced, traced], metrics, context, True


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: program source not found under {SRC}", file=sys.stderr)
        return 2
    # Keep the native build cache inside the checkout.
    os.environ["RAPMINER_NATIVE_CACHE"] = str(ROOT / ".bench_build" / "native")
    sys.path.insert(0, str(SRC))
    if args.build_only:
        import repro.core
        import repro.data

        schema = repro.data.cdn_schema(2, 2, 2, 2)
        dataset = repro.data.CDNSimulator(schema).snapshot(0).to_dataset()
        print(repro.core.engine_for(dataset).backend.info())
        return 0
    if args.setup_probe:
        _, _, setup_s = in_process_setup(args.workload, args.scale, args.seed)
        print(json.dumps({"setup_s": setup_s}))
        return 0

    build_native()
    runner = run_serve if args.workload == "serve" else run_in_process
    runs, metrics, context, path_ok = runner(args)
    import numpy

    attempted = sum(run["attempted"] for run in runs)
    failed = sum(run["failed"] for run in runs)
    spec = SPEC["per_layer"] if args.trace else SPEC["end_to_end"]
    context.update(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        scale=args.scale,
        cpu_count=os.cpu_count(),
        usable_cpus=len(os.sched_getaffinity(0)),
        python=platform.python_version(),
        numpy=numpy.__version__,
        path_mix_ok=path_ok,
        **source_context(),
    )
    print(json.dumps({"context": context}, default=str))
    result = {
        "correct": failed == 0 and path_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            metric["name"]: {"value": float(metrics.get(metric["name"], 0.0)), "unit": metric["unit"]}
            for metric in spec
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
