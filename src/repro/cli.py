"""Command-line interface: generate datasets, localize, evaluate, reproduce.

Subcommands
-----------
``repro generate``
    Generate a benchmark (``rapmd`` or ``squeeze``) and save it as a JSON
    case bundle replayable by the other subcommands.
``repro localize``
    Run one localizer over a saved bundle (or a single case of it) and
    print the ranked patterns next to the ground truth.  Pass ``--trace
    PATH`` to capture the run's spans and engine counters as JSONL (see
    ``docs/observability.md``).
``repro batch-localize``
    Run one localizer over a saved bundle on the fleet
    (:mod:`repro.fleet`): every case queued at once, one inline worker
    per schema layout carrying its engine across cases on a
    :class:`~repro.core.delta.DeltaSession`.  Output is bit-identical to
    the serial ``localize`` path; the command reports throughput.
``repro fleet-localize``
    Serve a saved bundle through the multi-tenant fleet
    (:mod:`repro.fleet`): one FIFO per schema layout served by workers
    that each carry their engine across cases on a
    :class:`~repro.core.delta.DeltaSession`, optional
    segment-log persistence (``--store``), store replay verification
    (``--replay``) and engine warm starts from a previous run's log
    (``--warm-start``).
    Output is bit-identical to serial regardless of worker interleaving.
``repro stream-localize``
    Replay a saved bundle as consecutive ticks of one stream through the
    delta-patching :class:`~repro.core.delta.StreamingRAPMiner`:
    per-tick latency, patched-vs-cold path and stop reasons, plus a
    session summary.  ``--verify`` re-runs every tick statelessly and
    asserts bit-identical candidates.  ``--serve-metrics HOST:PORT``
    serves ``/metrics``, ``/healthz``, ``/readyz``, ``/debug/spans`` and
    ``/debug/profile`` live for the lifetime of the replay (see
    ``docs/observability.md``).
``repro serve``
    Run the network serving front door (:mod:`repro.serving`) over the
    fleet: per-tick localization requests over HTTP JSON
    (``POST /localize``) and the RPSV binary frame stream, with bounded
    admission (queue caps, per-tenant shares, typed shed responses, a
    degraded band under congestion) and the telemetry plane
    (``/metrics``, ``/healthz``, ``/readyz``, ``/debug/*``) mounted on
    the same port.  Consecutive requests over one leaf population patch
    the worker's previous engine instead of re-aggregating.  See
    ``docs/serving.md`` for the protocol.
``repro profile``
    Span-family self-time profile (self vs child time, top-N table) of a
    JSONL trace captured with ``--trace``.
``repro evaluate``
    Run a method cohort over a saved bundle and print the F1 / RC@k and
    running-time tables.
``repro reproduce``
    Regenerate one of the paper's tables/figures end to end
    (``table4``, ``table6``, ``fig8a``, ``fig8b``, ``fig9a``, ``fig9b``,
    ``fig10a``, ``fig10b``) at the chosen preset scale.

Examples
--------
::

    repro generate rapmd --out rapmd.npz --scale fast --seed 1
    repro localize --cases rapmd.npz --method RAPMiner --k 3
    repro batch-localize --cases rapmd.npz --k 3
    repro fleet-localize --cases rapmd.npz --shards 2 --store fleet.log
    repro fleet-localize --replay fleet.log
    repro stream-localize --cases rapmd.npz --crossover auto --verify
    repro stream-localize --cases rapmd.npz --serve-metrics 127.0.0.1:9464
    repro serve --port 8765 --shards 2 --tenants edge-eu,edge-us
    repro profile --trace run.jsonl --top 10
    repro evaluate --cases rapmd.npz --protocol rc
    repro reproduce fig8b --scale paper
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, List, Optional, Sequence

from .baselines import (
    Adtributor,
    AssociationRuleLocalizer,
    HotSpot,
    IDice,
    Squeeze,
)
from .core.config import RAPMinerConfig
from .core.miner import RAPMiner
from .data.io import load_cases, save_cases
from .experiments.figures import (
    figure8a,
    figure8b,
    figure9a,
    figure9b,
    figure10a,
    figure10b,
    run_rapmd_comparison,
    run_squeeze_comparison,
)
from .experiments.presets import fast_preset, paper_preset
from .experiments.reporting import (
    format_seconds,
    render_series_table,
    render_table,
)
from .experiments.runner import run_cases
from .experiments.tables import table4, table6

__all__ = ["main", "build_parser"]

GROUP_ORDER = [(d, r) for d in (1, 2, 3) for r in (1, 2, 3)]


def _method_registry() -> Dict[str, object]:
    return {
        "RAPMiner": RAPMiner(),
        "Squeeze": Squeeze(),
        "FP-growth": AssociationRuleLocalizer(),
        "Adtributor": Adtributor(),
        "iDice": IDice(),
        "HotSpot": HotSpot(),
    }


def _resolve_methods(names: Optional[str]):
    registry = _method_registry()
    if not names:
        return list(registry.values())[:5]  # the paper cohort
    resolved = []
    for name in names.split(","):
        name = name.strip()
        if name not in registry:
            raise SystemExit(
                f"unknown method {name!r}; choose from {', '.join(registry)}"
            )
        resolved.append(registry[name])
    return resolved


def _preset(scale: str, seed: int):
    if scale == "paper":
        return paper_preset(seed)
    return fast_preset(seed)


def _apply_resilience(method, deadline_ms: Optional[float], degrade: bool):
    """Wire ``--deadline-ms`` / ``--degrade`` into a deadline-aware method.

    Only methods carrying a config with a ``deadline_ms`` knob (RAPMiner)
    honor the flags; asking for them on a baseline is a usage error, not
    a silent no-op.
    """
    if deadline_ms is None and not degrade:
        return method
    from dataclasses import replace

    from .resilience import DegradationPolicy

    config = getattr(method, "config", None)
    if config is None or not hasattr(config, "deadline_ms"):
        name = getattr(method, "name", type(method).__name__)
        raise SystemExit(
            f"--deadline-ms/--degrade require a deadline-aware method "
            f"(RAPMiner), got {name}"
        )
    method.config = replace(
        config,
        deadline_ms=deadline_ms,
        degradation=DegradationPolicy() if degrade else config.degradation,
    )
    return method


# -- subcommand handlers -----------------------------------------------------


def _cmd_generate(args: argparse.Namespace) -> int:
    from .data.summary import summarize_cases

    preset = _preset(args.scale, args.seed)
    if args.dataset == "rapmd":
        cases = preset.rapmd_cases()
    else:
        cases = preset.squeeze_cases()
    save_cases(cases, args.out)
    print(f"wrote {len(cases)} cases to {args.out}")
    print(summarize_cases(cases).render())
    return 0


def _cmd_localize(args: argparse.Namespace) -> int:
    if args.trace:
        from . import obs
        from .obs import report as obs_report

        with obs.capture(trace_path=args.trace) as collector:
            code = _run_localize(args)
        print(obs_report.render_summary(collector))
        print(
            f"trace: wrote {len(collector.spans)} spans and "
            f"{len(collector.metrics.collect())} metric series to {args.trace}"
        )
        return code
    return _run_localize(args)


def _run_localize(args: argparse.Namespace) -> int:
    cases = load_cases(args.cases)
    if args.case_id is not None:
        cases = [c for c in cases if c.case_id == args.case_id]
        if not cases:
            raise SystemExit(f"no case with id {args.case_id!r}")
    method = _apply_resilience(
        _resolve_methods(args.method)[0], args.deadline_ms, args.degrade
    )
    runner = getattr(method, "run", None)
    for case in cases:
        k = args.k if args.k is not None else len(case.true_raps)
        note = ""
        if callable(runner):
            result = runner(case.dataset, k)
            predicted = result.patterns
            stats = getattr(result, "stats", None)
            stop_reason = getattr(stats, "stop_reason", None)
            tier = getattr(stats, "degradation_tier", None)
            if stop_reason == "deadline" or tier is not None:
                note = f"  [stop={stop_reason or 'n/a'} tier={tier or 'full'}]"
        else:
            predicted = method.localize(case.dataset, k)
        hits = sum(1 for p in predicted if p in case.true_raps)
        print(f"{case.case_id}  ({method.name}, k={k}){note}")
        print(f"  truth:     {', '.join(str(r) for r in case.true_raps)}")
        print(f"  predicted: {', '.join(str(p) for p in predicted) or '(none)'}")
        print(f"  hits: {hits}/{len(case.true_raps)}")
    return 0


def _cmd_batch(args: argparse.Namespace) -> int:
    import time as _time

    from .fleet import FleetConfig, fleet_localize

    cases = load_cases(args.cases)
    method = _apply_resilience(
        _resolve_methods(args.method)[0], args.deadline_ms, args.degrade
    )
    config = FleetConfig.one_batch(k=args.k, k_from_truth=args.k is None)
    start = _time.perf_counter()
    evaluation = fleet_localize(method, cases, config=config)
    wall = _time.perf_counter() - start
    for result in evaluation.results:
        hits = sum(1 for p in result.predicted if p in result.true_raps)
        suffix = f"  ERROR {result.error}" if result.error else ""
        print(
            f"{result.case_id}  hits {hits}/{len(result.true_raps)}  "
            f"{result.seconds * 1e3:.1f} ms{suffix}"
        )
    failures = evaluation.failures()
    if failures:
        print(f"\n{len(failures)} case(s) returned error records (crashed twice)")
    localizing = sum(r.seconds for r in evaluation.results)
    throughput = len(cases) / wall if wall > 0 else float("inf")
    print(
        f"\n{len(cases)} cases on one worker per layout: {wall:.3f} s wall "
        f"({localizing:.3f} s localizing), {throughput:.1f} cases/s"
    )
    return 0


def _cmd_fleet_localize(args: argparse.Namespace) -> int:
    import time as _time

    from .fleet import FleetConfig, FleetStore, FleetSupervisor, replay_store

    method = _apply_resilience(
        _resolve_methods(args.method)[0], args.deadline_ms, args.degrade
    )
    config = FleetConfig(
        shards_per_layout=args.shards,
        k=args.k,
        k_from_truth=args.k is None,
    )

    if args.replay:
        start = _time.perf_counter()
        evaluation = replay_store(method, args.replay, config=config)
        wall = _time.perf_counter() - start
        with FleetStore(args.replay, mode="r") as persisted_store:
            persisted = {row["seq"]: row for row in persisted_store.results()}
            case_seqs = [seq for seq, __, __ in persisted_store.cases()]
        # Join persisted rows to replayed results by the original seq —
        # a log from a run that crashed mid-drain holds fewer result rows
        # than cases, and a positional zip would silently skip the tail.
        mismatches = []
        missing = []
        for seq, result in zip(case_seqs, evaluation.results):
            row = persisted.get(seq)
            if row is None:
                missing.append(result.case_id)
            elif row["predicted"] != [str(p) for p in result.predicted]:
                mismatches.append(result.case_id)
        if not mismatches and not missing:
            verdict = "bit-exact"
        else:
            parts = []
            if mismatches:
                parts.append(f"{len(mismatches)} case(s) DIVERGED")
            if missing:
                parts.append(f"{len(missing)} case(s) had no persisted result")
            verdict = ", ".join(parts)
        print(
            f"replayed {len(evaluation.results)} case(s) from {args.replay} "
            f"in {wall:.3f} s: {verdict}"
        )
        for case_id in mismatches:
            print(f"  diverged: {case_id}")
        for case_id in missing:
            print(f"  no persisted result: {case_id}")
        return 1 if mismatches or missing else 0

    if not args.cases:
        raise SystemExit("fleet-localize needs --cases (or --replay STORE)")
    cases = load_cases(args.cases)
    store = FleetStore(args.store) if args.store else None
    supervisor = FleetSupervisor(method, config=config, store=store)
    try:
        if args.warm_start:
            with FleetStore(args.warm_start, mode="r") as warm:
                primed = supervisor.warm_start(warm)
            print(f"warm-started {primed} tenant(s) from {args.warm_start}")
        start = _time.perf_counter()
        for case in cases:
            supervisor.submit(case)
        evaluation = supervisor.drain()
        wall = _time.perf_counter() - start
    finally:
        if store is not None:
            store.close()
    for result in evaluation.results:
        hits = sum(1 for p in result.predicted if p in result.true_raps)
        suffix = f"  ERROR {result.error}" if result.error else ""
        print(
            f"{result.case_id}  hits {hits}/{len(result.true_raps)}  "
            f"{result.seconds * 1e3:.1f} ms{suffix}"
        )
    failures = evaluation.failures()
    if failures:
        print(f"\n{len(failures)} case(s) returned error records")
    throughput = len(cases) / wall if wall > 0 else float("inf")
    print(
        f"\n{len(cases)} cases over {config.shards_per_layout} worker(s) per "
        f"layout: {wall:.3f} s wall, {throughput:.1f} cases/s, "
        f"{supervisor.requeues} crash requeue(s)"
    )
    return 0


def _parse_serve_address(value: str):
    """``HOST:PORT`` (or bare ``PORT``) for ``--serve-metrics``."""
    host, sep, port_text = value.rpartition(":")
    if not sep:
        host, port_text = "127.0.0.1", value
    host = host or "127.0.0.1"
    try:
        port = int(port_text)
    except ValueError:
        raise SystemExit(
            f"--serve-metrics expects HOST:PORT or PORT, got {value!r}"
        )
    return host, port


def _cmd_stream_localize(args: argparse.Namespace) -> int:
    from .core.delta import DeltaConfig, StreamingRAPMiner
    from .service.stream import replay_stream

    cases = load_cases(args.cases)
    if args.crossover == "auto":
        crossover = "auto"
    else:
        try:
            crossover = float(args.crossover)
        except ValueError:
            raise SystemExit(
                f"--crossover must be 'auto' or a float, got {args.crossover!r}"
            )
    delta = DeltaConfig(crossover=crossover)
    miner = _apply_resilience(
        StreamingRAPMiner(delta=delta), args.deadline_ms, args.degrade
    )
    if args.serve_metrics:
        from . import obs
        from .obs.server import TelemetryServer
        from .obs.slo import SLOTracker

        host, port = _parse_serve_address(args.serve_metrics)
        tracker = SLOTracker()
        with obs.capture(ring_only=True):
            with TelemetryServer(host=host, port=port) as server:
                print(
                    f"telemetry: serving {server.url}/metrics "
                    f"(/healthz /readyz /debug/spans /debug/profile) "
                    f"for the lifetime of the replay"
                )
                replay = replay_stream(
                    cases, miner=miner, k=args.k, verify=args.verify, slo=tracker
                )
    else:
        replay = replay_stream(cases, miner=miner, k=args.k, verify=args.verify)
    for tick in replay.ticks:
        label = tick.case_id or f"tick{tick.index}"
        extras = ""
        if tick.stop_reason not in (None, "exhausted"):
            extras += f"  stop={tick.stop_reason}"
        if tick.hits is not None:
            extras += f"  hits={tick.hits}"
        if tick.verified is not None:
            extras += "  verified" if tick.verified else "  MISMATCH"
        print(
            f"{label}  {tick.seconds * 1e3:7.1f} ms  {tick.path:7s}"
            f"  ({tick.reason or 'delta'}, changed {tick.changed_fraction:.1%})"
            f"{extras}"
        )
    print(
        f"\n{len(replay.ticks)} ticks: {replay.patched_ticks} patched, "
        f"{replay.cold_ticks} cold; amortized "
        f"{replay.amortized_seconds * 1e3:.1f} ms/tick"
    )
    if args.verify:
        if replay.mismatches:
            print(f"verification FAILED on ticks {replay.mismatches}")
            return 1
        print("verification passed: candidates bit-identical to stateless runs")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import time as _time

    from . import obs
    from .fleet import FleetConfig, FleetStore, FleetSupervisor
    from .serving import AdmissionConfig, LocalizationServer, ServingConfig

    method = _resolve_methods(args.method)[0]
    fleet_config = FleetConfig(
        shards_per_layout=args.shards,
        k=args.k,
    )
    admission = AdmissionConfig(
        max_queue_depth=args.max_queue_depth,
        soft_queue_depth=args.soft_queue_depth if args.soft_queue_depth > 0 else None,
        tenant_inflight_limit=args.tenant_inflight,
        degraded_deadline_ms=args.degraded_deadline_ms,
    )
    serving_config = ServingConfig(
        host=args.host,
        port=args.port,
        binary_port=None if args.no_binary else args.binary_port,
        admission=admission,
        request_timeout_s=args.request_timeout_s,
        tenants=args.tenants.split(",") if args.tenants else None,
        default_deadline_ms=args.deadline_ms,
    )
    store = FleetStore(args.store) if args.store else None
    supervisor = FleetSupervisor(method, config=fleet_config, store=store)
    try:
        with obs.capture(ring_only=True):
            with LocalizationServer(supervisor, serving_config) as server:
                binary = (
                    f", binary frames on port {server.binary_port}"
                    if server.binary_port is not None
                    else ""
                )
                print(
                    f"serving: POST {server.url}/localize "
                    f"(telemetry at /metrics /healthz /readyz){binary}"
                )
                print(
                    f"admission: depth<={admission.max_queue_depth} "
                    f"(degraded band at {admission.soft_queue_depth}), "
                    f"{admission.tenant_inflight_limit}/tenant; Ctrl-C drains and exits"
                )
                try:
                    while True:
                        if (
                            args.max_requests is not None
                            and server.requests_served >= args.max_requests
                        ):
                            break
                        _time.sleep(0.1)
                except KeyboardInterrupt:
                    print("\ndraining...")
            print(f"served {server.requests_served} request(s)")
    finally:
        if store is not None:
            store.close()
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from .obs.export import read_jsonl
    from .obs.profile import profile_records, render_profile

    records = read_jsonl(args.trace)
    profiles = profile_records(records)
    if not profiles:
        print(f"{args.trace}: no span records to profile")
        return 1
    print(render_profile(profiles, top=args.top))
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    cases = load_cases(args.cases)
    methods = _resolve_methods(args.methods)
    print(f"{len(cases)} cases, {len(methods)} methods, protocol={args.protocol}")
    if args.protocol == "f1":
        evaluations = {
            m.name: run_cases(m, cases, k_from_truth=True)
            for m in methods
        }
        rows = [
            [name, f"{ev.mean_f1:.3f}", format_seconds(ev.mean_seconds)]
            for name, ev in evaluations.items()
        ]
        print(render_table(["method", "mean F1", "mean time"], rows))
    else:
        evaluations = {
            m.name: run_cases(m, cases, k=5) for m in methods
        }
        rows = [
            [
                name,
                f"{ev.recall_at(3):.3f}",
                f"{ev.recall_at(4):.3f}",
                f"{ev.recall_at(5):.3f}",
                format_seconds(ev.mean_seconds),
            ]
            for name, ev in evaluations.items()
        ]
        print(render_table(["method", "RC@3", "RC@4", "RC@5", "mean time"], rows))
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    from .data.validation import validate_cases

    cases = load_cases(args.cases)
    report = validate_cases(cases)
    print(report.render())
    return 0 if report.ok else 1


def _cmd_analyze(args: argparse.Namespace) -> int:
    from .analysis import analyze_failures, profile_classification_power

    cases = load_cases(args.cases)
    method = _resolve_methods(args.method)[0]
    evaluation = run_cases(method, cases, k=args.k)
    print(analyze_failures(evaluation, top_k=args.k).render())
    profile = profile_classification_power(cases)
    print(
        f"\nCP profile over {len(cases)} cases: "
        f"AUC(in-RAP vs out) = {profile.auc():.3f}, "
        f"recommended t_CP = {profile.recommended_t_cp():.4f}"
    )
    return 0


def _cmd_reproduce(args: argparse.Namespace) -> int:
    preset = _preset(args.scale, args.seed)
    target = args.target
    if target == "table4":
        ratios = table4()
        print(
            render_table(
                ["k"] + [str(k) for k in ratios],
                [["DecreaseRatio@k"] + [f"{v:.5f}" for v in ratios.values()]],
            )
        )
        return 0
    if target in ("fig8a", "fig9a"):
        evaluations = run_squeeze_comparison(preset.squeeze_cases())
        if target == "fig8a":
            print(render_series_table(figure8a(evaluations), column_order=GROUP_ORDER))
        else:
            print(
                render_series_table(
                    figure9a(evaluations), value_format="{:.4f}", column_order=GROUP_ORDER
                )
            )
        return 0
    cases = preset.rapmd_cases()
    if target == "fig8b":
        evaluations = run_rapmd_comparison(cases)
        print(
            render_series_table(
                figure8b(evaluations), column_order=[3, 4, 5], first_header="method \\ k"
            )
        )
    elif target == "fig9b":
        evaluations = run_rapmd_comparison(cases)
        rows = [
            [name, format_seconds(seconds)]
            for name, seconds in figure9b(evaluations).items()
        ]
        print(render_table(["method", "mean time"], rows))
    elif target == "fig10a":
        curve = figure10a(cases)
        print(
            render_table(
                ["t_CP"] + [f"{t:g}" for t in curve],
                [["RC@3"] + [f"{v:.3f}" for v in curve.values()]],
            )
        )
    elif target == "fig10b":
        curve = figure10b(cases)
        print(
            render_table(
                ["t_conf"] + [f"{t:g}" for t in curve],
                [["RC@3"] + [f"{v:.3f}" for v in curve.values()]],
            )
        )
    elif target == "table6":
        result = table6(cases)
        print(
            render_table(
                ["variant", "RC@3", "mean time"],
                [
                    [
                        "with deletion",
                        f"{result.rc3_with_deletion:.3f}",
                        format_seconds(result.seconds_with_deletion),
                    ],
                    [
                        "without deletion",
                        f"{result.rc3_without_deletion:.3f}",
                        format_seconds(result.seconds_without_deletion),
                    ],
                ],
            )
        )
    return 0


# -- parser -------------------------------------------------------------------


def _add_resilience_flags(subparser: argparse.ArgumentParser) -> None:
    subparser.add_argument(
        "--deadline-ms",
        type=float,
        default=None,
        metavar="MS",
        help="per-run wall-clock budget; over-budget searches return the "
        "candidates found so far (stop_reason=deadline)",
    )
    subparser.add_argument(
        "--degrade",
        action="store_true",
        help="enable the default graceful-degradation ladder "
        "(delta -> full -> layer_capped; see docs/resilience.md)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="RAPMiner reproduction toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    generate = sub.add_parser("generate", help="generate a benchmark case bundle")
    generate.add_argument("dataset", choices=["rapmd", "squeeze"])
    generate.add_argument("--out", required=True, help="output JSON path")
    generate.add_argument("--scale", choices=["fast", "paper"], default="fast")
    generate.add_argument("--seed", type=int, default=0)
    generate.set_defaults(handler=_cmd_generate)

    localize = sub.add_parser("localize", help="run one localizer over a bundle")
    localize.add_argument("--cases", required=True, help="case bundle JSON")
    localize.add_argument("--method", default="RAPMiner")
    localize.add_argument("--k", type=int, default=None)
    localize.add_argument("--case-id", default=None)
    localize.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="capture spans and engine counters, written as JSONL to PATH",
    )
    _add_resilience_flags(localize)
    localize.set_defaults(handler=_cmd_localize)

    batch = sub.add_parser(
        "batch-localize",
        help="run one localizer over a bundle, one fleet worker per layout",
    )
    batch.add_argument("--cases", required=True, help="case bundle (.json or .npz)")
    batch.add_argument("--method", default="RAPMiner")
    batch.add_argument("--k", type=int, default=None, help="top-k (default: k from truth)")
    _add_resilience_flags(batch)
    batch.set_defaults(handler=_cmd_batch)

    fleet = sub.add_parser(
        "fleet-localize",
        help="serve a bundle through the multi-tenant fleet",
    )
    fleet.add_argument("--cases", help="case bundle (.json or .npz)")
    fleet.add_argument("--method", default="RAPMiner")
    fleet.add_argument("--k", type=int, default=None, help="top-k (default: k from truth)")
    fleet.add_argument(
        "--shards", type=int, default=2, help="workers per schema layout FIFO"
    )
    fleet.add_argument(
        "--store", help="append cases and results to this segment log"
    )
    fleet.add_argument(
        "--replay",
        help="re-run the cases persisted in this segment log and verify "
        "the results match the persisted rows bit-exactly",
    )
    fleet.add_argument(
        "--warm-start",
        help="prime worker engines from this segment log before serving",
    )
    _add_resilience_flags(fleet)
    fleet.set_defaults(handler=_cmd_fleet_localize)

    stream = sub.add_parser(
        "stream-localize",
        help="replay a bundle as one tick stream through the delta pipeline",
    )
    stream.add_argument("--cases", required=True, help="case bundle (.json or .npz)")
    stream.add_argument("--k", type=int, default=None, help="top-k (default: k from truth)")
    stream.add_argument(
        "--crossover",
        default="auto",
        metavar="FRACTION",
        help="changed-leaf fraction above which a tick aggregates cold: "
        "'auto' (measured break-even, default) or a float in (0, 1]",
    )
    stream.add_argument(
        "--verify",
        action="store_true",
        help="re-run each tick statelessly and assert bit-identical candidates",
    )
    stream.add_argument(
        "--serve-metrics",
        default=None,
        metavar="HOST:PORT",
        help="serve /metrics, /healthz, /readyz, /debug/spans and "
        "/debug/profile live for the lifetime of the replay "
        "(PORT alone binds 127.0.0.1; port 0 picks an ephemeral port)",
    )
    _add_resilience_flags(stream)
    stream.set_defaults(handler=_cmd_stream_localize)

    serve = sub.add_parser(
        "serve",
        help="serve localization requests over a warm-engine fleet "
        "(HTTP JSON + binary frames; see docs/serving.md)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=8765, help="HTTP listener port (0 = ephemeral)"
    )
    serve.add_argument(
        "--binary-port",
        type=int,
        default=0,
        help="RPSV binary listener port (0 = ephemeral; see --no-binary)",
    )
    serve.add_argument(
        "--no-binary", action="store_true", help="disable the binary frame listener"
    )
    serve.add_argument("--method", default="RAPMiner")
    serve.add_argument(
        "--k", type=int, default=None, help="default top-k when a request sends none"
    )
    serve.add_argument(
        "--shards", type=int, default=2, help="workers per schema layout FIFO"
    )
    serve.add_argument(
        "--max-queue-depth",
        type=int,
        default=64,
        help="hard cap on admitted in-flight requests; above it requests "
        "shed with queue_full",
    )
    serve.add_argument(
        "--soft-queue-depth",
        type=int,
        default=48,
        help="depth at which admission turns degraded (tight deadline + "
        "ladder); 0 disables the degraded band",
    )
    serve.add_argument(
        "--tenant-inflight",
        type=int,
        default=16,
        help="max admitted in-flight requests per tenant; more shed with HTTP 429",
    )
    serve.add_argument(
        "--degraded-deadline-ms",
        type=float,
        default=250.0,
        help="deadline pinned on degraded-band admissions",
    )
    serve.add_argument(
        "--deadline-ms",
        type=float,
        default=None,
        metavar="MS",
        help="default per-request budget when the request sends none "
        "(unset = the bit-exact unlimited path)",
    )
    serve.add_argument(
        "--request-timeout-s",
        type=float,
        default=60.0,
        help="server-side cap on waiting for a result (typed timeout past it)",
    )
    serve.add_argument(
        "--tenants",
        default=None,
        help="comma-separated tenant allowlist (default: any tenant)",
    )
    serve.add_argument(
        "--store", help="append served cases and results to this segment log"
    )
    serve.add_argument(
        "--max-requests",
        type=int,
        default=None,
        metavar="N",
        help="exit after answering N requests (smoke tests; default: run forever)",
    )
    serve.set_defaults(handler=_cmd_serve)

    profile = sub.add_parser(
        "profile",
        help="span-family self-time profile of a --trace JSONL capture",
    )
    profile.add_argument("--trace", required=True, help="JSONL trace written by --trace")
    profile.add_argument(
        "--top", type=int, default=15, help="span families to show (by self time)"
    )
    profile.set_defaults(handler=_cmd_profile)

    evaluate = sub.add_parser("evaluate", help="evaluate a method cohort")
    evaluate.add_argument("--cases", required=True)
    evaluate.add_argument(
        "--methods", default=None, help="comma-separated (default: paper cohort)"
    )
    evaluate.add_argument("--protocol", choices=["f1", "rc"], default="rc")
    evaluate.set_defaults(handler=_cmd_evaluate)

    validate = sub.add_parser("validate", help="audit a case bundle for well-posedness")
    validate.add_argument("--cases", required=True)
    validate.set_defaults(handler=_cmd_validate)

    analyze = sub.add_parser(
        "analyze", help="failure taxonomy + CP profile of one method over a bundle"
    )
    analyze.add_argument("--cases", required=True)
    analyze.add_argument("--method", default="RAPMiner")
    analyze.add_argument("--k", type=int, default=3)
    analyze.set_defaults(handler=_cmd_analyze)

    reproduce = sub.add_parser("reproduce", help="regenerate a paper table/figure")
    reproduce.add_argument(
        "target",
        choices=["table4", "table6", "fig8a", "fig8b", "fig9a", "fig9b", "fig10a", "fig10b"],
    )
    reproduce.add_argument("--scale", choices=["fast", "paper"], default="fast")
    reproduce.add_argument("--seed", type=int, default=1)
    reproduce.set_defaults(handler=_cmd_reproduce)

    report = sub.add_parser("report", help="full Markdown reproduction report")
    report.add_argument("--scale", choices=["fast", "paper"], default="fast")
    report.add_argument("--seed", type=int, default=1)
    report.add_argument("--out", default=None)
    report.add_argument("--extensions", action="store_true")
    report.set_defaults(handler=_cmd_report)

    return parser


def _cmd_report(args: argparse.Namespace) -> int:
    from .experiments.report_builder import ReportSections, build_report

    text = build_report(
        scale=args.scale,
        seed=args.seed,
        sections=ReportSections(extensions=args.extensions),
    )
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text)
        print(f"wrote {args.out}")
    else:
        print(text)
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
