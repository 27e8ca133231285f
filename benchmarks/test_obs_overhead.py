"""The "off = free" guard for the observability subsystem.

The contract (``docs/observability.md``): with no collector installed,
instrumented hot paths pay a single boolean check — spans, counters, SLO
tracking and the telemetry server must all cost nothing when nobody is
looking.  This report enforces that from two directions:

* **Micro** — per-operation ceilings on the disabled primitives: a
  disabled ``obs.span(...)`` call, the pre-checked
  ``trace.NULL_SPAN_CONTEXT`` fast path, the guarded counter pattern
  (``if trace.ACTIVE: obs.inc(...)``).  Ceilings are set an order of
  magnitude above the measured cost on an idle box, so they catch a
  regression to lock-taking or allocation, not scheduler jitter.
* **Macro** — a full localization workload run twice with obs disabled
  (two independent batches): the min-of-batch times must agree within a
  noise band, demonstrating the disabled path is a stable floor, and the
  same workload under an active capture is reported (compared loosely
  here, so a 10x instrumentation blow-up still fails).
* **Serve** — what ``repro serve`` pays: it always runs under the
  ring-only collector, so capture cost there is not a diagnosis price but
  a tax on every request.  An in-process :class:`LocalizationServer`
  answers paper-scale (33x4x4x20) RPSV requests in alternating blocks
  with no collector and under ``obs.capture(ring_only=True)``; the median
  over rounds of the paired block-median difference is the per-request
  tax, gated against a ceiling so it cannot creep back.

Writes ``BENCH_obs.json`` at the repo root.
"""

from __future__ import annotations

import gc
import json
import statistics
import time
from pathlib import Path

import numpy as np

from repro import obs
from repro.core.config import RAPMinerConfig
from repro.core.miner import RAPMiner
from repro.data.cdn_simulator import CDNSimulator, CDNSimulatorConfig
from repro.data.injection import LocalizationCase, inject_failures, sample_raps
from repro.data.schema import cdn_schema
from repro.fleet import FleetSupervisor
from repro.obs import trace
from repro.serving import (
    KIND_REQUEST,
    BinaryServingClient,
    LocalizationServer,
    ServingConfig,
    encode_frame,
    localize_payload,
)

REPORT_PATH = Path(__file__).resolve().parents[1] / "BENCH_obs.json"

#: Micro-op ceilings (seconds/op) — ~10x the measured cost on this box.
DISABLED_SPAN_CEILING = 20e-6
NULL_CONTEXT_CEILING = 5e-6
GUARDED_INC_CEILING = 2e-6
#: Macro: the two disabled batches must agree within this fraction.
OFF_NOISE_BAND = 0.35
#: Capture-on must stay within this factor of off (loose: catches blow-ups).
CAPTURE_FACTOR_CEILING = 5.0

#: Serve: the ring-only capture's per-request tax, as a fraction of the
#: uncaptured request.  Measured 0.06-0.09 (0.09-0.15 ms) on a 2-CPU
#: Xeon host; it was 0.19-0.21 there while every engine event bumped a
#: registry counter and every request wrote the SLO and queue gauges.
#: The ceiling leaves room for scheduler noise, not for that cost.
SERVE_RING_TAX_CEILING = 0.15

MICRO_OPS = 20_000
MACRO_RUNS = 12
CONFIG = RAPMinerConfig(enable_attribute_deletion=False)
#: Serve: paper-scale cases, alternating rounds, requests per block.
SERVE_CASES = 6
SERVE_ROUNDS = 30
SERVE_BLOCK = 30


def _build_workload():
    """One labelled 2-RAP incident snapshot at the small CDN shape."""
    schema = cdn_schema(8, 4, 4, 6)
    sim = CDNSimulator(schema, CDNSimulatorConfig(seed=17))
    background = sim.snapshot(300).to_dataset()
    rng = np.random.default_rng(17)
    raps = sample_raps(background, 2, rng, dimensions=[2], min_support=8)
    mask = np.zeros(background.n_rows, dtype=bool)
    for rap in raps:
        mask |= background.mask_of(rap)
    f = background.v.copy()
    f[mask] = background.v[mask] / 0.55
    from repro.data.dataset import FineGrainedDataset

    return FineGrainedDataset(
        background.schema, background.codes, background.v, f, mask
    )


def _serve_frames():
    """RPSV request frames of paper-scale incidents over one leaf population."""
    schema = cdn_schema(33, 4, 4, 20)
    sim = CDNSimulator(schema, CDNSimulatorConfig(seed=7))
    rng = np.random.default_rng(7)
    frames = []
    for index in range(SERVE_CASES):
        background = sim.snapshot(1440 * (index + 1)).to_dataset()
        raps = sample_raps(
            background, 1 + index % 3, rng, dimensions=[1 + index % 3], min_support=4
        )
        labelled, __ = inject_failures(background, raps, rng)
        case = LocalizationCase(f"serve-{index}", labelled, tuple(raps))
        frames.append(encode_frame(KIND_REQUEST, localize_payload(case)))
    return frames


def _serve_block(client, frames, count: int) -> float:
    """Median seconds of *count* closed-loop requests."""
    seconds = []
    for index in range(count):
        start = time.perf_counter()
        client.send_raw(frames[index % len(frames)])
        body = client.read_response()
        seconds.append(time.perf_counter() - start)
        assert body["status"] == "ok", body
    return statistics.median(seconds)


def _serve_ring_tax(frames):
    """Per-request cost of ``repro serve``'s ring-only capture.

    Off and ring blocks alternate on one live server (an off block on
    each side of every ring block), so drift in the host's speed cancels
    in each round's difference.  Returns ``(off_s, ring_s, tax_s)``,
    medians over rounds.
    """
    offs, rings, taxes = [], [], []
    supervisor = FleetSupervisor(RAPMiner())
    with LocalizationServer(supervisor, ServingConfig(port=0, binary_port=0)) as server:
        client = BinaryServingClient("127.0.0.1", server.binary_port)
        try:
            _serve_block(client, frames, 2 * len(frames))  # warm the workers
            for __ in range(SERVE_ROUNDS):
                before = _serve_block(client, frames, SERVE_BLOCK)
                with obs.capture(ring_only=True):
                    ring = _serve_block(client, frames, SERVE_BLOCK)
                after = _serve_block(client, frames, SERVE_BLOCK)
                off = (before + after) / 2
                offs.append(off)
                rings.append(ring)
                taxes.append(ring - off)
        finally:
            client.close()
    return statistics.median(offs), statistics.median(rings), statistics.median(taxes)


def _time_ops(op, n: int) -> float:
    start = time.perf_counter()
    for __ in range(n):
        op()
    return (time.perf_counter() - start) / n


def _time_macro(dataset) -> float:
    """Min-of-runs wall time for one stateless localization."""
    best = float("inf")
    for __ in range(MACRO_RUNS):
        gc.collect()
        miner = RAPMiner(CONFIG)
        start = time.perf_counter()
        miner.run(dataset)
        best = min(best, time.perf_counter() - start)
    return best


def _disabled_span():
    with obs.span("bench.noop"):
        pass


def _null_context():
    with trace.NULL_SPAN_CONTEXT:
        pass


def _guarded_inc():
    if trace.ACTIVE:
        obs.inc("bench_noop_total")


def test_obs_overhead_report(capsys):
    assert not obs.is_active(), "a collector leaked in from another test"

    span_cost = _time_ops(_disabled_span, MICRO_OPS)
    null_cost = _time_ops(_null_context, MICRO_OPS)
    inc_cost = _time_ops(_guarded_inc, MICRO_OPS)

    dataset = _build_workload()
    RAPMiner(CONFIG).run(dataset)  # warm numpy / import costs off the clock
    off_a = _time_macro(dataset)
    off_b = _time_macro(dataset)
    off = min(off_a, off_b)
    off_noise = abs(off_a - off_b) / off

    with obs.capture():
        on = _time_macro(dataset)
    capture_factor = on / off

    serve_off, serve_ring, serve_tax = _serve_ring_tax(_serve_frames())
    serve_tax_fraction = serve_tax / serve_off

    report = {
        "benchmark": "observability off-is-free guard",
        "micro_ops": MICRO_OPS,
        "disabled_span_s_per_op": span_cost,
        "null_context_s_per_op": null_cost,
        "guarded_inc_s_per_op": inc_cost,
        "macro_runs": MACRO_RUNS,
        "off_batch_a_s": off_a,
        "off_batch_b_s": off_b,
        "off_noise_fraction": off_noise,
        "capture_on_s": on,
        "capture_factor": capture_factor,
        "serve_rounds": SERVE_ROUNDS,
        "serve_block_requests": SERVE_BLOCK,
        "serve_off_s": serve_off,
        "serve_ring_s": serve_ring,
        "serve_ring_tax_s": serve_tax,
        "serve_ring_tax_fraction": serve_tax_fraction,
        "ceilings": {
            "disabled_span_s_per_op": DISABLED_SPAN_CEILING,
            "null_context_s_per_op": NULL_CONTEXT_CEILING,
            "guarded_inc_s_per_op": GUARDED_INC_CEILING,
            "off_noise_band": OFF_NOISE_BAND,
            "capture_factor": CAPTURE_FACTOR_CEILING,
            "serve_ring_tax_fraction": SERVE_RING_TAX_CEILING,
        },
        "meets_target": bool(
            span_cost < DISABLED_SPAN_CEILING
            and null_cost < NULL_CONTEXT_CEILING
            and inc_cost < GUARDED_INC_CEILING
            and off_noise <= OFF_NOISE_BAND
            and capture_factor <= CAPTURE_FACTOR_CEILING
            and serve_tax_fraction <= SERVE_RING_TAX_CEILING
        ),
    }
    REPORT_PATH.write_text(json.dumps(report, indent=2) + "\n")

    with capsys.disabled():
        print("\n[obs overhead] disabled primitives (per op):")
        print(
            f"  span {span_cost * 1e6:6.2f} us   null-context {null_cost * 1e6:6.2f} us"
            f"   guarded inc {inc_cost * 1e9:6.1f} ns"
        )
        print(
            f"  macro off: {off_a * 1e3:.2f} / {off_b * 1e3:.2f} ms "
            f"(noise {off_noise:.1%}), capture on: {on * 1e3:.2f} ms "
            f"({capture_factor:.2f}x)  report: {REPORT_PATH.name}"
        )
        print(
            f"  serve request off: {serve_off * 1e3:.3f} ms, ring-only capture: "
            f"{serve_ring * 1e3:.3f} ms (tax {serve_tax * 1e3:.3f} ms, "
            f"{serve_tax_fraction:.1%})"
        )

    assert span_cost < DISABLED_SPAN_CEILING, (
        f"disabled span() costs {span_cost * 1e6:.2f} us/op "
        f"(ceiling {DISABLED_SPAN_CEILING * 1e6:.0f} us) — the off path regressed"
    )
    assert null_cost < NULL_CONTEXT_CEILING, (
        f"NULL_SPAN_CONTEXT costs {null_cost * 1e6:.2f} us/op "
        f"(ceiling {NULL_CONTEXT_CEILING * 1e6:.0f} us)"
    )
    assert inc_cost < GUARDED_INC_CEILING, (
        f"guarded counter bump costs {inc_cost * 1e9:.0f} ns/op "
        f"(ceiling {GUARDED_INC_CEILING * 1e9:.0f} ns)"
    )
    assert off_noise <= OFF_NOISE_BAND, (
        f"obs-disabled batches disagree by {off_noise:.1%} "
        f"(band {OFF_NOISE_BAND:.0%}) — host too noisy to certify the floor"
    )
    assert capture_factor <= CAPTURE_FACTOR_CEILING, (
        f"capture-on runs {capture_factor:.1f}x the disabled path "
        f"(ceiling {CAPTURE_FACTOR_CEILING:.0f}x) — instrumentation blow-up"
    )
    assert serve_tax_fraction <= SERVE_RING_TAX_CEILING, (
        f"the ring-only capture adds {serve_tax_fraction:.1%} to a served request "
        f"(ceiling {SERVE_RING_TAX_CEILING:.0%}) — repro serve's always-on telemetry regressed"
    )
