"""Soak: thousands of RPSV requests through one in-process server.

The first check of a bounded long-running ``repro serve``: after 2,000+
raw-column request frames over one connection, the process holds the
same open file descriptors and live threads as before the server
started, and traced Python memory does not grow over the second half
of the run.  The soak runs twice: bare, and under the ring-only
collector ``repro serve`` installs (``obs.capture(ring_only=True)``),
whose spans and metrics must stay bounded too.  Part of
``make serve-smoke``.
"""

from __future__ import annotations

import gc
import os
import threading
import tracemalloc

import pytest

from repro import obs
from repro.core.miner import RAPMiner
from repro.data.rapmd import RAPMDConfig, generate_rapmd
from repro.data.schema import cdn_schema
from repro.fleet import FleetConfig, FleetSupervisor
from repro.serving import (
    KIND_REQUEST,
    BinaryServingClient,
    LocalizationServer,
    ServingConfig,
    encode_frame,
    localize_payload,
)

#: Requests in the soak (the second half is the one measured).
REQUESTS = 2_000
#: Largest traced-memory growth allowed over the second half.  A leak of
#: one request buffer (~1 KB here) per request would be ~1 MB.
GROWTH_BOUND = 256 * 1024
FD_DIR = "/proc/self/fd"


def open_fds() -> int:
    return len(os.listdir(FD_DIR))


def soak() -> None:
    cases = generate_rapmd(
        cdn_schema(4, 2, 2, 3), RAPMDConfig(n_cases=4, n_days=2, seed=9)
    )
    miner = RAPMiner()
    expected = [
        [str(p) for p in miner.localize(case.dataset, len(case.true_raps))]
        for case in cases
    ]
    frames = [
        encode_frame(KIND_REQUEST, localize_payload(case, k=len(case.true_raps)))
        for case in cases
    ]
    gc.collect()
    fds_before = open_fds()
    threads_before = threading.active_count()

    supervisor = FleetSupervisor(RAPMiner(), config=FleetConfig(shards_per_layout=2))
    server = LocalizationServer(supervisor, ServingConfig(port=0, binary_port=0))
    with server:
        with BinaryServingClient("127.0.0.1", server.binary_port) as client:

            def run(start: int, stop: int) -> None:
                for index in range(start, stop):
                    client.send_raw(frames[index % len(frames)])
                    body = client.read_response()
                    assert body["status"] == "ok", body
                    assert body["root_causes"] == expected[index % len(frames)]

            half = REQUESTS // 2
            run(0, half)
            gc.collect()
            tracemalloc.start()
            try:
                middle = tracemalloc.get_traced_memory()[0]
                run(half, REQUESTS)
                gc.collect()
                end = tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()
        assert server.requests_served == REQUESTS
    assert end - middle < GROWTH_BOUND, f"grew {end - middle} bytes"
    gc.collect()
    assert open_fds() == fds_before
    assert threading.active_count() == threads_before


@pytest.mark.skipif(not os.path.isdir(FD_DIR), reason="needs /proc/self/fd")
def test_binary_plane_soak_holds_fds_threads_and_memory():
    soak()


@pytest.mark.skipif(not os.path.isdir(FD_DIR), reason="needs /proc/self/fd")
def test_binary_plane_soak_under_the_serving_collector():
    with obs.capture(ring_only=True):
        soak()
