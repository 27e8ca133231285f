"""Inputs, reference answers and timed loops of the three workloads.

Every input is generated from the seed alone, and every run does a fixed
number of operations (requests, cases or ticks) given by ``--seconds``
and the workload's nominal rate, never by the clock.  Reference answers
are serial :meth:`repro.RAPMiner.run` calls on a fresh copy of each
dataset, computed during set-up and never timed.

Only package-level exports of ``repro``, ``repro.core``, ``repro.data``
and ``repro.serving`` are imported, so modules can move underneath
without an edit here.
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

import repro
import repro.core as core
import repro.data as data
import repro.serving as serving

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Minute steps in the 35 days of background the paper draws time points from.
HORIZON_STEPS = 35 * 1440


@dataclass(frozen=True)
class Scale:
    """Input sizes and nominal operation rates (operations per ``--seconds``)."""

    schema_sizes: Tuple[int, int, int, int]
    serve_cases: int
    batch_cases: int
    incidents: int
    incident_ticks: int
    serve_requests_per_s: float
    batch_passes_per_s: float
    stream_passes_per_s: float


#: The paper's 33x4x4x20 CDN schema.  Case and incident counts are
#: multiples of the RAP-mix strata (see :func:`injected_cases`).  The rates
#: size a run at about ``--seconds`` on a 2-CPU host; they only set the
#: operation count.
PAPER = Scale((33, 4, 4, 20), 18, 9, 18, 20, 42.0, 132.0, 2.75)
#: A small schema for the self-test.  Its RAPs still cover under 2% of
#: the leaves, so the stream path mix stays the one predicted.
TINY = Scale((16, 4, 4, 20), 3, 9, 6, 5, 10.0, 10.0, 2.0)
SCALES = {"paper": PAPER, "tiny": TINY}


def operation_count(rate: float, seconds: float, traced: bool = False) -> int:
    """Operations per timed loop; a traced run splits its time over two loops."""
    return max(1, int(round(rate * seconds / (2 if traced else 1))))


def injected_cases(
    scale: Scale,
    count: int,
    seed: int,
    dimensions: Sequence[int],
    max_coverage: float = 0.5,
) -> Tuple[List[data.LocalizationCase], List[np.ndarray]]:
    """RAPMD cases: background snapshots at random time points with injected RAPs.

    Case *i* gets ``1 + i % 3`` RAPs of dimension
    ``dimensions[(i // 3) % len(dimensions)]``, so every seed carries the
    same mix of RAP counts and dimensions and only the draws within it
    change.  Drawing the mix itself from the seed made the work, and so
    every timing, differ by 20-25% between seeds.  Returns the cases and
    their ground-truth leaf masks.
    """
    schema = repro.cdn_schema(*scale.schema_sizes)
    rng = np.random.default_rng(seed)
    simulator = data.CDNSimulator(schema, data.CDNSimulatorConfig(seed=seed))
    injection = data.InjectionConfig()
    steps = np.sort(rng.choice(HORIZON_STEPS, size=count, replace=False))
    cases, truths = [], []
    for index, step in enumerate(steps):
        background = simulator.snapshot(int(step)).to_dataset()
        raps = data.sample_raps(
            background,
            1 + index % 3,
            rng,
            dimensions=(dimensions[(index // 3) % len(dimensions)],),
            min_support=4,
            max_coverage=max_coverage,
        )
        labelled, truth = data.inject_failures(background, raps, rng, injection)
        cases.append(
            data.LocalizationCase(f"case-{index:03d}", labelled, tuple(raps), {"step": int(step)})
        )
        truths.append(truth)
    return cases, truths


def fresh_copy(dataset: data.FineGrainedDataset) -> data.FineGrainedDataset:
    """The dataset with no cached engine and no shared arrays."""
    return data.FineGrainedDataset(
        dataset.schema,
        dataset.codes.copy(),
        dataset.v.copy(),
        dataset.f.copy(),
        dataset.labels.copy(),
    )


def reference_candidates(datasets: Sequence[data.FineGrainedDataset]) -> List[list]:
    miner = repro.RAPMiner()
    return [miner.run(fresh_copy(d)).candidates for d in datasets]


def percentiles_ms(seconds: Sequence[float]) -> Dict[str, float]:
    values = np.asarray(seconds) * 1e3
    p50, p90, p99 = np.percentile(values, [50, 90, 99])
    return {"latency_p50_ms": float(p50), "latency_p90_ms": float(p90), "latency_p99_ms": float(p99)}


def reset_peak_rss() -> None:
    """Lower this process's peak RSS mark to its current RSS (Linux ``clear_refs``)."""
    with open("/proc/self/clear_refs", "w") as handle:
        handle.write("5")


def peak_rss_mb(pid="self") -> float:
    """``VmHWM`` of a process: its peak RSS since start or the last reset."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in /proc/{pid}/status")


def usable_cpus() -> List[int]:
    return sorted(os.sched_getaffinity(0))


@contextmanager
def children_on(cpu: Optional[int]) -> Iterator[None]:
    """Processes started inside the block run on *cpu* only (None: anywhere).

    This thread is bound to *cpu* for the block, and a child inherits the
    CPU set of the thread that starts it.
    """
    if cpu is None:
        yield
        return
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {cpu})
    try:
        yield
    finally:
        os.sched_setaffinity(0, cpus)


@contextmanager
def cpu_rotation() -> Iterator[Callable[[int], None]]:
    """Yield ``step``; ``step(i)`` binds this process to its i-th usable CPU.

    ``batch`` and ``stream`` call ``step`` once per pass, so every run
    spends equal time on each CPU it may use; their figures are those of
    the program confined to one core at a time.  The cores of a 2-CPU
    host slow down separately (one was seen 45% slower than the other for
    tens of seconds at a time), and a run left free to use both took the
    speed of the core the scheduler kept it on.  The process's own CPU
    set is restored on exit.
    """
    cpus = usable_cpus()

    def step(index: int) -> None:
        os.sched_setaffinity(0, {cpus[index % len(cpus)]})

    try:
        yield step
    finally:
        os.sched_setaffinity(0, cpus)


def host_probe_ms(repeats: int = 5) -> List[float]:
    """A fixed numpy + interpreter loop; it only shows how fast the host runs."""
    keys = np.random.default_rng(0).integers(0, 4096, 200_000)
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(10):
            np.bincount(keys, minlength=4096)
            sum(range(50_000))
        samples.append((time.perf_counter() - start) * 1e3)
    return samples


# -- batch ------------------------------------------------------------------------


class Batch:
    """Offline evaluation: one ``RAPMiner.run_batch`` call per pass."""

    def __init__(self, scale: Scale, seed: int):
        cases, _ = injected_cases(scale, scale.batch_cases, seed, dimensions=(1, 2, 3))
        self.datasets = [case.dataset for case in cases]
        self.references: Optional[List[list]] = None
        self.miner = repro.RAPMiner()
        self.passes_run = 0

    @property
    def layout_groups(self) -> int:
        return len(core.group_datasets_by_layout(self.datasets))

    def warm_up(self) -> None:
        self.miner.run_batch(self.datasets)

    def run(self, passes: int, tracer=None) -> Dict:
        """Time *passes* passes; return op counts, pass times and span marks.

        The latency samples are pass times averaged over one rotation (a
        pass on each CPU): single pass times split into one mode per core,
        and a median between two modes jumps with their mix.
        """
        failed = 0
        seconds = []
        marks = []
        with cpu_rotation() as step:
            window = time.perf_counter()
            for _ in range(passes):
                step(self.passes_run)
                self.passes_run += 1
                mark = len(tracer) if tracer is not None else 0
                start = time.perf_counter()
                results = self.miner.run_batch(self.datasets)
                seconds.append(time.perf_counter() - start)
                if tracer is not None:
                    marks.append((mark, len(tracer)))
                for result, expected in zip(results, self.references):
                    if result.candidates != expected:
                        failed += 1
            window = time.perf_counter() - window
        n_cpus = len(usable_cpus())
        rotations = [seconds[i : i + n_cpus] for i in range(0, len(seconds), n_cpus)]
        return {
            "attempted": passes * len(self.datasets),
            "failed": failed,
            "window_s": window,
            "latencies_s": [sum(r) / len(r) for r in rotations],
            "marks": marks,
        }


# -- stream -----------------------------------------------------------------------


class Stream:
    """Incident replay through one ``StreamingRAPMiner`` with default knobs.

    Each incident is a fresh background snapshot with 1-3 injected RAPs,
    followed by ticks that redraw the forecast on the RAP rows only.
    In-incident churn stays under the auto crossover's lower clamp and
    boundary churn over its upper clamp, so the tick path is fixed by
    the input: cold at every incident boundary, patched everywhere else.
    """

    def __init__(self, scale: Scale, seed: int):
        # A RAP of dimension 1 covers at least 1/33 of the leaves, too much
        # churn for a patched tick; 0.5% per RAP keeps three under 2%.
        incidents, truths = injected_cases(
            scale, scale.incidents, seed, dimensions=(2, 3), max_coverage=0.005
        )
        rng = np.random.default_rng([seed, 1])
        injection = data.InjectionConfig()
        low, high = injection.anomalous_dev_range
        ticks: List[data.FineGrainedDataset] = []
        for incident, truth in zip(incidents, truths):
            labelled = incident.dataset
            rows = np.flatnonzero(truth)
            ticks.append(labelled)
            for _ in range(scale.incident_ticks - 1):
                dev = rng.uniform(low, high, size=rows.size)
                forecast = labelled.f.copy()
                forecast[rows] = (labelled.v[rows] + dev * injection.epsilon) / (1.0 - dev)
                ticks.append(
                    data.FineGrainedDataset(
                        labelled.schema, labelled.codes, labelled.v, forecast, labelled.labels
                    )
                )
        self.ticks = ticks
        self.references: Optional[List[list]] = None
        self.paths = predicted_paths(ticks, core.DeltaConfig())
        self.miner = core.StreamingRAPMiner()
        self.passes_run = 0

    def arrivals(self) -> List[data.FineGrainedDataset]:
        """One pass of ticks as they arrive: new objects over the input arrays.

        The session installs its engine on each tick's dataset, so a tick
        must be dropped once it is localized, as a live stream drops it.
        Holding every tick would keep one engine per tick alive.
        """
        return [
            data.FineGrainedDataset(t.schema, t.codes, t.v, t.f, t.labels) for t in self.ticks
        ]

    def warm_up(self) -> None:
        for tick in self.arrivals():
            self.miner.run(tick)

    def delta_counts(self) -> Dict[str, int]:
        stats = self.miner.stats
        return {
            "patched": stats.patched_ticks,
            "cold": stats.cold_ticks,
            "rebases": stats.rebases,
            "changed_rows": stats.changed_rows,
        }

    def run(self, passes: int, tracer=None) -> Dict:
        failed = 0
        seconds = []
        marks = []
        before = self.delta_counts()
        window = 0.0
        with cpu_rotation() as step:
            for _ in range(passes):
                step(self.passes_run)
                self.passes_run += 1
                arrivals = self.arrivals()
                started = time.perf_counter()
                for index, expected in enumerate(self.references):
                    tick, arrivals[index] = arrivals[index], None
                    mark = len(tracer) if tracer is not None else 0
                    start = time.perf_counter()
                    result = self.miner.run(tick)
                    seconds.append(time.perf_counter() - start)
                    if tracer is not None:
                        marks.append((mark, len(tracer)))
                    if result.candidates != expected:
                        failed += 1
                    del tick, result
                window += time.perf_counter() - started
        after = self.delta_counts()
        counts = {key: after[key] - before[key] for key in after}
        patched_per_pass = self.paths.count("patched")
        predicted = {
            "patched": passes * patched_per_pass,
            "cold": passes * (len(self.ticks) - patched_per_pass),
        }
        return {
            "attempted": passes * len(self.ticks),
            "failed": failed,
            "window_s": window,
            "latencies_s": seconds,
            "marks": marks,
            "delta": counts,
            "path_mix_ok": all(counts[key] == predicted[key] for key in predicted),
        }


def predicted_paths(ticks: Sequence[data.FineGrainedDataset], config) -> List[str]:
    """Tick paths of a steady replay (each tick diffed against its predecessor).

    Tick 0 follows the last tick of the previous pass.  Raises when a
    tick's churn falls between the auto crossover's clamps, where the
    path would depend on measured latencies.
    """
    low, high = config.auto_bounds
    paths = []
    for index, tick in enumerate(ticks):
        previous = ticks[index - 1]
        if not np.array_equal(previous.codes, tick.codes):
            paths.append("cold")
            continue
        changed = np.count_nonzero(
            (previous.v != tick.v) | (previous.f != tick.f) | (previous.labels != tick.labels)
        )
        fraction = changed / tick.n_rows
        if fraction < low:
            paths.append("patched")
        elif fraction > high:
            paths.append("cold")
        else:
            raise RuntimeError(
                f"tick {index} changes {fraction:.3f} of its leaves, between the "
                f"crossover clamps {low} and {high}; its path is not fixed"
            )
    return paths


# -- serve ------------------------------------------------------------------------


BANNER = re.compile(r"serving: POST (http://\S+)/localize .*binary frames on port (\d+)")


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Server:
    """``repro serve`` with default flags as a child process (ephemeral ports).

    With *cpu* set the server and all its threads run on that CPU only.
    """

    def __init__(self, spans_path: Optional[str] = None, cpu: Optional[int] = None):
        if spans_path is None:
            prefix = [sys.executable, "-u", "-m", "repro.cli"]
        else:
            prefix = [sys.executable, "-u", str(HERE / "serve_child.py"), spans_path]
        with children_on(cpu):
            self.proc = subprocess.Popen(
                prefix + ["serve", "--port", "0", "--binary-port", "0"],
                stdout=subprocess.PIPE,
                stdin=subprocess.DEVNULL,
                text=True,
                cwd=str(ROOT),
                env=child_env(),
            )
        self.http_host = self.http_port = self.binary_port = None
        for line in self.proc.stdout:
            match = BANNER.search(line)
            if match:
                url, binary = match.groups()
                host, port = url[len("http://"):].rsplit(":", 1)
                self.http_host, self.http_port = host, int(port)
                self.binary_port = int(binary)
                break
        if self.binary_port is None:
            self.stop()
            raise RuntimeError("repro serve exited before printing its banner")

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.proc.pid)

    def cold_engine_builds(self) -> int:
        text = serving.ServingClient(self.http_host, self.http_port).metrics()
        match = re.search(r'^fleet_engine_builds_total\{outcome="cold"\} (\S+)$', text, re.M)
        return int(float(match.group(1))) if match else 0

    def stop(self) -> None:
        """SIGINT drains and exits; the server is killed if it does not."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
        try:
            self.proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()


class Serve:
    """Closed loop, one client, one persistent RPSV binary connection."""

    def __init__(self, scale: Scale, seed: int):
        cases, _ = injected_cases(scale, scale.serve_cases, seed, dimensions=(1, 2, 3))
        self.datasets = [case.dataset for case in cases]
        self.frames = [
            serving.encode_frame(serving.KIND_REQUEST, serving.localize_payload(case))
            for case in cases
        ]
        self.references: Optional[List[list]] = None

    def root_causes(self) -> List[List[str]]:
        return [[str(c.combination) for c in ref] for ref in self.references]

    def start(
        self, spans_path: Optional[str] = None, cpu: Optional[int] = None
    ) -> Tuple[Server, object, float]:
        """Spawn a server and run the warm-up pass; returns it with the set-up time."""
        started = time.perf_counter()
        server = Server(spans_path, cpu)
        try:
            client = serving.BinaryServingClient(server.http_host, server.binary_port)
            for frame in self.frames:
                client.send_raw(frame)
                client.read_response()
        except BaseException:
            server.stop()
            raise
        return server, client, time.perf_counter() - started

    def run(self, client, requests: int) -> Dict:
        """Closed loop of *requests* requests.

        The server's CPUs are left to the kernel: binding its threads to
        one core changes how they share the host and made request times
        bimodal.
        """
        replies = []
        seconds = []
        frames = self.frames
        window = time.perf_counter()
        for index in range(requests):
            start = time.perf_counter()
            client.send_raw(frames[index % len(frames)])
            replies.append(client.read_response())
            seconds.append(time.perf_counter() - start)
        window = time.perf_counter() - window
        expected = self.root_causes()
        failed = sum(
            1
            for index, body in enumerate(replies)
            if not full_answer(body, expected[index % len(frames)])
        )
        response_bytes = [
            len(serving.encode_frame(serving.KIND_RESPONSE, body)) for body in replies
        ]
        return {
            "attempted": requests,
            "failed": failed,
            "window_s": window,
            "latencies_s": seconds,
            "request_bytes": float(np.median([len(frames[i % len(frames)]) for i in range(requests)])),
            "response_bytes": float(np.median(response_bytes)),
        }


def full_answer(body: Dict, root_causes: List[str]) -> bool:
    """An ok reply of the full tier, not cut by a deadline, with the expected answer."""
    return (
        body.get("status") == "ok"
        and body.get("tier") == "full"
        and body.get("stop_reason") != "deadline"
        and body.get("root_causes") == root_causes
    )
