"""Fleet supervisor: the executor for many concurrent localization cases.

:class:`FleetSupervisor` runs ``repro fleet-localize`` and the ``repro
serve`` front door.  Cases queue on **one FIFO per schema layout** (the
``(attribute names, sizes)`` pair that decides whether two cases can
share an engine's code-derived caches).  Each FIFO is served by
:attr:`FleetConfig.shards_per_layout` workers, and each worker carries
its engine from one case to the next on its own
:class:`~repro.core.delta.DeltaSession`: a case over the previous case's
leaf population patches the cached aggregates when few leaves changed
and warm-clones the engine when many did; any other case builds cold.
Warm clones share mutable caches with their source, so an engine never
passes from one worker to another.  A shared FIFO balances its workers
by itself: whichever worker is free takes the next item.

Determinism contract: each case's localization touches only that case's
dataset and engine, patched and warm-cloned engines are bitwise-equal to
cold builds (the delta session's invariant), and :meth:`~FleetSupervisor.drain`
reassembles results by submission sequence id — so fleet output is
**bit-identical to a serial run** of the same cases, whatever the worker
interleaving, worker count, tenant mix, or crash pattern.  The property
suite drives randomized interleavings through the ``inline`` mode to
check exactly this.

Completion: every finished case becomes one :class:`CaseOutcome`.  A
case submitted with an ``on_done`` callback hands its outcome to that
callback (the serving front door resolves a response future there) and
the fleet keeps nothing of it; a case submitted without one is kept for
:meth:`~FleetSupervisor.drain`.  The fleet has no admission control of
its own: per-tenant shares are the serving tier's
:class:`~repro.serving.admission.AdmissionController`'s job.

Crash handling composes with the resilience layer's contract: an
exception escaping a worker's localizer (e.g. the chaos harness's
:class:`~repro.resilience.chaos.WorkerCrash`) requeues the case that was
running **once** onto the same FIFO, and the worker keeps serving.  A
case whose second attempt also dies degrades to a
:class:`~repro.experiments.runner.CaseResult` with the failure on
``error``, never a raised batch.
"""

from __future__ import annotations

import inspect
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from .. import obs
from ..core.delta import DeltaSession, DeltaTick
from ..data.dataset import FineGrainedDataset
from ..data.injection import LocalizationCase
from ..experiments.runner import CaseResult, MethodEvaluation
from ..metrics.timing import time_localization
from ..obs import trace as _trace
from ..obs.metrics import MetricRegistry
from ..resilience.budget import Budget
from ..resilience.degrade import DegradationPolicy
from .store import FleetStore

__all__ = [
    "CaseOutcome",
    "FleetConfig",
    "FleetItem",
    "FleetSupervisor",
    "LayoutKey",
    "fleet_localize",
    "layout_key",
    "replay_store",
    "tenant_of",
]

#: Metadata key carrying a case's tenant; absent means ``"default"``.
TENANT_KEY = "tenant"

#: A layout key: the schema identity that decides engine-cache
#: compatibility, and so which FIFO a case queues on.
LayoutKey = Tuple[Tuple[str, ...], Tuple[int, ...]]


def layout_key(dataset: FineGrainedDataset) -> LayoutKey:
    """The FIFO key of *dataset* (schema names and sizes)."""
    return (tuple(dataset.schema.names), tuple(dataset.schema.sizes))


def tenant_of(case: LocalizationCase) -> str:
    """The tenant a case belongs to (``metadata["tenant"]`` or default)."""
    return str(case.metadata.get(TENANT_KEY, "default"))


@dataclass
class FleetConfig:
    """Tuning knobs of one fleet run (see ``docs/operational.md``)."""

    #: Workers serving each schema layout's FIFO.
    shards_per_layout: int = 2
    #: ``"thread"`` runs one thread per worker; ``"inline"`` single-steps
    #: workers deterministically in the calling thread (property tests).
    mode: str = "thread"
    #: Ranked patterns to keep per case (``None`` = all; overridden per
    #: case by ``k_from_truth``).
    k: Optional[int] = None
    #: Use ``len(case.true_raps)`` as each case's ``k`` (oracle cardinality).
    k_from_truth: bool = False
    #: Inline-mode worker interleaving: a ``random.Random``-like object
    #: with ``choice`` picks which ready worker steps next; ``None`` is
    #: round-robin.  Ignored in thread mode.
    schedule: Optional[object] = None

    def __post_init__(self) -> None:
        if self.mode not in ("thread", "inline"):
            raise ValueError(f"mode must be 'thread' or 'inline', got {self.mode!r}")
        if self.shards_per_layout < 1:
            raise ValueError(
                f"shards_per_layout must be >= 1, got {self.shards_per_layout}"
            )


@dataclass
class FleetItem:
    """One queued localization case, tagged for its FIFO and its sequence.

    ``seq`` is the global submission order — the only ordering the
    fleet's output respects.  ``attempts`` counts executions started; a
    crashed item requeues once (``attempts == 1``) before degrading to
    an error record.  ``on_done`` receives the item's
    :class:`CaseOutcome` when it finishes (``None``: :meth:`FleetSupervisor.drain`
    collects it instead).

    ``deadline_ms`` / ``degrade`` are the per-request resilience
    contract of the serving front door (:mod:`repro.serving`): a
    deadline-carrying item runs through the method's budget-aware
    ``run`` path (when it has one) so one slow request degrades itself
    instead of stalling its worker; items without a deadline take the
    plain ``localize`` path, bit-identical to a serial run.
    """

    seq: int
    tenant: str
    case: LocalizationCase
    layout: LayoutKey
    attempts: int = 0
    #: Per-item wall-clock budget in milliseconds (``None`` = unlimited).
    deadline_ms: Optional[float] = None
    #: Apply the default degradation ladder while the budget drains.
    degrade: bool = False
    #: Per-item top-k override (``None`` = the fleet config's policy).
    k: Optional[int] = None
    #: Completion callback, called off the lock by the finishing worker.
    on_done: Optional[Callable[["CaseOutcome"], None]] = None
    #: Set (under the supervisor lock) once the outcome is recorded; a
    #: crash after that leaves nothing to redo.
    finished: bool = False


@dataclass(frozen=True)
class CaseOutcome:
    """One finished case: a result, an error row, or a deadline-stopped result.

    The only record the fleet makes of a finished case.  It goes to the
    item's ``on_done`` callback, or is kept until :meth:`FleetSupervisor.drain`
    turns it into a :class:`~repro.experiments.runner.CaseResult` row.
    The fields beyond that row (tenant, worker, stop reason, degradation
    tier) are what a network response needs.
    """

    seq: int
    case_id: str
    tenant: str
    predicted: Tuple
    true_raps: Tuple
    seconds: float
    #: The case's ``metadata["group"]``, as in ``run_cases``.
    group: Optional[str] = None
    #: Id of the worker that ran the case (``None`` for error rows).
    shard: Optional[int] = None
    error: Optional[str] = None
    #: Search stop reason when the item ran the budget-aware path
    #: (``"deadline"`` marks a partial result), else ``None``.
    stop_reason: Optional[str] = None
    #: Degradation-ladder rung that served the item (``None`` = full).
    tier: Optional[str] = None


@dataclass
class _Worker:
    """One worker of a layout FIFO and its private engine session."""

    worker_id: int
    layout: LayoutKey
    #: Carries the engine of the last case this worker ran to the next.
    session: DeltaSession = field(default_factory=DeltaSession)
    #: The thread serving this worker, while one runs (thread mode).
    thread: Optional[threading.Thread] = None


def _build_outcome(tick: DeltaTick) -> str:
    """The ``fleet_engine_builds_total`` label of one resolved tick."""
    if tick.path == "patched":
        return "patched"
    if tick.reason in ("first_tick", "layout_change"):
        return "cold"
    return "warm"


@dataclass
class _LayoutQueue:
    """One layout's FIFO, its wake-up condition and its workers."""

    items: deque
    ready: threading.Condition
    workers: List[_Worker]
    #: ``fleet_queue_depth`` label: ``name=size`` per attribute.
    label: str


class FleetSupervisor:
    """Owns the layout FIFOs, their workers, and the result reassembly.

    One supervisor serves one *drain*: submit cases (all up front or
    incrementally), call :meth:`drain`, collect the
    :class:`~repro.experiments.runner.MethodEvaluation`.  Each drain
    returns the cases finished since the previous one.  Worker
    sessions keep their engines across drains on the same supervisor —
    that is what :meth:`warm_start` exploits after a restart.
    """

    def __init__(
        self,
        method,
        config: Optional[FleetConfig] = None,
        store: Optional[FleetStore] = None,
    ):
        self.method = method
        self.config = config if config is not None else FleetConfig()
        self.store = store
        runner = getattr(method, "run", None)
        if callable(runner):
            try:
                self._runner_params = frozenset(inspect.signature(runner).parameters)
            except (TypeError, ValueError):  # pragma: no cover - exotic callables
                self._runner_params = frozenset()
        else:
            self._runner_params = frozenset()
        self._lock = threading.Lock()
        self._queues: Dict[LayoutKey, _LayoutQueue] = {}
        self._workers: List[_Worker] = []
        #: Set once the fleet has nothing left to run: a worker finding
        #: its FIFO empty then retires instead of waiting.
        self._closed = False
        #: Serving mode: workers persist across idle periods instead of
        #: retiring when the FIFOs drain (see :meth:`start_serving`).
        self._serving = False
        #: True during a thread drain or while serving: new layouts get
        #: worker threads as soon as their FIFO is created.
        self._spawning = False
        #: Outcomes of finished items without a callback, for drain().
        self._collected: List[CaseOutcome] = []
        self._outstanding = 0
        self._next_seq = 0
        self._requeues = 0
        self._crashes = 0

    # -- submission --------------------------------------------------------

    def submit(
        self,
        case: LocalizationCase,
        tenant: Optional[str] = None,
        deadline_ms: Optional[float] = None,
        degrade: bool = False,
        k: Optional[int] = None,
        on_done: Optional[Callable[[CaseOutcome], None]] = None,
    ) -> int:
        """Enqueue one case; returns its sequence id (= output position).

        ``deadline_ms`` attaches a per-case wall-clock budget, honoured
        by methods with a budget-aware ``run`` (an expired budget yields
        a partial result with ``stop_reason="deadline"``, never an
        error); ``degrade`` additionally applies the default degradation
        ladder while that budget drains.  ``k`` overrides the fleet
        config's top-k policy for this case only (serving requests carry
        their own ``k``).  ``on_done`` is called with the case's
        :class:`CaseOutcome`, off the lock, by the worker that finishes
        it; the fleet then keeps no trace of the case.  Without it, the
        outcome waits for :meth:`drain` — so while serving, pass one.
        """
        tenant = tenant_of(case) if tenant is None else str(tenant)
        with self._lock:
            seq = self._next_seq
            self._next_seq += 1
        item = FleetItem(
            seq=seq,
            tenant=tenant,
            case=case,
            layout=layout_key(case.dataset),
            deadline_ms=deadline_ms,
            degrade=degrade,
            k=k,
            on_done=on_done,
        )
        if self.store is not None:
            self.store.append_case(seq, tenant, case)
        collector = _trace.active_collector()
        if collector is not None:
            obs.inc("fleet_cases_total")
            # fleet_queue_depth is written when the registry is read.
            collector.metrics.add_exporter(self)
        with self._lock:
            self._outstanding += 1
            self._enqueue(item)
        return seq

    def export(self, registry: MetricRegistry) -> None:
        """Write ``fleet_queue_depth`` per layout FIFO into *registry*.

        Called on every read of a registry this fleet submitted under, so
        the gauge shows the FIFOs as they are when a scrape asks, at no
        cost per queued or taken case.
        """
        with self._lock:
            depths = [(queue.label, len(queue.items)) for queue in self._queues.values()]
        for label, depth in depths:
            registry.gauge("fleet_queue_depth", {"layout": label}).set(depth)

    # -- FIFOs (all called with the lock held) -----------------------------

    def _queue_for(self, layout: LayoutKey) -> _LayoutQueue:
        """The FIFO of *layout*, created with its workers on first use."""
        queue = self._queues.get(layout)
        if queue is None:
            workers = []
            for __ in range(self.config.shards_per_layout):
                worker = _Worker(worker_id=len(self._workers), layout=layout)
                self._workers.append(worker)
                workers.append(worker)
            queue = _LayoutQueue(
                items=deque(),
                ready=threading.Condition(self._lock),
                workers=workers,
                label=",".join(f"{n}={s}" for n, s in zip(*layout)),
            )
            self._queues[layout] = queue
            self._spawn_missing()
        return queue

    def _enqueue(self, item: FleetItem) -> None:
        """Put *item* on its layout's FIFO and wake one waiting worker."""
        queue = self._queue_for(item.layout)
        queue.items.append(item)
        queue.ready.notify()

    def _spawn_missing(self) -> None:
        """Start a thread for every worker without one (drain or serving)."""
        if not self._spawning:
            return
        for worker in self._workers:
            if worker.thread is not None:
                continue
            worker.thread = threading.Thread(
                target=self._serve,
                args=(worker,),
                name=f"fleet-worker-{worker.worker_id}",
                daemon=True,
            )
            # A fresh thread first needs the lock held here to take an
            # item, so starting it under the lock cannot deadlock.
            worker.thread.start()

    def _close(self) -> None:
        """Let every worker that finds its FIFO empty retire."""
        with self._lock:
            self._closed = True
            for queue in self._queues.values():
                queue.ready.notify_all()

    def _acquire(self, worker: _Worker, block: bool) -> Optional[FleetItem]:
        """The item at the head of *worker*'s FIFO.

        With ``block=True`` the call waits for an item until the fleet is
        closed; a ``None`` return then retires the worker's thread.  The
        retirement is recorded under the same lock hold as the decision,
        so :meth:`start_serving` either sees the thread live (and reuses
        it) or gone (and starts a fresh one) — never both.
        """
        with self._lock:
            queue = self._queues[worker.layout]
            while not queue.items:
                if self._closed or not block:
                    if block:
                        worker.thread = None
                    return None
                queue.ready.wait()
            item = queue.items.popleft()
            item.attempts += 1
            return item

    # -- execution ---------------------------------------------------------

    def _case_k(self, case: LocalizationCase) -> Optional[int]:
        return len(case.true_raps) if self.config.k_from_truth else self.config.k

    def _item_k(self, item: FleetItem) -> Optional[int]:
        return item.k if item.k is not None else self._case_k(item.case)

    def _execute(self, worker: _Worker, item: FleetItem) -> None:
        """Run one taken item; a raise here is a worker crash."""
        with obs.span("fleet.execute", shard=worker.worker_id) as execute_span:
            # One request's engine work, the session's patch included.
            execute_span.open_tally()
            # The session installs the tick's engine on the dataset, where
            # the method's own engine lookup finds it.
            tick = worker.session.begin_tick(item.case.dataset)
            if _trace.ACTIVE:
                obs.inc("fleet_engine_builds_total", outcome=_build_outcome(tick))
            if item.deadline_ms is not None and "budget" in self._runner_params:
                seconds = self._execute_budgeted(item, worker)
            else:
                predicted, seconds = time_localization(
                    self.method.localize, item.case.dataset, self._item_k(item)
                )
                self._finish(item, predicted, seconds, worker.worker_id)
            worker.session.record_tick_seconds(tick, seconds)

    def _execute_budgeted(self, item: FleetItem, worker: _Worker) -> float:
        """Run one deadline-carrying item through the method's ``run``.

        The per-item :class:`~repro.resilience.budget.Budget` starts
        counting here — execution time, not queue time, is what the
        budget bounds (admission already shed anything that queued past
        its welcome).  Expiry ends the search at a layer boundary with
        the candidates found so far; the stop reason and ladder rung ride
        back on the outcome for the serving response.  Returns the
        localization time.
        """
        kwargs = {"budget": Budget.from_ms(item.deadline_ms)}
        if item.degrade and "degradation" in self._runner_params:
            kwargs["degradation"] = DegradationPolicy()
        start = time.perf_counter()
        result = self.method.run(
            item.case.dataset, k=self._item_k(item), **kwargs
        )
        seconds = time.perf_counter() - start
        stats = getattr(result, "stats", None)
        self._finish(
            item,
            result.patterns,
            seconds,
            worker.worker_id,
            stop_reason=getattr(stats, "stop_reason", None),
            tier=getattr(stats, "degradation_tier", None),
        )
        return seconds

    def _run_guarded(self, worker: _Worker, item: FleetItem) -> None:
        """:meth:`_execute` with the crash-requeue-once protocol.

        A crashed item goes back to the tail of its FIFO on its first
        attempt and degrades to an error row on its second.
        """
        try:
            self._execute(worker, item)
        except BaseException as exc:
            # BaseException too: a SystemExit or CancelledError escaping a
            # localizer must still requeue or record its case, or drain()
            # would wait forever on an outcome that never comes.
            # The engine may be half-built; the next case starts cold.
            worker.session.reset()
            if _trace.ACTIVE:
                obs.inc("fleet_crashes_total")
            with self._lock:
                self._crashes += 1
                # A crash after the outcome was recorded leaves nothing to redo.
                failed = not item.finished and item.attempts >= 2
                if not item.finished and not failed:
                    self._requeues += 1
                    if _trace.ACTIVE:
                        obs.inc("fleet_requeues_total")
                    self._enqueue(item)
            if failed:
                self._record_error(item, exc)

    # -- results -----------------------------------------------------------

    def _record_error(self, item: FleetItem, exc: BaseException) -> None:
        if _trace.ACTIVE:
            obs.inc("fleet_errors_total")
        self._finish(item, [], 0.0, None, f"{type(exc).__name__}: {exc}")

    def _finish(
        self,
        item: FleetItem,
        predicted: Sequence,
        seconds: float,
        shard: Optional[int],
        error: Optional[str] = None,
        stop_reason: Optional[str] = None,
        tier: Optional[str] = None,
    ) -> None:
        """Make the item's outcome, persist it, then hand it to the item's
        callback or keep it for :meth:`drain`; close when drained."""
        case = item.case
        outcome = CaseOutcome(
            seq=item.seq,
            case_id=case.case_id,
            tenant=item.tenant,
            predicted=tuple(predicted),
            true_raps=tuple(case.true_raps),
            seconds=seconds,
            group=case.metadata.get("group"),
            shard=shard,
            error=error,
            stop_reason=stop_reason,
            tier=tier,
        )
        if self.store is not None:
            self.store.append_result(
                outcome.seq,
                outcome.tenant,
                {
                    "case_id": outcome.case_id,
                    "predicted": [str(p) for p in outcome.predicted],
                    "true_raps": [str(r) for r in outcome.true_raps],
                    "seconds": outcome.seconds,
                    "group": outcome.group,
                    "shard": outcome.shard,
                    "error": outcome.error,
                },
            )
        with self._lock:
            item.finished = True
            if item.on_done is None:
                self._collected.append(outcome)
            self._outstanding -= 1
            # Serving-mode workers must survive idle periods: closing on
            # a momentarily empty fleet would retire them between requests.
            drained = self._outstanding == 0 and not self._serving
        if drained:
            self._close()
        if item.on_done is not None:
            item.on_done(outcome)

    # -- drive loops -------------------------------------------------------

    def _serve(self, worker: _Worker) -> None:
        """Thread body: run the worker's FIFO until the fleet closes."""
        try:
            while True:
                item = self._acquire(worker, block=True)
                if item is None:
                    return
                self._run_guarded(worker, item)
        finally:
            # Normal retirement already cleared the slot inside _acquire;
            # this only covers an exception escaping the loop.
            with self._lock:
                if worker.thread is threading.current_thread():
                    worker.thread = None

    def _live_threads(self) -> List[threading.Thread]:
        with self._lock:
            return [w.thread for w in self._workers if w.thread is not None]

    def _drain_threads(self) -> None:
        with self._lock:
            self._spawning = True
            self._spawn_missing()
        try:
            # Workers spawned mid-drain (first-seen layouts) join the
            # list while we wait; loop until every thread has retired.
            while True:
                threads = self._live_threads()
                if not threads:
                    return
                for thread in threads:
                    thread.join()
        finally:
            with self._lock:
                self._spawning = False

    def _drain_inline(self) -> None:
        """Single-step workers in the calling thread, deterministically.

        Each step, the workers whose FIFO holds items are enumerated in
        id order; ``config.schedule`` (a seeded RNG) or round-robin picks
        one, which takes and runs one item.  The property suite
        sweeps seeds here to prove output is interleaving-independent.
        """
        rng = self.config.schedule
        cursor = 0
        while True:
            with self._lock:
                if self._outstanding == 0:
                    return
                ready = [w for w in self._workers if self._queues[w.layout].items]
            if not ready:  # pragma: no cover - every admitted item is queued
                return
            if rng is not None:
                worker = rng.choice(ready)
            else:
                worker = ready[cursor % len(ready)]
                cursor += 1
            item = self._acquire(worker, block=False)
            if item is not None:
                self._run_guarded(worker, item)

    def drain(self) -> MethodEvaluation:
        """Run every submitted case to completion and return the results.

        The rows are the outcomes of the cases submitted without an
        ``on_done`` callback that finished since the previous drain,
        ordered by submission sequence id — the serial order — regardless
        of which worker ran what.
        """
        with obs.span("fleet.drain", cases=self._next_seq, mode=self.config.mode):
            with self._lock:
                self._closed = False
                pending = self._outstanding > 0
            if pending:
                if self.config.mode == "thread":
                    self._drain_threads()
                else:
                    self._drain_inline()
        evaluation = MethodEvaluation(
            method_name=getattr(self.method, "name", type(self.method).__name__)
        )
        with self._lock:
            outcomes, self._collected = self._collected, []
        outcomes.sort(key=lambda outcome: outcome.seq)
        for outcome in outcomes:
            evaluation.results.append(
                CaseResult(
                    case_id=outcome.case_id,
                    predicted=list(outcome.predicted),
                    true_raps=outcome.true_raps,
                    seconds=outcome.seconds,
                    group=outcome.group,
                    error=outcome.error,
                )
            )
        return evaluation

    # -- continuous serving ------------------------------------------------

    @property
    def serving(self) -> bool:
        with self._lock:
            return self._serving

    def start_serving(self) -> None:
        """Switch to continuous mode: workers persist across idle periods.

        In serving mode :meth:`submit` queues immediately onto long-lived
        worker threads (started lazily as layouts appear) and each result
        is delivered through its item's ``on_done`` callback — there is
        no drain barrier and the FIFOs never close on an empty fleet.  A worker
        still finishing a case from before the last :meth:`stop_serving`
        keeps its slot and serves on; no second thread joins it.
        :meth:`drain` must not be used while serving; the two drive modes
        are exclusive.  Thread mode only.
        """
        if self.config.mode != "thread":
            raise ValueError("start_serving requires FleetConfig(mode='thread')")
        with self._lock:
            if self._serving:
                return
            if self._spawning:
                raise RuntimeError("cannot start serving during an active drain")
            self._serving = True
            self._spawning = True
            self._closed = False
            self._spawn_missing()

    def stop_serving(self, timeout: Optional[float] = None) -> None:
        """Finish queued work, retire the workers, and leave serving mode.

        Closing the FIFOs lets every worker run its queue dry (queued
        items are still served after close; only an *empty* FIFO retires
        a worker).  ``timeout`` bounds the whole call, not each join; a
        worker still busy at the deadline keeps its slot, so a later
        :meth:`start_serving` neither loses nor duplicates it.
        Idempotent; safe to call with requests still in flight — their
        results are delivered before the workers stop.
        """
        with self._lock:
            if not self._serving:
                return
            self._serving = False
            self._spawning = False
        self._close()
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            threads = self._live_threads()
            if not threads:
                return
            for thread in threads:
                if deadline is None:
                    thread.join()
                    continue
                thread.join(max(0.0, deadline - time.monotonic()))
                if thread.is_alive():
                    return

    # -- warm start --------------------------------------------------------

    def warm_start(self, store: FleetStore) -> int:
        """Prime each worker's session once from a store's newest cases.

        A worker's session holds one tick, so each worker is primed
        once: a layout's newest persisted cases (the last one of each
        tenant, newest first) are dealt across its workers, and when the
        layout has more workers than cases, the cases go round again.
        Each worker's session gets its own engine, built and run once to
        populate the caches, so the next cases over the same leaf
        population take the ``patched`` or ``warm`` build path instead
        of cold aggregation.  Returns the number of tenants whose case
        primed a worker.  Build counters attribute these runs to
        ``outcome="warmstart"``, keeping the serving-path ``cold`` count
        honest.  Call it before :meth:`drain` or :meth:`start_serving`;
        nothing is queued, so already submitted cases are untouched.
        """
        newest: Dict[LayoutKey, List[Tuple[int, str, LocalizationCase]]] = {}
        for tenant, (seq, case) in store.last_cases().items():
            newest.setdefault(layout_key(case.dataset), []).append((seq, tenant, case))
        primed = set()
        for layout, entries in sorted(newest.items()):
            entries.sort(key=lambda entry: entry[0], reverse=True)
            with self._lock:
                workers = list(self._queue_for(layout).workers)
            for index, worker in enumerate(workers):
                __, tenant, case = entries[index % len(entries)]
                # A dataset object per worker: its engine lives on the
                # dataset, and engines must not be shared across workers.
                dataset = FineGrainedDataset(
                    case.dataset.schema,
                    case.dataset.codes,
                    case.dataset.v,
                    case.dataset.f,
                    case.dataset.labels,
                )
                worker.session.begin_tick(dataset)
                self.method.localize(dataset, self._case_k(case))
                if _trace.ACTIVE:
                    obs.inc("fleet_engine_builds_total", outcome="warmstart")
                primed.add(tenant)
        if _trace.ACTIVE and primed:
            obs.inc("fleet_warm_starts_total", len(primed))
        return len(primed)

    # -- accounting --------------------------------------------------------

    @property
    def requeues(self) -> int:
        with self._lock:
            return self._requeues

    @property
    def crashes(self) -> int:
        with self._lock:
            return self._crashes


def fleet_localize(
    method,
    cases: Sequence[LocalizationCase],
    tenants: Optional[Sequence[str]] = None,
    config: Optional[FleetConfig] = None,
    store: Optional[Union[FleetStore, str]] = None,
) -> MethodEvaluation:
    """One-shot fleet run over *cases* (the store replay and test entry point).

    ``tenants`` parallels ``cases``; omitted, each case's
    ``metadata["tenant"]`` (default ``"default"``) is used.  ``store``
    may be a :class:`FleetStore` or a path; a path-opened store is
    closed (index flushed) before returning.
    """
    if tenants is not None and len(tenants) != len(cases):
        raise ValueError(
            f"tenants ({len(tenants)}) must parallel cases ({len(cases)})"
        )
    owned = isinstance(store, (str,)) or hasattr(store, "__fspath__")
    opened = FleetStore(store) if owned else store
    supervisor = FleetSupervisor(method, config=config, store=opened)
    try:
        for i, case in enumerate(cases):
            supervisor.submit(case, tenant=None if tenants is None else tenants[i])
        return supervisor.drain()
    finally:
        if owned and opened is not None:
            opened.close()


def replay_store(
    method,
    store: Union[FleetStore, str],
    config: Optional[FleetConfig] = None,
) -> MethodEvaluation:
    """Re-run every case persisted in *store*, in original seq order.

    The audit contract: with the same method and configuration, the
    returned evaluation's predictions match the persisted result rows
    string-for-string (and a serial rerun bit-exactly).
    """
    owned = not isinstance(store, FleetStore)
    opened = store if isinstance(store, FleetStore) else FleetStore(store, mode="r")
    try:
        entries = opened.cases()
    finally:
        if owned:
            opened.close()
    return fleet_localize(
        method,
        [case for __, __, case in entries],
        tenants=[tenant for __, tenant, __ in entries],
        config=config,
    )
