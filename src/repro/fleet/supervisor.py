"""Fleet supervisor: the one executor for many localization cases.

:class:`FleetSupervisor` runs every multi-case path of the repository —
``repro fleet-localize``, ``repro batch-localize`` and the ``repro
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
cold builds (the delta session's invariant), and results are reassembled
by submission sequence id — so fleet output is **bit-identical to a
serial run** of the same cases, whatever the worker interleaving, worker
count, quota pressure, or crash pattern.  The property suite drives randomized
interleavings through the ``inline`` mode to check exactly this.

Admission control: each tenant may hold at most
:attr:`FleetConfig.tenant_quota` cases in the FIFOs; excess submissions
wait in a per-tenant overflow deque and are admitted (in submission
order) as that tenant's earlier cases complete.  This bounds any single
tenant's queue footprint without changing output order.

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
    #: Cases a worker takes from its FIFO per trip.  ``1`` runs the
    #: per-case path with engine reuse; larger values opt into the
    #: method's case-stacked ``run_batch`` kernel when it has one.
    microbatch: int = 1
    #: Max queued (admitted, not yet completed) cases per tenant; excess
    #: waits in the supervisor's overflow deque.
    tenant_quota: int = 8
    #: ``"thread"`` runs one thread per worker; ``"inline"`` single-steps
    #: workers deterministically in the calling thread (property tests).
    mode: str = "thread"
    #: Ranked patterns to keep per case (``None`` = all; overridden per
    #: case by ``k_from_truth``).
    k: Optional[int] = None
    #: Use ``len(case.true_raps)`` as each case's ``k`` (oracle cardinality).
    k_from_truth: bool = False
    #: Metadata key copied onto ``CaseResult.group``.
    group_key: str = "group"
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
        if self.microbatch < 1:
            raise ValueError(f"microbatch must be >= 1, got {self.microbatch}")
        if self.tenant_quota < 1:
            raise ValueError(f"tenant_quota must be >= 1, got {self.tenant_quota}")

    @classmethod
    def one_batch(cls, n_cases: int, **overrides) -> "FleetConfig":
        """The ``batch-localize`` configuration: one micro-batch per layout.

        Every case is admitted at once and one inline worker per layout
        hands its whole FIFO to the method's case-stacked kernel.
        """
        batch = max(1, n_cases)
        return cls(
            shards_per_layout=1,
            microbatch=batch,
            tenant_quota=batch,
            mode="inline",
            **overrides,
        )


@dataclass
class FleetItem:
    """One queued localization case, tagged for its FIFO and its sequence.

    ``seq`` is the global submission order — the only ordering the
    fleet's output respects.  ``attempts`` counts executions started; a
    crashed item requeues once (``attempts == 1``) before degrading to
    an error record.

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


@dataclass(frozen=True)
class CaseOutcome:
    """One finished case, as delivered to :attr:`FleetSupervisor.on_result`.

    The serving front door (:mod:`repro.serving`) keys per-request
    response futures on ``seq``; everything else is what the network
    response needs that a :class:`~repro.experiments.runner.CaseResult`
    row does not carry (tenant, worker, stop reason, degradation tier).
    """

    seq: int
    case_id: str
    tenant: str
    predicted: Tuple
    seconds: float
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
    :class:`~repro.experiments.runner.MethodEvaluation`.  Worker
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
        #: Per-finish hook: called with a :class:`CaseOutcome` (off the
        #: supervisor lock, from whichever thread finished the case) as
        #: each result lands.  The serving layer resolves its response
        #: futures here; ``None`` costs nothing.
        self.on_result: Optional[Callable[[CaseOutcome], None]] = None
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
        self._rows: Dict[int, Tuple] = {}
        self._overflow: Dict[str, deque] = {}
        self._inflight: Dict[str, int] = {}
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
    ) -> int:
        """Enqueue one case; returns its sequence id (= output position).

        ``deadline_ms`` attaches a per-case wall-clock budget, honoured
        by methods with a budget-aware ``run`` (an expired budget yields
        a partial result with ``stop_reason="deadline"``, never an
        error); ``degrade`` additionally applies the default degradation
        ladder while that budget drains.  ``k`` overrides the fleet
        config's top-k policy for this case only (serving requests carry
        their own ``k``).
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
        )
        if self.store is not None:
            self.store.append_case(seq, tenant, case)
        if _trace.ACTIVE:
            obs.inc("fleet_cases_total")
        with self._lock:
            self._outstanding += 1
            if self._inflight.get(tenant, 0) >= self.config.tenant_quota:
                self._overflow.setdefault(tenant, deque()).append(item)
                if _trace.ACTIVE:
                    obs.inc("fleet_quota_deferrals_total")
                return seq
            self._inflight[tenant] = self._inflight.get(tenant, 0) + 1
            self._enqueue(item)
        return seq

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

    def _enqueue(self, item: FleetItem, front: bool = False) -> None:
        """Put *item* on its layout's FIFO and wake one waiting worker."""
        queue = self._queue_for(item.layout)
        if front:
            queue.items.appendleft(item)
        else:
            queue.items.append(item)
        queue.ready.notify()
        if _trace.ACTIVE:
            obs.set_gauge("fleet_queue_depth", len(queue.items), layout=queue.label)

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

    def _acquire(self, worker: _Worker, block: bool) -> List[FleetItem]:
        """Up to ``microbatch`` items from the head of *worker*'s FIFO.

        With ``block=True`` the call waits for items until the fleet is
        closed; an empty return then retires the worker's thread.  The
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
                    return []
                queue.ready.wait()
            count = min(self.config.microbatch, len(queue.items))
            batch = [queue.items.popleft() for __ in range(count)]
            for item in batch:
                item.attempts += 1
            if _trace.ACTIVE:
                obs.set_gauge("fleet_queue_depth", len(queue.items), layout=queue.label)
            return batch

    # -- execution ---------------------------------------------------------

    def _case_k(self, case: LocalizationCase) -> Optional[int]:
        return len(case.true_raps) if self.config.k_from_truth else self.config.k

    def _item_k(self, item: FleetItem) -> Optional[int]:
        return item.k if item.k is not None else self._case_k(item.case)

    def _fused(self, batch: List[FleetItem]) -> bool:
        """True when *batch* runs as one case-stacked ``run_batch`` call."""
        return len(batch) > 1 and hasattr(self.method, "run_batch")

    def _execute(self, worker: _Worker, batch: List[FleetItem]) -> None:
        """Run one taken micro-batch; a raise here is a worker crash."""
        with obs.span("fleet.shard_batch", shard=worker.worker_id, cases=len(batch)):
            if self._fused(batch):
                start = time.perf_counter()
                results = self.method.run_batch(
                    [item.case.dataset for item in batch], k=None
                )
                per_case = (time.perf_counter() - start) / len(batch)
                for item, result in zip(batch, results):
                    case_k = self._item_k(item)
                    predicted = (
                        result.patterns if case_k is None else result.top(case_k)
                    )
                    self._record(item, worker, list(predicted), per_case)
                return
            if len(batch) > 1 and _trace.ACTIVE:
                obs.inc("stacked_fallback_cases_total", len(batch))
            for item in batch:
                # The session installs the tick's engine on the dataset,
                # where the method's own engine lookup finds it.
                tick = worker.session.begin_tick(item.case.dataset)
                if _trace.ACTIVE:
                    obs.inc("fleet_engine_builds_total", outcome=_build_outcome(tick))
                if item.deadline_ms is not None and "budget" in self._runner_params:
                    seconds = self._execute_budgeted(item, worker)
                else:
                    predicted, seconds = time_localization(
                        self.method.localize,
                        item.case.dataset,
                        self._item_k(item),
                    )
                    self._record(item, worker, list(predicted), seconds)
                worker.session.record_tick_seconds(tick, seconds)

    def _execute_budgeted(self, item: FleetItem, worker: _Worker) -> float:
        """Run one deadline-carrying item through the method's ``run``.

        The per-item :class:`~repro.resilience.budget.Budget` starts
        counting here — execution time, not queue time, is what the
        budget bounds (admission already shed anything that queued past
        its welcome).  Expiry ends the search at a layer boundary with
        the candidates found so far; the stop reason and ladder rung ride
        back on the result row for the serving response.  Returns the
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
        self._record(
            item,
            worker,
            list(result.patterns),
            seconds,
            stop_reason=getattr(stats, "stop_reason", None),
            tier=getattr(stats, "degradation_tier", None),
        )
        return seconds

    def _run_guarded(self, worker: _Worker, batch: List[FleetItem]) -> None:
        """:meth:`_execute` with the crash-requeue-once protocol.

        Rows recorded before the raise stand.  The per-case loop runs in
        order, so the first unfinished item is the one that was running
        when the worker crashed — the only one charged an attempt and
        requeued.  The rest of the micro-batch never started: it goes
        back to the head of the FIFO with its attempt refunded, so a case
        never degrades to an error row for queueing behind a poison pill.
        A fused ``run_batch`` crash cannot be pinned on one case, so
        there every unfinished member is charged and requeued.
        """
        try:
            self._execute(worker, batch)
        except BaseException as exc:
            # BaseException too: a SystemExit or CancelledError escaping a
            # localizer must still requeue or record its case, or drain()
            # would wait forever on a row that never comes.
            # The engine may be half-built; the next case starts cold.
            worker.session.reset()
            if _trace.ACTIVE:
                obs.inc("fleet_crashes_total")
            errors = []
            with self._lock:
                self._crashes += 1
                unfinished = [i for i in batch if i.seq not in self._rows]
                crashed = unfinished if self._fused(batch) else unfinished[:1]
                for item in reversed(unfinished[len(crashed):]):
                    item.attempts -= 1
                    self._enqueue(item, front=True)
                for item in crashed:
                    if item.attempts >= 2:
                        errors.append(item)
                        continue
                    self._requeues += 1
                    if _trace.ACTIVE:
                        obs.inc("fleet_requeues_total")
                    self._enqueue(item)
            for item in errors:
                self._record_error(item, exc)

    # -- results -----------------------------------------------------------

    def _result_row(
        self,
        item: FleetItem,
        worker_id: Optional[int],
        predicted: List,
        seconds: float,
        error: Optional[str],
        stop_reason: Optional[str] = None,
        tier: Optional[str] = None,
    ) -> Tuple:
        case = item.case
        return (
            item.seq,
            case.case_id,
            predicted,
            tuple(case.true_raps),
            seconds,
            case.metadata.get(self.config.group_key),
            item.tenant,
            worker_id,
            error,
            stop_reason,
            tier,
        )

    def _record(
        self,
        item: FleetItem,
        worker: _Worker,
        predicted: List,
        seconds: float,
        stop_reason: Optional[str] = None,
        tier: Optional[str] = None,
    ) -> None:
        self._finish(
            self._result_row(
                item, worker.worker_id, predicted, seconds, None, stop_reason, tier
            )
        )

    def _record_error(self, item: FleetItem, exc: BaseException) -> None:
        if _trace.ACTIVE:
            obs.inc("fleet_errors_total")
        self._finish(
            self._result_row(item, None, [], 0.0, f"{type(exc).__name__}: {exc}")
        )

    def _finish(self, row: Tuple) -> None:
        """Record a finished row, admit overflow, close when drained."""
        seq, tenant = row[0], row[6]
        if self.store is not None:
            self.store.append_result(
                seq,
                tenant,
                {
                    "case_id": row[1],
                    "predicted": [str(p) for p in row[2]],
                    "true_raps": [str(r) for r in row[3]],
                    "seconds": row[4],
                    "group": row[5],
                    "shard": row[7],
                    "error": row[8],
                },
            )
        with self._lock:
            self._rows[seq] = row
            self._outstanding -= 1
            waiting = self._overflow.get(tenant)
            if waiting:
                self._enqueue(waiting.popleft())
            else:
                self._inflight[tenant] = max(0, self._inflight.get(tenant, 1) - 1)
            # Serving-mode workers must survive idle periods: closing on
            # a momentarily empty fleet would retire them between requests.
            drained = self._outstanding == 0 and not self._serving
        if drained:
            self._close()
        callback = self.on_result
        if callback is not None:
            callback(
                CaseOutcome(
                    seq=row[0],
                    case_id=row[1],
                    tenant=row[6],
                    predicted=tuple(row[2]),
                    seconds=row[4],
                    shard=row[7],
                    error=row[8],
                    stop_reason=row[9],
                    tier=row[10],
                )
            )

    # -- drive loops -------------------------------------------------------

    def _serve(self, worker: _Worker) -> None:
        """Thread body: run the worker's FIFO until the fleet closes."""
        try:
            while True:
                batch = self._acquire(worker, block=True)
                if not batch:
                    return
                self._run_guarded(worker, batch)
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
        one, which takes and runs one micro-batch.  The property suite
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
            batch = self._acquire(worker, block=False)
            if batch:
                self._run_guarded(worker, batch)

    def drain(self) -> MethodEvaluation:
        """Run every submitted case to completion and return the results.

        Output rows are ordered by submission sequence id — the serial
        order — regardless of which worker ran what.
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
            rows = [self._rows[seq] for seq in sorted(self._rows)]
        for row in rows:
            evaluation.results.append(
                CaseResult(
                    case_id=row[1],
                    predicted=row[2],
                    true_raps=row[3],
                    seconds=row[4],
                    group=row[5],
                    error=row[8],
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
        is delivered through :attr:`on_result` — there is no drain
        barrier and the FIFOs never close on an empty fleet.  A worker
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
        """Prime worker sessions from a store's last case per tenant.

        Replays each tenant's newest persisted case once per worker of
        its layout — each worker's session gets its own engine, built and
        run once to populate the caches — so the next drain's cases over
        the same leaf population take the ``patched`` or ``warm`` build
        path instead of cold aggregation.  Returns the number of tenants
        primed.  Build counters attribute these runs to
        ``outcome="warmstart"``, keeping the serving-path ``cold`` count
        honest.  Call it before :meth:`drain` or :meth:`start_serving`;
        nothing is queued, so already submitted cases are untouched.
        """
        primed = 0
        for tenant, (__, case) in sorted(store.last_cases().items()):
            with self._lock:
                workers = list(self._queue_for(layout_key(case.dataset)).workers)
            for worker in workers:
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
            primed += 1
        if _trace.ACTIVE and primed:
            obs.inc("fleet_warm_starts_total", primed)
        return primed

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
    """One-shot fleet run over *cases* (the CLI and test entry point).

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
