"""Structured spans and the collector they report to.

The tracing model is deliberately tiny: a :class:`Span` is a named,
attributed interval of wall-clock time with a parent pointer; a
:class:`Collector` accumulates finished spans (plus a
:class:`~repro.obs.metrics.MetricRegistry`) for one observed run.  The
*current* span is tracked through a :mod:`contextvars` context variable,
so nesting follows lexical ``with`` structure and survives async or
thread-local contexts that copy the ambient context.

Cost discipline
---------------
Instrumented hot paths must stay effectively free when nobody is looking.
Two mechanisms enforce that:

* ``ACTIVE`` — a module-level boolean mirroring "a collector is
  installed".  Hot loops guard per-event counter bumps with a single
  attribute read (``if trace.ACTIVE:``).
* :func:`span` — when no collector is installed it yields a shared
  :data:`NULL_SPAN` whose mutators are no-ops, so instrumented code needs
  no branching of its own.

Install a collector with :func:`capture` (the public context manager) or
:func:`install`/:func:`uninstall` for manual lifetimes.  Installation
nests: the previous collector is restored on exit, and each ``capture``
gets a fresh metric registry, so consecutive runs never share state.
"""

from __future__ import annotations

import contextvars
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

from .metrics import MetricRegistry

__all__ = [
    "Span",
    "NullSpan",
    "NULL_SPAN",
    "NULL_SPAN_CONTEXT",
    "SpanRing",
    "Collector",
    "RingCollector",
    "ACTIVE",
    "is_active",
    "active_collector",
    "current_span",
    "span",
    "capture",
    "install",
    "uninstall",
]

#: Fast-path flag: ``True`` iff a collector is installed.  Hot loops read
#: this instead of calling :func:`is_active` (one attribute load, no call).
ACTIVE: bool = False

_collector: Optional["Collector"] = None
_install_lock = threading.Lock()
_CURRENT: "contextvars.ContextVar[Optional[Span]]" = contextvars.ContextVar(
    "repro_obs_current_span", default=None
)


@dataclass
class Span:
    """One named, attributed interval; finished spans are immutable by convention."""

    name: str
    span_id: int
    parent_id: Optional[int]
    #: Wall-clock start (``time.time()``), for cross-process correlation.
    start_unix: float
    #: Monotonic start (``time.perf_counter()``), for duration only.
    start: float
    duration_s: float = 0.0
    attributes: Dict[str, object] = field(default_factory=dict)

    def set(self, **attributes: object) -> "Span":
        """Attach attributes; chainable, no-op on the null span."""
        self.attributes.update(attributes)
        return self


class NullSpan:
    """Stand-in yielded by :func:`span` when tracing is off.

    Accepts the same mutations as :class:`Span` and discards them, so
    instrumentation sites never need an enabled-check of their own.
    """

    __slots__ = ()
    name = ""
    span_id = -1
    parent_id = None
    duration_s = 0.0
    attributes: Dict[str, object] = {}

    def set(self, **attributes: object) -> "NullSpan":
        return self


#: The shared null span (stateless, safe to reuse everywhere).
NULL_SPAN = NullSpan()


class _NullSpanContext:
    """Reusable no-op context manager yielding :data:`NULL_SPAN`.

    Hot paths that pre-check ``ACTIVE`` use this singleton instead of
    calling :func:`span`, so the disabled path allocates nothing — no
    generator frame, no kwargs dict.
    """

    __slots__ = ()

    def __enter__(self) -> NullSpan:
        return NULL_SPAN

    def __exit__(self, *exc: object) -> bool:
        return False


#: Shared no-op context manager for ``ACTIVE``-guarded hot paths.
NULL_SPAN_CONTEXT = _NullSpanContext()


class SpanRing:
    """Bounded ring of the most recently finished spans.

    The live-telemetry plane (``repro.obs.server``) serves ``/debug/spans``
    and ``/debug/profile`` from this buffer, so a long-running capture stays
    inspectable without the reader holding up writers or the buffer growing
    with the run: once *capacity* spans are held, every append evicts the
    oldest.  Memory is therefore O(capacity) regardless of run length.
    """

    def __init__(self, capacity: int = 256):
        if capacity < 1:
            raise ValueError("ring capacity must be positive")
        self.capacity = capacity
        self._slots: List[Optional[Span]] = [None] * capacity
        self._next = 0
        self._total = 0
        self._lock = threading.Lock()

    def append(self, span: Span) -> None:
        with self._lock:
            self._slots[self._next] = span
            self._next = (self._next + 1) % self.capacity
            self._total += 1

    def __len__(self) -> int:
        return min(self._total, self.capacity)

    @property
    def total_appended(self) -> int:
        """Spans ever appended (``total_appended - len`` were evicted)."""
        return self._total

    def snapshot(self, limit: Optional[int] = None) -> List[Span]:
        """Retained spans, oldest first (at most *limit* newest when given)."""
        with self._lock:
            if self._total < self.capacity:
                held = [s for s in self._slots[: self._next]]
            else:
                held = self._slots[self._next :] + self._slots[: self._next]
        spans = [s for s in held if s is not None]
        if limit is not None and limit >= 0:
            spans = spans[len(spans) - min(limit, len(spans)) :]
        return spans


class Collector:
    """Sink for one observed run: finished spans plus a metric registry."""

    def __init__(self, ring_capacity: int = 256) -> None:
        self.spans: List[Span] = []
        self.metrics = MetricRegistry()
        #: Bounded buffer of the newest finished spans, for live inspection.
        self.recent = SpanRing(ring_capacity)
        self._next_id = 1
        self._lock = threading.Lock()

    # -- span bookkeeping --------------------------------------------------

    def _new_span(self, name: str, attributes: Dict[str, object]) -> Span:
        parent = _CURRENT.get()
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        return Span(
            name=name,
            span_id=span_id,
            parent_id=parent.span_id if parent is not None else None,
            start_unix=time.time(),
            start=time.perf_counter(),
            attributes=attributes,
        )

    def _finish(self, finished: Span) -> None:
        finished.duration_s = time.perf_counter() - finished.start
        with self._lock:
            self.spans.append(finished)
        self.recent.append(finished)

    # -- queries -----------------------------------------------------------

    def snapshot_spans(self) -> List[Span]:
        """Copy of the finished-span list, safe against concurrent appends."""
        with self._lock:
            return list(self.spans)

    def find_spans(self, name: str) -> List[Span]:
        """Finished spans with the given name, in completion order."""
        return [s for s in self.spans if s.name == name]

    def span_names(self) -> List[str]:
        """Distinct finished-span names, in first-completion order."""
        seen: Dict[str, None] = {}
        for s in self.spans:
            seen.setdefault(s.name)
        return list(seen)

    def children_of(self, parent: Span) -> List[Span]:
        """Finished direct children of *parent*, in completion order."""
        return [s for s in self.spans if s.parent_id == parent.span_id]


class RingCollector(Collector):
    """Collector of a long-running command: finished spans live only in
    the bounded :attr:`recent` ring.

    ``repro serve`` and ``repro stream-localize --serve-metrics`` run for
    as long as the operator lets them, and their telemetry plane reads
    only the ring, so a full span list would grow by every span of every
    request for nothing.  :attr:`spans` stays empty;
    :meth:`snapshot_spans`, and so
    :func:`~repro.obs.profile.profile_collector`, returns the ring.
    """

    def _finish(self, finished: Span) -> None:
        finished.duration_s = time.perf_counter() - finished.start
        self.recent.append(finished)

    def snapshot_spans(self) -> List[Span]:
        return self.recent.snapshot()


def is_active() -> bool:
    """True when a collector is installed (prefer ``ACTIVE`` in hot loops)."""
    return _collector is not None


def active_collector() -> Optional[Collector]:
    """The installed collector, or ``None``."""
    return _collector


def current_span() -> Optional[Span]:
    """The innermost open span of the current context, or ``None``."""
    return _CURRENT.get()


@contextmanager
def span(name: str, **attributes: object) -> Iterator[Span]:
    """Open a child span of the current span for the ``with`` body.

    Yields the live :class:`Span` (mutate via :meth:`Span.set`) or the
    shared :data:`NULL_SPAN` when no collector is installed.  The span is
    finished — duration stamped, appended to the collector — when the
    block exits, even on exception or early ``return``.
    """
    collector = _collector
    if collector is None:
        yield NULL_SPAN  # type: ignore[misc]
        return
    opened = collector._new_span(name, dict(attributes))
    token = _CURRENT.set(opened)
    try:
        yield opened
    finally:
        _CURRENT.reset(token)
        collector._finish(opened)


def install(collector: Collector) -> Optional[Collector]:
    """Install *collector* as the active sink; returns the one it replaced."""
    global _collector, ACTIVE
    with _install_lock:
        previous = _collector
        _collector = collector
        ACTIVE = True
    return previous


def uninstall(previous: Optional[Collector] = None) -> None:
    """Restore *previous* (or nothing) as the active sink."""
    global _collector, ACTIVE
    with _install_lock:
        _collector = previous
        ACTIVE = previous is not None


@contextmanager
def capture(
    trace_path: Optional[str] = None, ring_only: bool = False
) -> Iterator[Collector]:
    """Collect spans and metrics for the ``with`` body.

    Installs a fresh :class:`Collector` (restoring any previously
    installed one on exit, so captures nest) and yields it.  When
    *trace_path* is given the collected run is written there as JSONL on
    exit — including on exception, so crashed runs still leave a trail.
    ``ring_only=True`` installs a :class:`RingCollector` instead, whose
    memory stays bounded however long the body runs.

    Examples
    --------
    >>> from repro import obs
    >>> with obs.capture() as collector:
    ...     with obs.span("demo", answer=42):
    ...         pass
    >>> [s.name for s in collector.spans]
    ['demo']
    """
    collector = RingCollector() if ring_only else Collector()
    previous = install(collector)
    try:
        yield collector
    finally:
        uninstall(previous)
        if trace_path is not None:
            from .export import write_jsonl

            write_jsonl(collector, trace_path)
