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
* :func:`span` — when no collector is installed it returns the shared
  :data:`NULL_SPAN_CONTEXT`, which yields :data:`NULL_SPAN` whose
  mutators are no-ops, so instrumented code needs no branching of its
  own.

With a collector installed a span costs one slotted :class:`Span`, one
context-variable set/reset and one id from a lock-free counter.  Hot
loops that would bump a counter per event call :func:`tally` instead: a
plain integer added to the enclosing span that opened a tally
(:meth:`Span.open_tally`) and reported as that span's attributes when it
finishes, with no metric-registry lookup at all.

Install a collector with :func:`capture` (the public context manager) or
:func:`install`/:func:`uninstall` for manual lifetimes.  Installation
nests: the previous collector is restored on exit, and each ``capture``
gets a fresh metric registry, so consecutive runs never share state.
"""

from __future__ import annotations

import contextvars
import itertools
import threading
import time
from contextlib import contextmanager
from typing import ContextManager, Dict, Iterator, List, Optional

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
    "tally",
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


class Span:
    """One named, attributed interval; finished spans are immutable by convention.

    Slotted, so opening one allocates a single small object.  ``tally``
    is the dict :func:`tally` adds to while this span is current: a
    child shares its parent's, and :meth:`open_tally` gives a span its
    own, reported into :attr:`attributes` when the span finishes.
    """

    __slots__ = (
        "name",
        "span_id",
        "parent_id",
        "start_unix",
        "start",
        "duration_s",
        "attributes",
        "tally",
    )

    def __init__(
        self,
        name: str,
        span_id: int,
        parent_id: Optional[int],
        start_unix: float,
        start: float,
        duration_s: float = 0.0,
        attributes: Optional[Dict[str, object]] = None,
    ) -> None:
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        #: Wall-clock start (``time.time()``), for cross-process correlation.
        self.start_unix = start_unix
        #: Monotonic start (``time.perf_counter()``), for duration only.
        self.start = start
        self.duration_s = duration_s
        self.attributes: Dict[str, object] = {} if attributes is None else attributes
        self.tally: Optional[Dict[str, int]] = None

    def set(self, **attributes: object) -> "Span":
        """Attach attributes; chainable, no-op on the null span."""
        self.attributes.update(attributes)
        return self

    def open_tally(self) -> "Span":
        """Count :func:`tally` bumps under this span as its own attributes.

        Bumps made while this span or a descendant is current land in a
        fresh dict; when the span finishes the counts become attributes
        and are added to the tally of the enclosing span, if it has one.
        """
        self.tally = {}
        return self

    def __repr__(self) -> str:
        return (
            f"Span(name={self.name!r}, span_id={self.span_id!r}, "
            f"parent_id={self.parent_id!r}, duration_s={self.duration_s!r}, "
            f"attributes={self.attributes!r})"
        )


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

    def open_tally(self) -> "NullSpan":
        return self


#: The shared null span (stateless, safe to reuse everywhere).
NULL_SPAN = NullSpan()


class _NullSpanContext:
    """Reusable no-op context manager yielding :data:`NULL_SPAN`.

    :func:`span` returns it when tracing is off, and hot paths that
    pre-check ``ACTIVE`` use it directly to skip even building the
    attribute kwargs, so the disabled path allocates nothing.
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
        # ``next()`` on an ``itertools.count`` is atomic under the GIL, so
        # span ids need no lock.
        self._ids = itertools.count(1)
        self._lock = threading.Lock()

    # -- span bookkeeping --------------------------------------------------

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


class _OpenSpan(Span):
    """The span :func:`span` returns while a collector is installed.

    It is its own context manager, so opening a span allocates one
    object; ``__enter__`` stamps the id, parent and start times.
    """

    __slots__ = ("_collector", "_parent", "_token")

    def __init__(
        self, collector: Collector, name: str, attributes: Dict[str, object]
    ) -> None:
        self._collector = collector
        self.name = name
        self.attributes = attributes

    def __enter__(self) -> Span:
        parent = _CURRENT.get()
        self.span_id = next(self._collector._ids)
        if parent is None:
            self.parent_id = None
            self.tally = None
        else:
            self.parent_id = parent.span_id
            self.tally = parent.tally
        self._parent = parent
        self.start_unix = time.time()
        self.start = time.perf_counter()
        self.duration_s = 0.0
        self._token = _CURRENT.set(self)
        return self

    def __exit__(self, *exc: object) -> bool:
        _CURRENT.reset(self._token)
        counts = self.tally
        if counts is not None:
            parent = self._parent
            outer = None if parent is None else parent.tally
            if counts is not outer:  # this span opened the tally
                self.attributes.update(counts)
                if outer is not None:
                    for key, value in counts.items():
                        outer[key] = outer.get(key, 0) + value
        # A finished span keeps no link to its parent, its context or its
        # collector (whose span ring holds it: that would be a cycle).
        collector = self._collector
        self._collector = self._parent = self._token = None
        collector._finish(self)
        return False


def span(name: str, **attributes: object) -> ContextManager[Span]:
    """Open a child span of the current span for the ``with`` body.

    Yields the live :class:`Span` (mutate via :meth:`Span.set`) or the
    shared :data:`NULL_SPAN` when no collector is installed.  The span is
    finished — duration stamped, appended to the collector — when the
    block exits, even on exception or early ``return``.
    """
    collector = _collector
    if collector is None:
        return NULL_SPAN_CONTEXT
    return _OpenSpan(collector, name, attributes)


def tally(key: str, count: int = 1) -> None:
    """Add *count* to *key* in the tally of the current span, if it keeps one.

    The per-event replacement for a counter bump: no registry lookup and
    no lock, since a tally belongs to one span and so to one thread.
    Call it behind ``if trace.ACTIVE:``; bumps outside any span that
    opened a tally (:meth:`Span.open_tally`) are dropped.
    """
    current = _CURRENT.get()
    if current is not None:
        counts = current.tally
        if counts is not None:
            counts[key] = counts.get(key, 0) + count


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
