"""Span-family profiling: self-time vs child-time per span name.

A span's duration includes everything its children did, so summing raw
durations per name double-counts nested work and hides where the
milliseconds actually went.  This module subtracts each span's direct
children to get **self time** — the classic profiler view — aggregated
per span *family* (name):

* :func:`profile_spans` — the core pass over any iterable of finished
  spans (``repro.obs.Span`` objects, or the dicts ``read_jsonl`` yields).
* :func:`profile_collector` — a live :class:`~repro.obs.trace.Collector`.
* :func:`render_profile` — the fixed-width top-N table behind the
  ``repro profile`` subcommand and the server's ``/debug/profile`` view.

Child time can legitimately exceed the parent's wall time when children
run on fan-out threads; self time is clamped at zero per span so a
threaded parent never reports negative work.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple, Union

from .trace import Collector, Span

__all__ = [
    "FamilyProfile",
    "profile_spans",
    "profile_collector",
    "profile_records",
    "render_profile",
]

_SpanLike = Union[Span, Dict[str, object]]


@dataclass
class FamilyProfile:
    """Aggregated timing of every span sharing one name."""

    name: str
    count: int
    total_s: float
    self_s: float
    child_s: float

    @property
    def mean_self_s(self) -> float:
        return self.self_s / self.count if self.count else 0.0

    @property
    def self_fraction(self) -> float:
        """Self share of the family's total duration (1.0 = leaf family)."""
        return self.self_s / self.total_s if self.total_s > 0.0 else 1.0

    def as_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "count": self.count,
            "total_s": self.total_s,
            "self_s": self.self_s,
            "child_s": self.child_s,
            "mean_self_s": self.mean_self_s,
            "self_fraction": self.self_fraction,
        }


def _fields(span: _SpanLike) -> Tuple[str, object, object, float]:
    """``(family, span_id, parent_id, duration_s)`` from a span or a record."""
    if isinstance(span, dict):
        return (
            str(span.get("name", "")),
            span.get("span_id"),
            span.get("parent_id"),
            float(span.get("duration_s", 0.0) or 0.0),
        )
    return span.name, span.span_id, span.parent_id, span.duration_s


def profile_spans(spans: Iterable[_SpanLike]) -> List[FamilyProfile]:
    """Per-family self/child/total times, sorted by self time descending."""
    rows = [_fields(span) for span in spans]
    child_of: Dict[object, float] = {}
    for __, ___, parent_id, duration in rows:
        if parent_id is not None:
            child_of[parent_id] = child_of.get(parent_id, 0.0) + duration
    families: Dict[str, FamilyProfile] = {}
    for name, span_id, __, duration in rows:
        child = child_of.get(span_id, 0.0)
        profile = families.get(name)
        if profile is None:
            profile = families[name] = FamilyProfile(name, 0, 0.0, 0.0, 0.0)
        profile.count += 1
        profile.total_s += duration
        profile.child_s += child
        profile.self_s += max(duration - child, 0.0)
    return sorted(families.values(), key=lambda p: (-p.self_s, p.name))


def profile_collector(collector: Collector) -> List[FamilyProfile]:
    """Profile every finished span of a live (or completed) capture."""
    return profile_spans(collector.snapshot_spans())


def profile_records(records: Iterable[Dict[str, object]]) -> List[FamilyProfile]:
    """Profile the ``type == "span"`` lines of a parsed JSONL trace."""
    return profile_spans(r for r in records if r.get("type") == "span")


def _format_seconds(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:.2f}s"
    if seconds >= 1e-3:
        return f"{seconds * 1e3:.2f}ms"
    return f"{seconds * 1e6:.0f}us"


def render_profile(
    profiles: List[FamilyProfile], top: Optional[int] = 15
) -> str:
    """Fixed-width top-N table of a span-family profile."""
    if not profiles:
        return "(no spans to profile)"
    shown = profiles if top is None else profiles[: max(top, 1)]
    name_width = max(len("span"), max(len(p.name) for p in shown))
    lines = [
        f"{'span'.ljust(name_width)}  {'count':>6}  {'self':>9}  "
        f"{'self%':>6}  {'child':>9}  {'total':>9}  {'mean self':>9}"
    ]
    for p in shown:
        lines.append(
            f"{p.name.ljust(name_width)}  {p.count:>6}  "
            f"{_format_seconds(p.self_s):>9}  {p.self_fraction * 100:>5.1f}%  "
            f"{_format_seconds(p.child_s):>9}  {_format_seconds(p.total_s):>9}  "
            f"{_format_seconds(p.mean_self_s):>9}"
        )
    hidden = len(profiles) - len(shown)
    if hidden > 0:
        lines.append(f"({hidden} more famil{'y' if hidden == 1 else 'ies'} below the top-{len(shown)})")
    return "\n".join(lines)
