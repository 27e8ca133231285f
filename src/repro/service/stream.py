"""Replay a tick sequence through the streaming delta pipeline.

The evaluation harness (:mod:`repro.experiments.runner`) treats cases as
independent problems; this module treats them as *consecutive ticks of
one stream*, which is what the delta path
(:class:`~repro.core.delta.StreamingRAPMiner` over a
:class:`~repro.core.delta.DeltaSession`) is built for.  It backs the
``repro stream-localize`` subcommand and the ``make bench-stream``
benchmark, and doubles as the reference harness for asserting the delta
path's bit-identical-candidates contract against a stateless miner
(``verify=True``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Union

from ..core.delta import StreamingRAPMiner
from ..core.miner import RAPMiner
from ..data.dataset import FineGrainedDataset
from ..data.injection import LocalizationCase

__all__ = ["TickRecord", "StreamReplay", "replay_stream"]


@dataclass
class TickRecord:
    """One replayed tick's outcome and cost."""

    index: int
    case_id: Optional[str]
    path: str
    reason: Optional[str]
    changed_fraction: float
    seconds: float
    stop_reason: Optional[str]
    patterns: list
    #: Predicted patterns found in the case's ground truth (``None``
    #: when the tick came without truth).
    hits: Optional[int] = None
    #: ``verify`` mode only: candidates bit-identical to stateless?
    verified: Optional[bool] = None


@dataclass
class StreamReplay:
    """Everything one stream replay produced."""

    ticks: List[TickRecord] = field(default_factory=list)

    @property
    def patched_ticks(self) -> int:
        return sum(1 for t in self.ticks if t.path == "patched")

    @property
    def cold_ticks(self) -> int:
        return sum(1 for t in self.ticks if t.path == "cold")

    @property
    def total_seconds(self) -> float:
        return sum(t.seconds for t in self.ticks)

    @property
    def amortized_seconds(self) -> float:
        """Mean per-tick latency, cold first tick included."""
        return self.total_seconds / len(self.ticks) if self.ticks else 0.0

    @property
    def mismatches(self) -> List[int]:
        """Tick indices where ``verify`` found a candidate divergence."""
        return [t.index for t in self.ticks if t.verified is False]


def _stateless_candidates(miner: RAPMiner, dataset: FineGrainedDataset, k):
    """Reference run on a rebuilt dataset (fresh engine, no shared caches)."""
    rebuilt = FineGrainedDataset(
        dataset.schema, dataset.codes.copy(), dataset.v, dataset.f, dataset.labels
    )
    return miner.run(rebuilt, k).candidates


def replay_stream(
    ticks: Sequence[Union[FineGrainedDataset, LocalizationCase]],
    miner: Optional[StreamingRAPMiner] = None,
    k: Optional[int] = None,
    verify: bool = False,
    slo=None,
) -> StreamReplay:
    """Run *ticks* in order through one streaming miner.

    Parameters
    ----------
    ticks:
        Labelled datasets, or :class:`LocalizationCase` instances whose
        datasets are replayed in input order (their ground truth, when
        present, fills ``TickRecord.hits``).
    miner:
        The streaming miner to drive (a fresh default one otherwise).
        Its session persists across the whole replay — layout changes
        between ticks re-anchor it cold, exactly as in production.
    k:
        Top-k per tick (``None`` = every candidate; for cases with
        truth, ``None`` means k = number of true RAPs, matching the
        evaluation harness convention).
    verify:
        Re-run every tick through a stateless :class:`RAPMiner` on a
        fresh engine and record whether the candidates are identical —
        full field equality, float confidences included.
    slo:
        Optional :class:`~repro.obs.slo.SLOTracker` fed one
        :class:`~repro.obs.slo.TickOutcome` per replayed tick (latency,
        patched/cold path, deadline stops, verify mismatches), exporting
        the ``slo_*`` burn-rate gauges into the active registry so a
        live scrape judges the replay against its objectives.
    """
    miner = miner if miner is not None else StreamingRAPMiner()
    reference = RAPMiner(miner.config) if verify else None
    replay = StreamReplay()
    for index, tick in enumerate(ticks):
        case = tick if isinstance(tick, LocalizationCase) else None
        dataset = case.dataset if case is not None else tick
        tick_k = k
        if tick_k is None and case is not None and case.true_raps:
            tick_k = len(case.true_raps)
        started = time.perf_counter()
        result = miner.run(dataset, tick_k)
        seconds = time.perf_counter() - started
        stats = miner.stats
        hits = None
        if case is not None and case.true_raps:
            hits = sum(1 for p in result.patterns if p in case.true_raps)
        verified = None
        if reference is not None:
            verified = result.candidates == _stateless_candidates(
                reference, dataset, tick_k
            )
        record = TickRecord(
            index=index,
            case_id=case.case_id if case is not None else None,
            path=stats.last_path or "cold",
            reason=stats.last_reason,
            changed_fraction=stats.last_changed_fraction or 1.0,
            seconds=seconds,
            stop_reason=result.stats.stop_reason,
            patterns=result.patterns,
            hits=hits,
            verified=verified,
        )
        replay.ticks.append(record)
        if slo is not None:
            from ..obs.slo import TickOutcome

            slo.record(
                TickOutcome(
                    seconds=seconds,
                    error=verified is False,
                    degraded=record.stop_reason == "deadline",
                    tier=getattr(result.stats, "degradation_tier", None),
                    path=record.path,
                )
            )
    return replay
