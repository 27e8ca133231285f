"""Regeneration of every figure in the paper's evaluation (§V-E…§V-G).

Each ``figure*`` function returns the figure's data series as plain
dictionaries (method → group/series → value) ready for
:mod:`repro.experiments.reporting` to render; the comparison runners are
shared so effectiveness (Fig. 8) and efficiency (Fig. 9) come from the
same executions, exactly as in the paper.

| Function    | Paper figure | Content                                           |
|-------------|--------------|---------------------------------------------------|
| figure8a    | Fig. 8(a)    | F1 per (n_dim, n_raps) group on Squeeze-B0        |
| figure8b    | Fig. 8(b)    | RC@3/4/5 on RAPMD                                 |
| figure9a    | Fig. 9(a)    | mean running time per group on Squeeze-B0         |
| figure9b    | Fig. 9(b)    | mean running time on RAPMD                        |
| figure10a   | Fig. 10(a)   | RAPMiner RC@3 vs t_CP                             |
| figure10b   | Fig. 10(b)   | RAPMiner RC@3 vs t_conf                           |
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from ..core.config import RAPMinerConfig
from ..core.miner import RAPMiner
from ..data.injection import LocalizationCase
from .presets import ExperimentPreset, fast_preset, paper_methods
from .runner import MethodEvaluation, run_cases

__all__ = [
    "run_squeeze_comparison",
    "run_rapmd_comparison",
    "figure8a",
    "figure8b",
    "figure9a",
    "figure9b",
    "figure10a",
    "figure10b",
    "DEFAULT_TCP_GRID",
    "DEFAULT_TCONF_GRID",
]

#: The sensitivity grids of Fig. 10 (t_CP kept below 0.1; t_conf above 0.5).
DEFAULT_TCP_GRID: Tuple[float, ...] = (0.005, 0.01, 0.02, 0.04, 0.07, 0.10)
DEFAULT_TCONF_GRID: Tuple[float, ...] = (0.55, 0.65, 0.75, 0.85, 0.95)

#: k used by the RAPMD recall metrics.
RAPMD_KS: Tuple[int, ...] = (3, 4, 5)


def run_squeeze_comparison(
    cases: Sequence[LocalizationCase],
    methods: Optional[Sequence] = None,
) -> Dict[str, MethodEvaluation]:
    """Run the cohort on Squeeze-style cases under the F1 protocol."""
    methods = list(methods) if methods is not None else paper_methods()
    return {m.name: run_cases(m, cases, k_from_truth=True) for m in methods}


def run_rapmd_comparison(
    cases: Sequence[LocalizationCase],
    methods: Optional[Sequence] = None,
    k: int = max(RAPMD_KS),
) -> Dict[str, MethodEvaluation]:
    """Run the cohort on RAPMD cases under the top-k protocol."""
    methods = list(methods) if methods is not None else paper_methods()
    return {m.name: run_cases(m, cases, k=k) for m in methods}


# -- Fig. 8: effectiveness -----------------------------------------------------


def figure8a(
    evaluations: Dict[str, MethodEvaluation],
) -> Dict[str, Dict[Hashable, float]]:
    """Fig. 8(a): per-group mean F1 of each method on Squeeze-B0."""
    return {name: ev.group_mean_f1() for name, ev in evaluations.items()}


def figure8b(
    evaluations: Dict[str, MethodEvaluation],
    ks: Sequence[int] = RAPMD_KS,
) -> Dict[str, Dict[int, float]]:
    """Fig. 8(b): RC@k of each method on RAPMD."""
    return {name: {k: ev.recall_at(k) for k in ks} for name, ev in evaluations.items()}


# -- Fig. 9: efficiency --------------------------------------------------------


def figure9a(
    evaluations: Dict[str, MethodEvaluation],
) -> Dict[str, Dict[Hashable, float]]:
    """Fig. 9(a): per-group mean running time (seconds) on Squeeze-B0."""
    return {name: ev.group_mean_seconds() for name, ev in evaluations.items()}


def figure9b(evaluations: Dict[str, MethodEvaluation]) -> Dict[str, float]:
    """Fig. 9(b): mean running time (seconds) on RAPMD."""
    return {name: ev.mean_seconds for name, ev in evaluations.items()}


# -- Fig. 10: parameter sensitivity ---------------------------------------------


def figure10a(
    cases: Sequence[LocalizationCase],
    t_cp_values: Sequence[float] = DEFAULT_TCP_GRID,
    t_conf: float = 0.8,
    k: int = 3,
) -> Dict[float, float]:
    """Fig. 10(a): RAPMiner RC@k on RAPMD as ``t_CP`` varies."""
    curve: Dict[float, float] = {}
    for t_cp in t_cp_values:
        miner = RAPMiner(RAPMinerConfig(t_cp=t_cp, t_conf=t_conf))
        curve[t_cp] = run_cases(miner, cases, k=k).recall_at(k)
    return curve


def figure10b(
    cases: Sequence[LocalizationCase],
    t_conf_values: Sequence[float] = DEFAULT_TCONF_GRID,
    t_cp: float = 0.005,
    k: int = 3,
) -> Dict[float, float]:
    """Fig. 10(b): RAPMiner RC@k on RAPMD as ``t_conf`` varies."""
    curve: Dict[float, float] = {}
    for t_conf in t_conf_values:
        miner = RAPMiner(RAPMinerConfig(t_cp=t_cp, t_conf=t_conf))
        curve[t_conf] = run_cases(miner, cases, k=k).recall_at(k)
    return curve
