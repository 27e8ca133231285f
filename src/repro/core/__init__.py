"""The paper's primary contribution: the RAPMiner pipeline and its lattice model."""

from .attribute import WILDCARD, AttributeCombination, AttributeSchema
from .anomaly_confidence import anomaly_confidence, cuboid_confidences, is_anomalous
from .classification_power import (
    AttributeDeletionResult,
    all_classification_powers,
    binary_entropy,
    classification_power,
    delete_redundant_attributes,
    partition_attributes,
)
from .config import RAPMinerConfig
from .delta import DeltaConfig, DeltaSession, DeltaStats, DeltaTick, StreamingRAPMiner
from .cuboid import (
    Cuboid,
    cuboid_count,
    cuboids_in_layer,
    decrease_ratio,
    decrease_ratio_lower_bound,
    enumerate_cuboids,
    lattice_vertex_labels,
)
from .engine import (
    AggregationEngine,
    CandidateIndex,
    NaiveAggregationEngine,
    engine_for,
    install_engine,
)
from .explain import Explanation, PatternEvidence, explain
from .lattice_viz import (
    VertexState,
    render_cuboid_hierarchy,
    render_search_dag_dot,
    search_dag,
)
from .miner import LocalizationResult, RAPMiner
from .scoring import RAPCandidate, rank_candidates, rap_score
from .search import (
    SearchOutcome,
    SearchStats,
    batched_layerwise_topdown_search,
    layerwise_topdown_search,
)
from .kernels import stacked_key_dtype
from .stacked import (
    StackedCaseEngine,
    StackedLayer,
    group_datasets_by_layout,
)

__all__ = [
    "WILDCARD",
    "AttributeCombination",
    "AttributeSchema",
    "anomaly_confidence",
    "cuboid_confidences",
    "is_anomalous",
    "AttributeDeletionResult",
    "all_classification_powers",
    "binary_entropy",
    "classification_power",
    "delete_redundant_attributes",
    "RAPMinerConfig",
    "Cuboid",
    "cuboid_count",
    "cuboids_in_layer",
    "decrease_ratio",
    "decrease_ratio_lower_bound",
    "enumerate_cuboids",
    "lattice_vertex_labels",
    "AggregationEngine",
    "CandidateIndex",
    "NaiveAggregationEngine",
    "engine_for",
    "install_engine",
    "Explanation",
    "PatternEvidence",
    "explain",
    "DeltaConfig",
    "DeltaSession",
    "DeltaStats",
    "DeltaTick",
    "StreamingRAPMiner",
    "VertexState",
    "render_cuboid_hierarchy",
    "render_search_dag_dot",
    "search_dag",
    "LocalizationResult",
    "RAPMiner",
    "RAPCandidate",
    "rank_candidates",
    "rap_score",
    "SearchOutcome",
    "SearchStats",
    "batched_layerwise_topdown_search",
    "layerwise_topdown_search",
    "StackedCaseEngine",
    "StackedLayer",
    "group_datasets_by_layout",
    "stacked_key_dtype",
    "partition_attributes",
]
