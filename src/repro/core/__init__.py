"""ACME core algorithms: Phase 1 (backbone) and Phase 2 (header) customization."""

from repro.core.aggregation import (
    AGGREGATION_METHODS,
    AggregationResult,
    aggregate_importance_sets,
    aggregation_weights,
    personalized_architecture_aggregation,
)
from repro.core.controller import (
    ArchitectureController,
    MovingAverageBaseline,
    SampledArchitecture,
)
from repro.core.distill import DistillConfig, DistillReport, distill
from repro.core.header_importance import (
    ImportanceConfig,
    compute_importance_set,
    prune_by_importance,
)
from repro.core.importance import (
    BackboneImportance,
    estimate_backbone_importance,
    header_parameter_importance,
)
from repro.core.matching import (
    GreedyAccuracyMatcher,
    GreedySizeMatcher,
    MatchResult,
    MatchingPolicy,
    PFGMatcher,
    RandomMatcher,
    make_policies,
    trade_off_score,
)
from repro.core.nas import HeaderSearch, NASConfig, SearchResult, SharedOpPool
from repro.core.pareto import (
    Candidate,
    ParetoFrontGrid,
    build_pfg,
    dominates,
    grid_coordinates,
    pareto_front,
    select_model,
)
from repro.core.search_space import (
    SearchSpaceAccounting,
    header_search_space_size,
    table1_search_space_row,
)
from repro.core.segmentation import (
    BackboneGenerationResult,
    clone_model,
    generate_backbone,
)
from repro.core.similarity import (
    build_similarity_matrix,
    distance_matrix,
    extract_features,
    js_divergence,
    regularize_similarity,
    similarity_from_distances,
    sliced_wasserstein,
)

__all__ = [
    "AGGREGATION_METHODS",
    "AggregationResult",
    "ArchitectureController",
    "BackboneGenerationResult",
    "BackboneImportance",
    "Candidate",
    "DistillConfig",
    "DistillReport",
    "GreedyAccuracyMatcher",
    "GreedySizeMatcher",
    "HeaderSearch",
    "ImportanceConfig",
    "MatchResult",
    "MatchingPolicy",
    "MovingAverageBaseline",
    "NASConfig",
    "PFGMatcher",
    "ParetoFrontGrid",
    "RandomMatcher",
    "SampledArchitecture",
    "SearchResult",
    "SearchSpaceAccounting",
    "SharedOpPool",
    "aggregate_importance_sets",
    "aggregation_weights",
    "build_pfg",
    "build_similarity_matrix",
    "clone_model",
    "compute_importance_set",
    "distance_matrix",
    "distill",
    "dominates",
    "estimate_backbone_importance",
    "extract_features",
    "generate_backbone",
    "grid_coordinates",
    "header_parameter_importance",
    "header_search_space_size",
    "js_divergence",
    "make_policies",
    "pareto_front",
    "personalized_architecture_aggregation",
    "prune_by_importance",
    "regularize_similarity",
    "select_model",
    "similarity_from_distances",
    "sliced_wasserstein",
    "table1_search_space_row",
    "trade_off_score",
]
