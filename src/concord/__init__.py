"""Collective relationship inference over concept pairs.

Candidate relationships (equivalence or parent-child) between schema
concepts are modeled as binary variables in a factor graph whose ternary
potentials reward transitive-consistent labelings.  Pairwise priors come
from calibrated string features or external scores; decoding runs
max-product belief propagation, on large vocabularies partitioned and
batched into one message store.  The exhaustive ``exact_map_oracle`` is a
reference for checking small decodes, not a decoding path.
"""

from .errors import ConfigurationError, InputFormatError
from .evaluation import (
    Metrics,
    SyntheticDataset,
    audit_labels,
    cliques_among,
    count_transitivity_violations,
    generate_synthetic,
    prf1,
)
from .graph import (
    FactorGraph, PriorTable, build_factor_graph, count_graph_stats, enumerate_ternary_cliques,
    prior_table,
)
from .inference import (
    LbpConfig,
    exact_map_oracle,
    greedy_repair,
    joint_log_score,
    lbp_map,
    prior_flips,
    violated_cliques,
)
from .model import (
    DEFAULT_WEIGHTS,
    LOG_ZERO,
    AssignmentGraph,
    Concept,
    PriorBelief,
    RelationshipKind,
    TernaryPotential,
    canonical_pair,
    configuration_index,
)
from .partition import (
    Partition,
    PartitionConfig,
    build_partitions,
    infer_partitions_parallel,
    top_k_neighbors,
    trigram_embeddings,
)
from .priors import (
    FeatureVector,
    LinearPriorModel,
    TrainConfig,
    calibrate_temperature,
    extract_features,
    load_external_priors,
    predict_prior,
    train_linear_prior,
)
from .tuning import SearchSpace, TrialConfig, TrialRecord, tune

__version__ = "0.1.0"

__all__ = [
    "AssignmentGraph",
    "Concept",
    "ConfigurationError",
    "DEFAULT_WEIGHTS",
    "FactorGraph",
    "FeatureVector",
    "InputFormatError",
    "LOG_ZERO",
    "LbpConfig",
    "LinearPriorModel",
    "Metrics",
    "Partition",
    "PartitionConfig",
    "PriorBelief",
    "PriorTable",
    "RelationshipKind",
    "SearchSpace",
    "SyntheticDataset",
    "TernaryPotential",
    "TrainConfig",
    "TrialConfig",
    "TrialRecord",
    "audit_labels",
    "build_factor_graph",
    "build_partitions",
    "calibrate_temperature",
    "canonical_pair",
    "cliques_among",
    "configuration_index",
    "count_graph_stats",
    "count_transitivity_violations",
    "enumerate_ternary_cliques",
    "exact_map_oracle",
    "extract_features",
    "generate_synthetic",
    "greedy_repair",
    "infer_partitions_parallel",
    "joint_log_score",
    "lbp_map",
    "load_external_priors",
    "predict_prior",
    "prf1",
    "prior_flips",
    "prior_table",
    "top_k_neighbors",
    "train_linear_prior",
    "trigram_embeddings",
    "tune",
    "violated_cliques",
    "__version__",
]
