"""Left-anchored partitioning for inference that scales past one dense MRF.

Candidate pairs are grouped by their left concept.  Each anchor gets a
local graph over its own pairs plus the closing pairs between counterpart
concepts, restricted to counterparts inside the anchor's top-k cosine
neighborhood; those closings are what turn two anchored pairs into a
ternary clique, and the top-k cut keeps every local graph a constant size
in k.  An anchor with a single pair, or whose counterparts are mutually
dissimilar, stays a unary-only problem and decodes straight from its
priors.  A pair is decided only by its anchor's partition, so results are
independent of worker count and merge order.
"""

from __future__ import annotations

import logging
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import ConfigurationError
from .graph import DEFAULT_PRIOR_P_ONE, FactorGraph, build_factor_graph, canonical_priors
from .inference import LbpConfig, lbp_map
from .model import (
    AssignmentGraph,
    Concept,
    PriorBelief,
    RelationshipKind,
    TernaryPotential,
    canonical_pair,
    validate_vocabulary,
)
from .priors import _qgrams

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class PartitionConfig:
    k: int = 8
    default_prior: float = DEFAULT_PRIOR_P_ONE

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ConfigurationError("k must be at least 1")
        if not 0.0 <= self.default_prior <= 1.0:
            raise ConfigurationError("default_prior must lie in [0, 1]")


@dataclass(frozen=True, eq=False)
class Partition:
    """One anchor's local problem.

    test_pairs are the input pairs this partition is responsible for; the
    local graph may contain extra neighbor-induced pairs whose labels are
    discarded at merge time.
    """

    anchor: int
    test_pairs: tuple[tuple[int, int], ...]
    graph: FactorGraph


def trigram_embeddings(concepts: Sequence[Concept]) -> dict[int, np.ndarray]:
    """Character-trigram TF-IDF vectors over concept names, L2-normalized."""
    validate_vocabulary(concepts)
    grams_per_concept = [_qgrams(c.name) for c in concepts]
    vocab = sorted({g for grams in grams_per_concept for g in grams})
    index = {g: i for i, g in enumerate(vocab)}
    df = np.zeros(len(vocab), dtype=np.float64)
    for grams in grams_per_concept:
        for g in set(grams):
            df[index[g]] += 1.0
    idf = np.log(len(concepts) / (1.0 + df)) + 1.0
    out: dict[int, np.ndarray] = {}
    for concept, grams in zip(concepts, grams_per_concept):
        vec = np.zeros(len(vocab), dtype=np.float64)
        for g in grams:
            vec[index[g]] += 1.0
        vec *= idf
        norm = np.linalg.norm(vec)
        out[concept.id] = vec / norm if norm > 0 else vec
    return out


def top_k_neighbors(
    concept: int, embeddings: Mapping[int, np.ndarray], k: int
) -> list[int]:
    """Ids of the k most cosine-similar concepts, ties toward smaller ids."""
    if concept not in embeddings:
        raise ValueError(f"concept {concept} has no embedding")
    ids = sorted(embeddings)
    others = [i for i in ids if i != concept]
    if k > len(others):
        logger.warning(
            "k=%d exceeds the %d available neighbors of concept %d; clipping",
            k, len(others), concept,
        )
        k = len(others)
    if k == 0:
        return []
    matrix = np.stack([embeddings[i] for i in others])
    anchor = embeddings[concept]
    norms = np.linalg.norm(matrix, axis=1) * np.linalg.norm(anchor)
    with np.errstate(invalid="ignore", divide="ignore"):
        sims = np.where(norms > 0, matrix @ anchor / norms, 0.0)
    # Stable sort on negated similarity keeps ascending id among ties.
    order = np.argsort(-sims, kind="stable")[:k]
    return [others[i] for i in order]


def _resolve_embeddings(
    concepts: Sequence[Concept], embeddings: Mapping[int, np.ndarray] | None
) -> Mapping[int, np.ndarray]:
    if embeddings is not None:
        missing = [c.id for c in concepts if c.id not in embeddings]
        if not missing:
            return embeddings
        logger.warning(
            "%d concepts lack external embeddings (first: %d); "
            "falling back to character-trigram TF-IDF for all concepts",
            len(missing), missing[0],
        )
    return trigram_embeddings(concepts)


def build_partitions(
    concepts: Sequence[Concept],
    pairs: Sequence[tuple[int, int]],
    priors: Mapping[tuple[int, int], PriorBelief | float],
    potential: TernaryPotential,
    config: PartitionConfig = PartitionConfig(),
    embeddings: Mapping[int, np.ndarray] | None = None,
) -> list[Partition]:
    """Group pairs by left concept and build each anchor's local graph."""
    n = validate_vocabulary(concepts)
    kind = potential.kind
    if not pairs:
        raise ConfigurationError("cannot partition an empty pair list")
    canon_priors = canonical_priors(priors, n, kind)
    test_pairs = sorted({canonical_pair(left, right, kind) for left, right in pairs})
    by_anchor: dict[int, list[tuple[int, int]]] = {}
    for pair in test_pairs:
        by_anchor.setdefault(pair[0], []).append(pair)

    vectors = _resolve_embeddings(concepts, embeddings)

    partitions: list[Partition] = []
    for anchor in sorted(by_anchor):
        anchored = by_anchor[anchor]
        allowed = set(top_k_neighbors(anchor, vectors, config.k))
        # Closing a clique takes two anchored pairs, so only counterpart
        # concepts inside the top-k cut can induce extra variables.
        eligible = sorted({pair[1] for pair in anchored} & allowed)
        member_pairs = set(anchored)
        for i, a in enumerate(eligible):
            for b in eligible[i + 1 :]:
                member_pairs.add(canonical_pair(a, b, kind))
                if not kind.symmetric:
                    member_pairs.add(canonical_pair(b, a, kind))
        default = PriorBelief(config.default_prior)
        local_priors = {p: canon_priors.get(p, default) for p in member_pairs}
        graph = build_factor_graph(
            concepts, local_priors, potential, mode="sparse",
            default_prior=config.default_prior,
        )
        partitions.append(Partition(anchor, tuple(anchored), graph))
    return partitions


def _solve_partition(
    partition: Partition, lbp_config: LbpConfig, repair: bool
) -> dict:
    try:
        assignment = lbp_map(partition.graph, lbp_config, repair=repair)
    except Exception as exc:  # surface the anchor with the first failure
        raise RuntimeError(f"inference failed in partition {partition.anchor}") from exc
    label_of = assignment.label_map()
    margin_of = {
        pair: float(margin)
        for pair, margin in zip(assignment.pairs, assignment.margins)
    }
    return {
        "anchor": partition.anchor,
        "labels": {pair: label_of[pair] for pair in partition.test_pairs},
        "margins": {pair: margin_of[pair] for pair in partition.test_pairs},
        "log_score": assignment.log_score,
        "violations": assignment.violations,
        "iterations": assignment.iterations,
        "converged": assignment.converged,
        "variables": partition.graph.num_variables,
        "ternary_factors": partition.graph.num_ternary_factors,
        "repaired": assignment.repaired,
    }


def _usable_cores() -> int:
    if hasattr(os, "sched_getaffinity"):  # not every platform has affinity
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def infer_partitions_parallel(
    partitions: Sequence[Partition],
    lbp_config: LbpConfig | None = None,
    workers: int = 1,
    repair: bool = False,
) -> AssignmentGraph:
    """Run every partition and merge anchor-owned labels.

    The merge collects results in partition order, so any worker count
    produces bitwise-identical output.  No more processes start than this
    process has usable cores; with one, partitions run in-process.
    """
    if not partitions:
        raise ConfigurationError("no partitions to infer")
    if workers < 1:
        raise ConfigurationError("workers must be at least 1")
    lbp_config = lbp_config or LbpConfig()
    workers = min(workers, _usable_cores())
    if workers == 1:
        results = [_solve_partition(p, lbp_config, repair) for p in partitions]
    else:
        chunk = max(1, len(partitions) // (workers * 4))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(
                pool.map(
                    _solve_partition,
                    partitions,
                    [lbp_config] * len(partitions),
                    [repair] * len(partitions),
                    chunksize=chunk,
                )
            )

    merged_pairs: list[tuple[int, int]] = []
    merged_labels: list[int] = []
    merged_margins: list[float] = []
    violations: list[tuple[int, int]] = []
    summaries: list[dict] = []
    total_score = 0.0
    iterations = 0
    converged = True
    for result in results:
        for pair in sorted(result["labels"]):
            merged_pairs.append(pair)
            merged_labels.append(result["labels"][pair])
            merged_margins.append(result["margins"][pair])
        violations.extend((result["anchor"], v) for v in result["violations"])
        total_score += result["log_score"]
        iterations = max(iterations, result["iterations"])
        converged = converged and result["converged"]
        summaries.append(
            {
                key: result[key]
                for key in (
                    "anchor", "variables", "ternary_factors", "iterations",
                    "converged", "log_score", "repaired",
                )
            }
            | {"violations": len(result["violations"])}
        )
    kind = partitions[0].graph.kind
    return AssignmentGraph(
        kind=kind,
        pairs=tuple(merged_pairs),
        labels=np.array(merged_labels, dtype=np.int64),
        log_score=total_score,
        violations=violations,
        iterations=iterations,
        converged=converged,
        margins=np.array(merged_margins, dtype=np.float64),
        repaired=any(r["repaired"] for r in results),
        partition_summaries=summaries,
    )
