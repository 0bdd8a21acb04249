"""Left-anchored partitioning for inference that scales past one dense MRF.

Candidate pairs are grouped by their left concept.  Each anchor gets a
local graph over its own pairs plus the closing pairs between counterpart
concepts, restricted to counterparts inside the anchor's top-k cosine
neighborhood (one similarity pass serves every anchor); those closings are
what turn two anchored pairs into a ternary clique, and the top-k cut keeps
every local graph a constant size in k.  An anchor with a single pair, or
whose counterparts are mutually dissimilar, stays a unary-only problem and
decodes straight from its priors.  A pair is decided only by its anchor's
partition, and all partitions decode together in one message store over
their disjoint union, each frozen at its own convergence round, so every
partition's result is bitwise that of decoding it alone.
"""

from __future__ import annotations

import bisect
import itertools
import logging
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import ConfigurationError
from .evaluation import audit_labels
from .graph import (
    DEFAULT_PRIOR_P_ONE,
    Cliques,
    FactorGraph,
    PriorTable,
    build_factor_graph,
    checked_codes,
    enumerate_ternary_cliques,
    prior_table,
)
from .inference import Beliefs, LbpConfig, lbp_map, max_product_rounds
from .model import (
    AssignmentGraph,
    Concept,
    PriorBelief,
    TernaryPotential,
    qgrams,
    validate_vocabulary,
)

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


def trigram_embeddings(concepts: Sequence[Concept]) -> np.ndarray:
    """Character-trigram TF-IDF vectors over concept names, L2-normalized.

    Row i is the vector of concept id i.
    """
    n = validate_vocabulary(concepts)
    grams_per_concept = [qgrams(c.name.lower()) for c in concepts]
    vocab = sorted({g for grams in grams_per_concept for g in grams})
    index = {g: i for i, g in enumerate(vocab)}
    df = np.zeros(len(vocab), dtype=np.float64)
    for grams in grams_per_concept:
        for g in set(grams):
            df[index[g]] += 1.0
    idf = np.log(n / (1.0 + df)) + 1.0
    out = np.zeros((n, len(vocab)), dtype=np.float64)
    for concept, grams in zip(concepts, grams_per_concept):
        vec = out[concept.id]
        for g in grams:
            vec[index[g]] += 1.0
        vec *= idf
        norm = np.linalg.norm(vec)
        if norm > 0:
            vec /= norm
    return out


def top_k_neighbors(vectors: np.ndarray, k: int) -> np.ndarray:
    """Row i holds the ids of the k concepts most cosine-similar to concept i.

    ``vectors`` is the ``(n, d)`` embedding matrix indexed by concept id.
    Identical vectors read one row and column of the similarity matrix, the
    first of their ids, so they tie exactly, and ties go to smaller ids.  k is
    clipped to n - 1.
    """
    n = len(vectors)
    if k > n - 1:
        logger.warning("k=%d exceeds the %d available neighbors; clipping", k, n - 1)
        k = n - 1
    first: dict[bytes, int] = {}
    shared = np.array([first.setdefault(vec.tobytes(), i) for i, vec in enumerate(vectors)])
    del first  # frees a byte copy of each distinct vector before the (n, n) matrix
    norms = np.linalg.norm(vectors, axis=1)
    norms[norms == 0] = 1.0  # a zero vector keeps similarity 0 to all
    negated = vectors @ vectors.T
    negated /= norms
    negated /= -norms[:, None]
    copies = np.flatnonzero(shared != np.arange(n))
    if copies.size:
        negated[copies] = negated[shared[copies]]
        negated[:, copies] = negated[:, shared[copies]]
    np.fill_diagonal(negated, np.inf)  # a concept is not its own neighbor
    # A stable sort on negated similarity keeps ascending id among ties.
    return np.argsort(negated, axis=1, kind="stable")[:, :k].copy()


def _resolve_embeddings(
    concepts: Sequence[Concept], embeddings: Mapping[int, np.ndarray] | None
) -> np.ndarray:
    """External embeddings of ids 0..n-1 stacked by id, else trigram TF-IDF."""
    ids = range(len(concepts))
    if embeddings is not None:
        missing = [i for i in ids if i not in embeddings]
        if not missing:
            return np.stack([embeddings[i] for i in ids], dtype=np.float64)
        logger.warning(
            "%d concepts lack external embeddings (first: %d); "
            "falling back to character-trigram TF-IDF for all concepts",
            len(missing), missing[0],
        )
    return trigram_embeddings(concepts)


def _closing_pairs(owner: np.ndarray, symmetric: bool) -> tuple[np.ndarray, np.ndarray]:
    """Each partition's closing pairs as positions (a, b) into ``owner``.

    ``owner`` gives, in ascending order, the partition of each counterpart
    that can close a clique.  Every position meets every position of its own
    partition; equivalence keeps a < b, parent-child every a != b.
    """
    sizes = np.bincount(owner)[owner]  # counterparts of each one's partition
    group_start = owner.searchsorted(owner)
    a = np.arange(len(owner)).repeat(sizes)
    block_start = sizes.cumsum() - sizes
    b = np.arange(len(a)) - (block_start - group_start).repeat(sizes)
    keep = b > a if symmetric else b != a
    return a[keep], b[keep]


def _union_codes(
    owner: np.ndarray, anchors: np.ndarray, counterparts: np.ndarray,
    first: np.ndarray, second: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Member codes over the disjoint union of the partitions' concepts.

    Test pair e is (anchors[e], counterparts[e]) of partition owner[e];
    the pairs ascend, and so do their partitions 0..P-1.  The members are
    every test pair, then the closing pairs
    (counterparts[first], counterparts[second]).
    Partition g numbers its anchor and counterparts in concept order, after
    the partitions before it, so the union's n concepts number T + P for T
    test pairs and P partitions, whatever the vocabulary size, and each
    partition's union codes ascend as its codes do.  Returns the members'
    union codes, the concept id of each union concept, and n.
    """
    heads = np.flatnonzero(np.diff(owner, prepend=-1))
    size = len(anchors) + len(heads)
    above = counterparts > anchors  # a counterpart is never its anchor
    ids = np.arange(len(anchors)) + owner + above
    anchor_ids = heads + np.arange(len(heads)) + np.add.reduceat(~above, heads, dtype=np.int64)
    concept_ids = np.empty(size, dtype=np.int64)
    concept_ids[ids] = counterparts
    concept_ids[anchor_ids] = anchors[heads]
    codes = np.concatenate([anchor_ids[owner] * size + ids, ids[first] * size + ids[second]])
    return codes, concept_ids, size


def _cliques_by_partition(
    codes: np.ndarray, size: int, stops: np.ndarray, concept_ids: np.ndarray
) -> list[Cliques]:
    """Each partition's cliques, from one walk over the disjoint union.

    ``codes`` are the union codes of ``_union_codes`` in ascending order,
    and partition g holds the rows from ``stops[g - 1]`` (0 for the first)
    up to ``stops[g]``.  No two partitions share a union concept, so every
    clique lies in one partition, and one ``searchsorted`` cuts the walk.
    Each partition's variables count from its first row and its concepts
    are mapped back to concept ids; since ``_union_codes`` keeps each
    partition's concepts in order, partition g's cliques are bitwise
    ``enumerate_ternary_cliques`` of its own codes.
    """
    cliques = enumerate_ternary_cliques(codes, size)
    starts = np.r_[0, stops[:-1]]
    cuts = np.append(cliques.variables[:, 0].searchsorted(starts), len(cliques))
    variables = cliques.variables - starts.repeat(np.diff(cuts))[:, None]
    concepts = concept_ids[cliques.concepts]
    return [Cliques(concepts[a:b], variables[a:b]) for a, b in itertools.pairwise(cuts.tolist())]


def build_partitions(
    concepts: Sequence[Concept],
    pairs: Sequence[tuple[int, int]],
    priors: Mapping[tuple[int, int], PriorBelief | float],
    potential: TernaryPotential,
    config: PartitionConfig = PartitionConfig(),
    embeddings: Mapping[int, np.ndarray] | None = None,
) -> list[Partition]:
    """Group pairs by left concept and build each anchor's local graph.

    A self-pair or an unknown id in ``pairs`` raises ConfigurationError;
    two orientations of one symmetric pair name the same pair.  The priors
    are checked once into a ``PriorTable``, and each local graph takes its
    slice of that table.  One clique walk over the disjoint union of all
    local graphs serves every partition.
    """
    n = validate_vocabulary(concepts)
    kind = potential.kind
    if not pairs:
        raise ConfigurationError("cannot partition an empty pair list")
    table = prior_table(priors, n, kind)
    # Sorted and deduplicated by hand: np.unique's first call imports
    # numpy.ma, which alone raises a run's peak RSS by about 1.5 MB.
    test_codes = np.sort(checked_codes(pairs, n, kind))
    test_codes = test_codes[np.diff(test_codes, prepend=-1) > 0]
    anchors, counterparts = np.divmod(test_codes, n)
    neighbors = top_k_neighbors(_resolve_embeddings(concepts, embeddings), config.k)
    # Closing a clique takes two anchored pairs, so only counterpart
    # concepts inside the top-k cut can induce extra variables.
    inside = (neighbors[anchors] == counterparts[:, None]).any(axis=1).nonzero()[0]
    heads = np.r_[0, np.flatnonzero(np.diff(anchors)) + 1]
    owner = np.arange(len(heads)).repeat(np.diff(heads, append=len(anchors)))
    a, b = _closing_pairs(owner[inside], kind.symmetric)
    first, second = inside[a], inside[b]
    union, concept_ids, size = _union_codes(owner, anchors, counterparts, first, second)
    # Sorting the union codes sorts the members by partition, then by code.
    order = union.argsort()
    codes = np.concatenate([test_codes, counterparts[first] * n + counterparts[second]])
    # One lookup slices the table for every partition.
    local = table.select(codes[order], config.default_prior)
    stops = np.bincount(np.concatenate([owner, owner[first]])).cumsum()
    cliques = _cliques_by_partition(union[order], size, stops, concept_ids)

    test_pairs = list(zip(anchors.tolist(), counterparts.tolist()))
    owned = itertools.pairwise([*heads.tolist(), len(anchors)])
    rows = itertools.pairwise([0, *stops.tolist()])
    partitions: list[Partition] = []
    for (head, end), (start, stop), walked in zip(owned, rows, cliques):
        part = PriorTable(n, kind, local.codes[start:stop], local.unary_log[start:stop])
        graph = build_factor_graph(concepts, part, potential, mode="sparse", cliques=walked)
        partitions.append(Partition(test_pairs[head][0], tuple(test_pairs[head:end]), graph))
    return partitions


def _solve_partition(
    partition: Partition, beliefs: Beliefs, repair: bool
) -> tuple[AssignmentGraph, slice]:
    """One partition's local decode, and the rows of the pairs it owns."""
    try:
        assignment = lbp_map(partition.graph, repair=repair, beliefs=beliefs)
    except Exception as exc:  # surface the anchor with the first failure
        raise RuntimeError(f"inference failed in partition {partition.anchor}") from exc
    # The owned pairs are the local pairs whose left concept is the anchor:
    # closing pairs join two counterparts, so they form one sorted run.
    start = bisect.bisect_left(assignment.pairs, (partition.anchor,))
    return assignment, slice(start, start + len(partition.test_pairs))


def infer_partitions_parallel(
    partitions: Sequence[Partition],
    lbp_config: LbpConfig | None = None,
    workers: int = 1,
    repair: bool = False,
) -> AssignmentGraph:
    """Decode every partition in one batch and merge anchor-owned labels.

    All partitions run their message rounds together in one process, so no
    process pool starts; ``workers`` is validated but otherwise unread.
    Each partition's labels, margins and counts are bitwise those of
    decoding it alone.  The merged ``log_score`` is the sum of the local
    partition scores, each over its whole local graph; it is not the joint
    score of the returned labels.  The merged ``violations`` are the
    concept triples that a global audit of the merged labels finds broken;
    each partition summary counts its own.
    """
    if not partitions:
        raise ConfigurationError("no partitions to infer")
    if workers < 1:
        raise ConfigurationError("workers must be at least 1")
    beliefs = max_product_rounds([p.graph for p in partitions], lbp_config)
    solved = [_solve_partition(p, b, repair) for p, b in zip(partitions, beliefs)]
    decodes = [d for d, _ in solved]

    kind = partitions[0].graph.kind
    pairs = tuple(pair for part in partitions for pair in part.test_pairs)
    labels = np.concatenate([d.labels[rows] for d, rows in solved])
    return AssignmentGraph(
        kind=kind,
        pairs=pairs,
        labels=labels,
        log_score=sum(d.log_score for d in decodes),
        violations=audit_labels(dict(zip(pairs, labels.tolist())), kind)[1],
        iterations=max(d.iterations for d in decodes),
        converged=all(d.converged for d in decodes),
        last_label_change=max(d.last_label_change for d in decodes),
        margins=np.concatenate([d.margins[rows] for d, rows in solved]),
        repaired=any(d.repaired for d in decodes),
        partition_summaries=[
            {
                "anchor": part.anchor,
                "variables": part.graph.num_variables,
                "ternary_factors": part.graph.num_ternary_factors,
                "iterations": d.iterations,
                "converged": d.converged,
                "last_label_change": d.last_label_change,
                "log_score": d.log_score,
                "repaired": d.repaired,
                "violations": len(d.violations),
            }
            for part, d in zip(partitions, decodes)
        ],
    )
