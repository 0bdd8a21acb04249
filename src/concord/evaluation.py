"""Scoring, transitivity audits, and synthetic benchmark generation."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import ConfigurationError
from .graph import Cliques, all_pairs, configuration_codes, enumerate_ternary_cliques
from .model import Concept, RelationshipKind

PairLabels = Mapping[tuple[int, int], int]


@dataclass(frozen=True)
class Metrics:
    """Positive-class precision/recall/F1 with explicit zero-division flag."""

    tp: int
    fp: int
    fn: int
    tn: int
    precision: float
    recall: float
    f1: float
    zero_division: bool

    @classmethod
    def from_counts(cls, tp: int, fp: int, fn: int, tn: int = 0) -> "Metrics":
        zero_division = False
        if tp + fp == 0:
            precision, zero_division = 0.0, True
        else:
            precision = tp / (tp + fp)
        if tp + fn == 0:
            recall, zero_division = 0.0, True
        else:
            recall = tp / (tp + fn)
        if precision + recall == 0.0:
            f1 = 0.0
            zero_division = zero_division or tp + fp + fn > 0
        else:
            f1 = 2.0 * precision * recall / (precision + recall)
        return cls(tp, fp, fn, tn, precision, recall, f1, zero_division)

    def to_dict(self) -> dict:
        return {
            "tp": self.tp, "fp": self.fp, "fn": self.fn, "tn": self.tn,
            "precision": self.precision, "recall": self.recall, "f1": self.f1,
            "zero_division": self.zero_division,
        }


def prf1(predicted: PairLabels, gold: PairLabels) -> Metrics:
    """Positive-class metrics over two label maps with identical coverage."""
    if set(predicted) != set(gold):
        only_pred = len(set(predicted) - set(gold))
        only_gold = len(set(gold) - set(predicted))
        raise ValueError(
            f"pair coverage mismatch: {only_pred} pairs only in predictions, "
            f"{only_gold} only in gold"
        )
    tp = fp = fn = tn = 0
    for pair, actual in gold.items():
        pred = predicted[pair]
        if pred not in (0, 1) or actual not in (0, 1):
            raise ValueError(f"labels must be 0 or 1, got {pred!r}/{actual!r} for {pair}")
        if pred == 1 and actual == 1:
            tp += 1
        elif pred == 1:
            fp += 1
        elif actual == 1:
            fn += 1
        else:
            tn += 1
    return Metrics.from_counts(tp, fp, fn, tn)


def count_transitivity_violations(
    labels: PairLabels,
    cliques: Cliques,
    kind: RelationshipKind,
) -> tuple[int, list[tuple[int, int, int]]]:
    """Count cliques whose (x_ij, x_jk, x_ik) configuration is forbidden.

    ``cliques`` is ``cliques_among(labels, kind)``: its variables index the
    map's iteration order, and each clique's code 4*x_ij + 2*x_jk + x_ik
    indexes ``kind.forbidden``.  Returns the count and the broken triples.
    """
    x = np.fromiter(labels.values(), np.int8, len(labels))
    broken = kind.forbidden[configuration_codes(x, cliques.variables)]
    violating = list(map(tuple, cliques.concepts[broken].tolist()))
    return len(violating), violating


def cliques_among(labels: PairLabels, kind: RelationshipKind) -> Cliques:
    """Concept triples whose three pairs are all keys of the label map.

    A clique's variables are the positions of its pairs in the map's
    iteration order.  The keys are already canonical for ``kind``, so the
    walk itself needs no kind.  A self-pair key would close cliques that
    repeat a concept, so it raises ``ConfigurationError``.
    """
    pairs = np.fromiter(itertools.chain.from_iterable(labels), np.int64, 2 * len(labels))
    selves = np.flatnonzero(pairs[0::2] == pairs[1::2])
    if selves.size:
        i = int(pairs[2 * selves[0]])
        raise ConfigurationError(f"label map holds the self-pair ({i}, {i})")
    n = int(pairs.max(initial=-1)) + 1
    codes = pairs[0::2] * n + pairs[1::2]
    order = codes.argsort()
    cliques = enumerate_ternary_cliques(codes[order], n)
    return Cliques(cliques.concepts, order[cliques.variables])


def audit_labels(labels: PairLabels, kind: RelationshipKind) -> tuple[int, list]:
    """Transitivity audit over every clique closable from the label map."""
    return count_transitivity_violations(labels, cliques_among(labels, kind), kind)


# ---------------------------------------------------------------------------
# Synthetic benchmark generation
# ---------------------------------------------------------------------------

_SYLLABLES_A = (
    "bar", "cen", "dor", "fal", "gam", "hel", "jun", "kor", "lam", "mer",
    "nov", "pel", "quin", "ros", "sol", "tam", "ul", "ver", "wex", "yar",
    "zel", "ard", "bru", "cal", "dun", "eri", "fen", "gor", "hol", "ili",
    "jor", "kan", "lum", "mon", "nar", "ost", "pra", "rud", "sta", "tor",
)
_SYLLABLES_B = (
    "dal", "den", "dic", "lan", "lor", "mas", "met", "min", "nor", "pha",
    "rik", "rin", "sa", "sen", "tor", "tun", "va", "vel", "vis", "zen",
    "bel", "cor", "dim", "eth", "fir", "gan", "hin", "ium", "jas", "kel",
    "lin", "mur", "nis", "oth", "pin", "qua", "rem", "sul", "tan", "ude",
)


class _WordPool:
    """Stream of distinct pseudo-words, order shuffled by the dataset RNG."""

    def __init__(self, rng: np.random.Generator) -> None:
        base = [a + b for a, b in itertools.product(_SYLLABLES_A, _SYLLABLES_B)]
        self._base = [base[i] for i in rng.permutation(len(base))]
        self._cursor = 0

    def next(self) -> str:
        if self._cursor < len(self._base):
            word = self._base[self._cursor]
        else:
            index = self._cursor - len(self._base)
            word = self._base[index % len(self._base)] + str(index // len(self._base) + 2)
        self._cursor += 1
        return word


@dataclass(frozen=True)
class SyntheticDataset:
    kind: RelationshipKind
    concepts: tuple[Concept, ...]
    pairs: tuple[tuple[int, int], ...]
    gold: dict[tuple[int, int], int]
    priors: dict[tuple[int, int], float]
    splits: dict[str, tuple[tuple[int, int], ...]]
    seed: int

    def split_gold(self, name: str) -> dict[tuple[int, int], int]:
        return {pair: self.gold[pair] for pair in self.splits[name]}

    def prior_argmax(self) -> dict[tuple[int, int], int]:
        return {pair: 1 if p > 0.5 else 0 for pair, p in self.priors.items()}


def _confident_probability(rng: np.random.Generator, toward_gold: bool) -> float:
    # Beta(8, 2) confidence conditioned above 0.5, so the argmax always
    # points at the intended state and the flip rate is exactly the noise
    # probability.
    for _ in range(1000):
        draw = float(rng.beta(8.0, 2.0))
        if draw > 0.5:
            conf = draw
            break
    else:
        conf = 0.5 + 0.5 * float(rng.random())
    return conf if toward_gold else 1.0 - conf


def _noisy_priors(
    rng: np.random.Generator,
    pairs: Sequence[tuple[int, int]],
    gold: Mapping[tuple[int, int], int],
    prior_noise: float,
) -> dict[tuple[int, int], float]:
    priors: dict[tuple[int, int], float] = {}
    for pair in pairs:
        correct = rng.random() >= prior_noise
        p_gold = _confident_probability(rng, correct)
        priors[pair] = p_gold if gold[pair] == 1 else 1.0 - p_gold
    return priors


def _stratified_splits(
    rng: np.random.Generator,
    pairs: Sequence[tuple[int, int]],
    gold: Mapping[tuple[int, int], int],
    fractions: Sequence[float],
) -> dict[str, tuple[tuple[int, int], ...]]:
    if len(fractions) != 3 or any(f < 0 for f in fractions) or not math.isclose(sum(fractions), 1.0):
        raise ConfigurationError("split fractions must be three non-negative values summing to 1")
    names = ("train", "validation", "test")
    buckets: dict[str, list[tuple[int, int]]] = {name: [] for name in names}
    for label in (1, 0):
        stratum = [p for p in pairs if gold[p] == label]
        order = rng.permutation(len(stratum))
        cut1 = round(len(stratum) * fractions[0])
        cut2 = cut1 + round(len(stratum) * fractions[1])
        for slot, idx in enumerate(order):
            name = names[0] if slot < cut1 else names[1] if slot < cut2 else names[2]
            buckets[name].append(stratum[idx])
    return {name: tuple(sorted(bucket)) for name, bucket in buckets.items()}


def _cluster_sizes(rng: np.random.Generator, n: int, n_clusters: int) -> list[int]:
    cuts = sorted(rng.choice(np.arange(1, n), size=n_clusters - 1, replace=False).tolist())
    edges = [0] + cuts + [n]
    return [edges[i + 1] - edges[i] for i in range(n_clusters)]


def _equivalence_concepts(
    rng: np.random.Generator, n: int, n_clusters: int, pool: _WordPool
) -> tuple[list[Concept], list[int]]:
    sizes = _cluster_sizes(rng, n, n_clusters)
    membership = [c for c, size in enumerate(sizes) for _ in range(size)]
    order = rng.permutation(n)
    cluster_of = [0] * n
    for slot, concept_id in enumerate(order):
        cluster_of[int(concept_id)] = membership[slot]
    base_tokens = [[pool.next(), pool.next()] for _ in range(n_clusters)]
    concepts = []
    for cid in range(n):
        tokens = list(base_tokens[cluster_of[cid]])
        if rng.random() < 0.3:
            tokens.reverse()
        if rng.random() < 0.4:
            tokens.append(pool.next())
        concepts.append(Concept(cid, " ".join(tokens)))
    return concepts, cluster_of


def _sample_sparse_pairs(
    rng: np.random.Generator,
    n: int,
    cluster_of: Sequence[int],
    pairs_per_concept: int,
) -> list[tuple[int, int]]:
    """Blocked candidate pairs: cluster cliques plus confusable cross blocks.

    Mirrors what blocking hands a real matcher: every within-cluster pair,
    dense cross pairs against a few decoy clusters (so wrong positives still
    sit inside closable triangles), and one random long-range pair per
    concept.  pairs_per_concept // 2 controls the decoy-cluster count.
    """
    members: dict[int, list[int]] = {}
    for cid, cluster in enumerate(cluster_of):
        members.setdefault(cluster, []).append(cid)
    pairs: set[tuple[int, int]] = set()
    for group in members.values():
        for a, b in itertools.combinations(group, 2):
            pairs.add((a, b))
    labels = sorted(members)
    decoy_count = max(1, min(pairs_per_concept // 2, len(labels) - 1))
    blocks: set[tuple[int, int]] = set()
    for cluster in labels:
        others = [c for c in labels if c != cluster]
        chosen = rng.choice(len(others), size=decoy_count, replace=False)
        for pick in chosen:
            pair = (cluster, others[int(pick)])
            blocks.add((min(pair), max(pair)))
    for left_cluster, right_cluster in sorted(blocks):
        for a in members[left_cluster]:
            for b in members[right_cluster]:
                if rng.random() < 0.5:
                    pairs.add((min(a, b), max(a, b)))
    for cid in range(n):
        other = int(rng.integers(0, n - 1))
        if other >= cid:
            other += 1
        pairs.add((min(cid, other), max(cid, other)))
    return sorted(pairs)


def _generate_equivalence(
    rng: np.random.Generator,
    n_concepts: int,
    n_clusters: int,
    prior_noise: float,
    split_fractions: Sequence[float],
    pair_mode: str,
    pairs_per_concept: int,
    seed: int,
) -> SyntheticDataset:
    if not 1 <= n_clusters <= n_concepts:
        raise ConfigurationError("n_clusters must lie in [1, n_concepts]")
    pool = _WordPool(rng)
    concepts, cluster_of = _equivalence_concepts(rng, n_concepts, n_clusters, pool)
    if pair_mode == "all":
        pairs = all_pairs(n_concepts, RelationshipKind.EQUIVALENCE)
    elif pair_mode == "sparse":
        pairs = _sample_sparse_pairs(rng, n_concepts, cluster_of, pairs_per_concept)
    else:
        raise ConfigurationError(f"unknown pair_mode {pair_mode!r}")
    gold = {(i, j): int(cluster_of[i] == cluster_of[j]) for i, j in pairs}
    priors = _noisy_priors(rng, pairs, gold, prior_noise)
    splits = _stratified_splits(rng, pairs, gold, split_fractions)
    return SyntheticDataset(
        RelationshipKind.EQUIVALENCE, tuple(concepts), tuple(pairs),
        gold, priors, splits, seed,
    )


def _generate_parent_child(
    rng: np.random.Generator,
    n_concepts: int,
    n_roots: int,
    prior_noise: float,
    split_fractions: Sequence[float],
    positive_fraction: float,
    seed: int,
) -> SyntheticDataset:
    if not 1 <= n_roots <= n_concepts:
        raise ConfigurationError("n_roots must lie in [1, n_concepts]")
    if not 0.0 < positive_fraction <= 1.0:
        raise ConfigurationError("positive_fraction must lie in (0, 1]")
    pool = _WordPool(rng)
    parent: list[int | None] = []
    for cid in range(n_concepts):
        parent.append(None if cid < n_roots else int(rng.integers(0, cid)))
    names: list[str] = []
    for cid in range(n_concepts):
        if parent[cid] is None:
            names.append(pool.next())
        else:
            names.append(names[parent[cid]] + " " + pool.next())
    concepts = [Concept(cid, names[cid]) for cid in range(n_concepts)]

    ancestors: list[list[int]] = []
    for cid in range(n_concepts):
        chain = []
        node = parent[cid]
        while node is not None:
            chain.append(node)
            node = parent[node]
        ancestors.append(chain)
    positives = sorted((anc, cid) for cid in range(n_concepts) for anc in ancestors[cid])
    related = set(positives)

    target_negatives = round(len(positives) * (1.0 - positive_fraction) / positive_fraction)
    negatives: set[tuple[int, int]] = set()
    # Reversed chains are the hard negatives; top up with random unrelated pairs.
    for anc, cid in positives:
        if len(negatives) >= target_negatives // 2:
            break
        negatives.add((cid, anc))
    attempts = 0
    while len(negatives) < target_negatives and attempts < 50 * max(1, target_negatives):
        attempts += 1
        a = int(rng.integers(0, n_concepts))
        b = int(rng.integers(0, n_concepts))
        if a != b and (a, b) not in related and (a, b) not in negatives:
            negatives.add((a, b))

    pairs = sorted(related | negatives)
    gold = {pair: int(pair in related) for pair in pairs}
    priors = _noisy_priors(rng, pairs, gold, prior_noise)
    splits = _stratified_splits(rng, pairs, gold, split_fractions)
    return SyntheticDataset(
        RelationshipKind.PARENT_CHILD, tuple(concepts), tuple(pairs),
        gold, priors, splits, seed,
    )


def generate_synthetic(
    kind: RelationshipKind,
    n_concepts: int,
    n_clusters: int | None = None,
    prior_noise: float = 0.0,
    seed: int = 0,
    split_fractions: Sequence[float] = (0.4, 0.3, 0.3),
    pair_mode: str = "all",
    pairs_per_concept: int = 4,
    n_roots: int | None = None,
    positive_fraction: float = 0.05,
) -> SyntheticDataset:
    """Generate a labeled benchmark with noisy, calibration-shaped priors.

    Equivalence datasets draw concepts from clusters whose names share base
    tokens, so same-cluster pairs are recognizable from string features.
    Parent-child datasets grow a random forest and use its transitive
    closure as gold.  Priors point at the gold label with probability
    1 - prior_noise and carry Beta(8, 2)-shaped confidence either way.
    """
    if n_concepts < 2:
        raise ConfigurationError("need at least 2 concepts")
    if not 0.0 <= prior_noise <= 0.5:
        raise ConfigurationError("prior_noise must lie in [0, 0.5]")
    rng = np.random.default_rng(seed)
    if kind is RelationshipKind.EQUIVALENCE:
        if n_clusters is None:
            n_clusters = max(1, n_concepts // 5)
        return _generate_equivalence(
            rng, n_concepts, n_clusters, prior_noise, split_fractions,
            pair_mode, pairs_per_concept, seed,
        )
    if n_roots is None:
        n_roots = max(1, n_concepts // 12)
    return _generate_parent_child(
        rng, n_concepts, n_roots, prior_noise, split_fractions,
        positive_fraction, seed,
    )
