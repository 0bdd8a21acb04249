"""Metrics, transitivity audits, and the synthetic benchmark generator."""

import itertools
import math

import numpy as np
import pytest

from concord.errors import ConfigurationError
from concord.evaluation import (
    Metrics,
    audit_labels,
    cliques_among,
    count_transitivity_violations,
    generate_synthetic,
    prf1,
)
from concord.model import RelationshipKind, canonical_pair

EQ = RelationshipKind.EQUIVALENCE
PC = RelationshipKind.PARENT_CHILD


class TestMetrics:
    def test_hand_counts(self):
        m = Metrics.from_counts(tp=8, fp=2, fn=4)
        assert m.precision == pytest.approx(0.8)
        assert m.recall == pytest.approx(2.0 / 3.0)
        assert m.f1 == pytest.approx(8.0 / 11.0)
        assert not m.zero_division

    def test_perfect_prediction(self):
        gold = {(0, 1): 1, (0, 2): 0, (1, 2): 1}
        m = prf1(gold, gold)
        assert (m.precision, m.recall, m.f1) == (1.0, 1.0, 1.0)
        assert m.tn == 1

    def test_all_negative_prediction_flags_zero_division(self):
        gold = {(0, 1): 1, (0, 2): 0}
        m = prf1({(0, 1): 0, (0, 2): 0}, gold)
        assert m.f1 == 0.0
        assert m.zero_division

    def test_no_positives_anywhere(self):
        m = prf1({(0, 1): 0}, {(0, 1): 0})
        assert m.f1 == 0.0
        assert m.zero_division  # positive class absent on both sides

    def test_coverage_mismatch(self):
        with pytest.raises(ValueError, match="coverage"):
            prf1({(0, 1): 1}, {(0, 1): 1, (0, 2): 0})

    def test_non_binary_labels(self):
        with pytest.raises(ValueError):
            prf1({(0, 1): 2}, {(0, 1): 1})

    def test_round_trip_dict(self):
        m = Metrics.from_counts(3, 1, 2, 5)
        d = m.to_dict()
        assert d["tp"] == 3 and d["tn"] == 5
        assert d["f1"] == pytest.approx(m.f1)


def reference_violations(labels, cliques, kind):
    """The scalar audit: each clique's (x_ij, x_jk, x_ik) read by pair key
    and looked up among the kind's zero configurations."""
    violating = [
        (i, j, k) for i, j, k in cliques
        if (labels[(i, j)], labels[(j, k)], labels[(i, k)]) in kind.zero_configurations
    ]
    return len(violating), violating


class TestTransitivityAudit:
    def test_violating_triangle(self):
        labels = {(0, 1): 1, (1, 2): 1, (0, 2): 0}
        count, violating = count_transitivity_violations(labels, cliques_among(labels, EQ), EQ)
        assert count == 1
        assert violating == [(0, 1, 2)]

    def test_all_negative_is_consistent(self):
        labels = {(0, 1): 0, (1, 2): 0, (0, 2): 0}
        count, _ = count_transitivity_violations(labels, cliques_among(labels, EQ), EQ)
        assert count == 0

    def test_parent_child_only_forbids_broken_chains(self):
        broken = {(0, 1): 1, (1, 2): 1, (0, 2): 0}
        skipped = {(0, 1): 1, (1, 2): 0, (0, 2): 1}
        for labels, expected in ((broken, 1), (skipped, 0)):
            cliques = cliques_among(labels, PC)
            assert count_transitivity_violations(labels, cliques, PC)[0] == expected

    @pytest.mark.parametrize("kind", [EQ, PC])
    def test_matches_canonical_pair_reference(self, kind):
        # Every pair of n concepts, inserted in shuffled order.  The reference
        # walks every concept triple itself; an equivalence triple is read in
        # a random concept order through canonical_pair keys.
        rng = np.random.default_rng(41)
        n = 7
        pairs = list(
            itertools.combinations(range(n), 2) if kind.symmetric
            else itertools.permutations(range(n), 2)
        )
        labels = {pairs[p]: int(rng.random() < 0.4) for p in rng.permutation(len(pairs))}
        triples = (
            itertools.combinations(range(n), 3) if kind.symmetric
            else itertools.permutations(range(n), 3)
        )
        expected = []
        for triple in triples:
            i, j, k = (int(c) for c in rng.permutation(triple)) if kind.symmetric else triple
            configuration = (
                labels[canonical_pair(i, j, kind)],
                labels[canonical_pair(j, k, kind)],
                labels[canonical_pair(i, k, kind)],
            )
            if configuration in kind.zero_configurations:
                expected.append(triple)
        assert expected
        count, violating = count_transitivity_violations(labels, cliques_among(labels, kind), kind)
        assert (count, sorted(violating)) == (len(expected), expected)

    @pytest.mark.parametrize("kind", [EQ, PC])
    @pytest.mark.parametrize("clique", [(0, 0, 1), (0, 1, 1), (1, 0, 1)])
    def test_self_pair_clique_is_rejected(self, kind, clique):
        # A self-pair key would close this clique, which repeats a concept.
        i, j, k = clique
        labels = {(i, j): 0, (j, k): 0, (i, k): 0}
        with pytest.raises(ConfigurationError, match="self-pair"):
            audit_labels(labels, kind)

    def test_cliques_among_requires_all_three_pairs(self):
        full = {(0, 1): 1, (1, 2): 1, (0, 2): 1}
        assert list(cliques_among(full, EQ)) == [(0, 1, 2)]
        partial = {(0, 1): 1, (1, 2): 1}
        assert list(cliques_among(partial, EQ)) == []

    def test_cliques_among_parent_child_is_directed(self):
        labels = {(0, 1): 1, (1, 2): 1, (0, 2): 1, (2, 0): 0}
        # (2, 0, 1) would need the absent pair (2, 1), so only one chain closes.
        assert list(cliques_among(labels, PC)) == [(0, 1, 2)]
        with_back_edge = dict(labels)
        with_back_edge[(2, 1)] = 0
        found = cliques_among(with_back_edge, PC)
        assert (2, 0, 1) in found
        for i, j, k in found:
            assert (i, j) in with_back_edge
            assert (j, k) in with_back_edge
            assert (i, k) in with_back_edge

    @pytest.mark.parametrize("kind", [EQ, PC])
    def test_audit_equals_scalar_count(self, kind):
        rng = np.random.default_rng(17)
        broken = 0
        for _ in range(30):
            n = int(rng.integers(2, 12))
            pairs = [
                pair for pair in (
                    itertools.combinations(range(n), 2) if kind.symmetric
                    else itertools.permutations(range(n), 2)
                )
                if rng.random() < rng.uniform(0.3, 1.0)
            ]
            # A shuffled map: clique variables index its iteration order.
            labels = {pairs[i]: int(rng.random() < 0.5) for i in rng.permutation(len(pairs))}
            cliques = cliques_among(labels, kind)
            keys = list(labels)
            for (i, j, k), row in zip(cliques, cliques.variables.tolist()):
                assert [keys[v] for v in row] == [(i, j), (j, k), (i, k)]
            count, violating = reference_violations(labels, cliques, kind)
            assert audit_labels(labels, kind) == (count, violating)
            broken += count
        assert broken

    def test_audit_counts_every_closable_triangle(self):
        labels = {
            (0, 1): 1, (0, 2): 1, (1, 2): 0,
            (0, 3): 0, (1, 3): 0, (2, 3): 0,
        }
        count, violating = audit_labels(labels, EQ)
        assert count == 1
        assert violating == [(0, 1, 2)]


class TestGeneratorEquivalence:
    def test_deterministic(self):
        a = generate_synthetic(EQ, 20, 5, prior_noise=0.2, seed=42)
        b = generate_synthetic(EQ, 20, 5, prior_noise=0.2, seed=42)
        assert a.concepts == b.concepts
        assert a.pairs == b.pairs
        assert a.gold == b.gold
        assert a.priors == b.priors
        assert a.splits == b.splits
        c = generate_synthetic(EQ, 20, 5, prior_noise=0.2, seed=43)
        assert c.priors != a.priors

    def test_gold_is_transitively_consistent(self):
        for seed in (0, 7):
            data = generate_synthetic(EQ, 30, 6, prior_noise=0.15, seed=seed)
            count, _ = audit_labels(data.gold, EQ)
            assert count == 0

    def test_sparse_gold_is_transitively_consistent(self):
        data = generate_synthetic(EQ, 60, 12, prior_noise=0.15, seed=7,
                                  pair_mode="sparse", pairs_per_concept=6)
        count, _ = audit_labels(data.gold, EQ)
        assert count == 0

    def test_noise_zero_priors_recover_gold(self):
        data = generate_synthetic(EQ, 24, 5, prior_noise=0.0, seed=1)
        for split in ("train", "validation", "test"):
            gold = data.split_gold(split)
            argmax = {p: data.prior_argmax()[p] for p in gold}
            if any(gold.values()):
                assert prf1(argmax, gold).f1 == 1.0
            assert argmax == gold

    def test_noise_rate_is_roughly_respected(self):
        data = generate_synthetic(EQ, 70, 10, prior_noise=0.3, seed=2)
        flips = sum(
            1 for pair in data.pairs if data.prior_argmax()[pair] != data.gold[pair]
        )
        rate = flips / len(data.pairs)
        assert abs(rate - 0.3) < 0.04

    def test_priors_never_sit_on_the_fence(self):
        data = generate_synthetic(EQ, 20, 4, prior_noise=0.2, seed=3)
        assert all(p != 0.5 and 0.0 < p < 1.0 for p in data.priors.values())

    def test_singleton_clusters_mean_no_positives(self):
        data = generate_synthetic(EQ, 12, 12, seed=4)
        assert set(data.gold.values()) == {0}

    def test_one_cluster_means_all_positive(self):
        data = generate_synthetic(EQ, 8, 1, seed=5)
        assert set(data.gold.values()) == {1}

    def test_splits_partition_the_pairs(self):
        data = generate_synthetic(EQ, 25, 5, prior_noise=0.1, seed=6)
        pieces = [set(data.splits[name]) for name in ("train", "validation", "test")]
        assert set().union(*pieces) == set(data.pairs)
        for a, b in itertools.combinations(pieces, 2):
            assert not a & b

    def test_splits_are_stratified(self):
        data = generate_synthetic(EQ, 60, 6, prior_noise=0.1, seed=8,
                                  split_fractions=(0.5, 0.25, 0.25))
        overall = sum(data.gold.values()) / len(data.pairs)
        for name in ("train", "validation", "test"):
            gold = data.split_gold(name)
            rate = sum(gold.values()) / len(gold)
            assert abs(rate - overall) < 0.05

    def test_sparse_mode_keeps_cluster_cliques(self):
        data = generate_synthetic(EQ, 40, 8, prior_noise=0.1, seed=9,
                                  pair_mode="sparse", pairs_per_concept=4)
        present = set(data.pairs)
        clusters: dict[int, list[int]] = {}
        positives = {p for p, y in data.gold.items() if y == 1}
        # Positive pairs define the clusters; every within-cluster pair must
        # have been sampled or the gold audit above could not stay clean.
        for i, j in positives:
            assert (i, j) in present
        assert len(present) < 40 * 39 // 2

    def test_concept_names_share_cluster_tokens(self):
        data = generate_synthetic(EQ, 20, 4, seed=10)
        by_name = {c.id: set(c.name.split()) for c in data.concepts}
        for (i, j), y in data.gold.items():
            if y == 1:
                assert by_name[i] & by_name[j]

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            generate_synthetic(EQ, 1)
        with pytest.raises(ConfigurationError):
            generate_synthetic(EQ, 10, 20)
        with pytest.raises(ConfigurationError):
            generate_synthetic(EQ, 10, 2, prior_noise=0.7)
        with pytest.raises(ConfigurationError):
            generate_synthetic(EQ, 10, 2, split_fractions=(0.5, 0.5, 0.5))
        with pytest.raises(ConfigurationError):
            generate_synthetic(EQ, 10, 2, pair_mode="dense")


class TestGeneratorParentChild:
    def test_gold_is_a_transitive_closure(self):
        data = generate_synthetic(PC, 40, prior_noise=0.1, seed=11)
        count, _ = audit_labels(data.gold, PC)
        assert count == 0
        positives = {p for p, y in data.gold.items() if y == 1}
        for (a, b), (c, d) in itertools.product(positives, positives):
            if b == c and (a, d) in data.gold:
                assert data.gold[(a, d)] == 1

    def test_positive_rate_near_target(self):
        data = generate_synthetic(PC, 60, prior_noise=0.1, seed=12,
                                  positive_fraction=0.1)
        rate = sum(data.gold.values()) / len(data.pairs)
        assert 0.05 <= rate <= 0.2

    def test_no_self_pairs_and_ids_in_range(self):
        data = generate_synthetic(PC, 30, seed=13)
        for a, b in data.pairs:
            assert a != b
            assert 0 <= a < 30 and 0 <= b < 30

    def test_child_names_extend_parent_names(self):
        data = generate_synthetic(PC, 25, n_roots=3, seed=14)
        names = {c.id: c.name for c in data.concepts}
        for (anc, cid), y in data.gold.items():
            if y == 1:
                assert names[cid].startswith(names[anc].split()[0])

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            generate_synthetic(PC, 10, n_roots=0)
        with pytest.raises(ConfigurationError):
            generate_synthetic(PC, 10, positive_fraction=0.0)
