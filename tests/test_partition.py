"""Anchor partitioning, neighbor selection, and merge-invariant inference."""

import concurrent.futures
import concurrent.futures.process
import itertools
import logging
import math
import os
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from concord.errors import ConfigurationError
from concord.evaluation import audit_labels, generate_synthetic
from concord.graph import build_factor_graph, checked_pair, enumerate_ternary_cliques
from concord.inference import LbpConfig, lbp_map
from concord.model import Concept, PriorBelief, RelationshipKind, TernaryPotential
import concord.graph as graph_module
from concord.partition import (
    PartitionConfig,
    _cliques_by_partition,
    _union_codes,
    build_partitions,
    infer_partitions_parallel,
    top_k_neighbors,
    trigram_embeddings,
)

EQ = RelationshipKind.EQUIVALENCE
PC = RelationshipKind.PARENT_CHILD


def _concepts(n, names=None):
    return [Concept(i, names[i] if names else f"concept {i}") for i in range(n)]


class TestNeighbors:
    def test_trigram_embeddings_are_unit_norm(self):
        vectors = trigram_embeddings(_concepts(4, ["alpha", "alphas", "beta", "gamma"]))
        assert vectors.shape[0] == 4
        assert np.linalg.norm(vectors, axis=1) == pytest.approx(np.ones(4))

    def test_embedding_rows_follow_concept_ids(self):
        names = ["customer id", "customer key", "shipment", "warehouse"]
        concepts = _concepts(4, names)
        shuffled = [concepts[i] for i in (2, 0, 3, 1)]
        assert np.array_equal(trigram_embeddings(shuffled), trigram_embeddings(concepts))

    def test_similar_names_rank_first(self):
        vectors = trigram_embeddings(
            _concepts(4, ["customer id", "customer key", "shipment", "warehouse"])
        )
        assert top_k_neighbors(vectors, 1)[0].tolist() == [1]

    def test_ties_prefer_smaller_ids(self):
        assert top_k_neighbors(np.eye(4), 2)[2].tolist() == [0, 1]
        assert top_k_neighbors(np.ones((5, 3)), 3)[3].tolist() == [0, 1, 2]
        # A zero vector is equally dissimilar to every concept.
        with_zero = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        assert top_k_neighbors(with_zero, 3).tolist()[:2] == [[3, 1, 2], [0, 2, 3]]
        # Rounding must not split the tie among the 19 identical names.
        names = ["lumpha jorpha quintor"] + ["lumpha jorpha"] * 19
        vectors = trigram_embeddings(_concepts(20, names))
        assert top_k_neighbors(vectors, 8)[0].tolist() == list(range(1, 9))

    def test_matches_brute_force(self):
        rng = np.random.default_rng(5)
        vectors = rng.normal(size=(10, 6))
        neighbors = top_k_neighbors(vectors, 4)
        assert neighbors.shape == (10, 4)
        for concept in range(10):
            anchor = vectors[concept]
            def cosine(i):
                v = vectors[i]
                return float(anchor @ v / (np.linalg.norm(anchor) * np.linalg.norm(v)))
            expected = sorted(
                (i for i in range(10) if i != concept),
                key=lambda i: (-cosine(i), i),
            )[:4]
            assert neighbors[concept].tolist() == expected

    def test_k_clips_with_warning(self, caplog):
        with caplog.at_level(logging.WARNING):
            neighbors = top_k_neighbors(np.ones((3, 2)), 10)
        assert neighbors.tolist() == [[1, 2], [0, 2], [0, 1]]
        assert caplog.text.count("clipping") == 1


class TestBuildPartitions:
    def test_triangle_input_closes_in_anchor_zero(self):
        concepts = _concepts(3)
        pairs = [(0, 1), (0, 2), (1, 2)]
        priors = {(0, 1): 0.9, (0, 2): 0.8, (1, 2): 0.7}
        parts = build_partitions(
            concepts, pairs, priors, TernaryPotential.default(EQ), PartitionConfig(k=2)
        )
        assert [p.anchor for p in parts] == [0, 1]
        first, second = parts
        assert first.test_pairs == ((0, 1), (0, 2))
        assert first.graph.num_variables == 3  # closing pair (1, 2) joins in
        assert first.graph.num_ternary_factors == 1
        assert second.test_pairs == ((1, 2),)
        assert second.graph.num_variables == 1

    def test_disjoint_pairs_stay_unary(self):
        concepts = _concepts(6)
        pairs = [(0, 1), (2, 3), (4, 5)]
        priors = {(0, 1): 0.9, (2, 3): 0.2, (4, 5): 0.7}
        parts = build_partitions(
            concepts, pairs, priors, TernaryPotential.default(EQ), PartitionConfig(k=3)
        )
        assert len(parts) == 3
        for part in parts:
            assert part.graph.num_variables == 1
            assert part.graph.num_ternary_factors == 0
        merged = infer_partitions_parallel(parts)
        assert merged.label_map() == {(0, 1): 1, (2, 3): 0, (4, 5): 1}

    def test_closing_pair_takes_input_prior_when_present(self):
        concepts = _concepts(3)
        potential = TernaryPotential.default(EQ)
        with_prior = build_partitions(
            concepts, [(0, 1), (0, 2), (1, 2)],
            {(0, 1): 0.9, (0, 2): 0.8, (1, 2): 0.7},
            potential, PartitionConfig(k=2),
        )[0]
        without = build_partitions(
            concepts, [(0, 1), (0, 2)],
            {(0, 1): 0.9, (0, 2): 0.8},
            potential, PartitionConfig(k=2, default_prior=0.05),
        )[0]
        def unary_row(part, pair):
            return part.graph.unary_log[part.graph.pairs.index(pair)].tolist()
        assert unary_row(with_prior, (1, 2)) == list(PriorBelief(0.7).log_potentials())
        assert unary_row(without, (1, 2)) == list(PriorBelief(0.05).log_potentials())

    def test_counterparts_outside_top_k_do_not_close(self):
        concepts = _concepts(4)
        # Concept 3 is the odd one out in embedding space.
        vectors = {
            0: np.array([1.0, 0.0]),
            1: np.array([0.9, 0.1]),
            2: np.array([0.8, 0.2]),
            3: np.array([0.0, 1.0]),
        }
        parts = build_partitions(
            concepts, [(0, 1), (0, 2), (0, 3)],
            {(0, 1): 0.9, (0, 2): 0.9, (0, 3): 0.9},
            TernaryPotential.default(EQ), PartitionConfig(k=2), embeddings=vectors,
        )
        graph = parts[0].graph
        assert set(graph.pairs) == {(0, 1), (0, 2), (0, 3), (1, 2)}
        assert graph.num_ternary_factors == 1  # only (0, 1, 2) closes

    def test_coverage_and_exclusivity(self):
        data = generate_synthetic(EQ, 40, 8, prior_noise=0.2, seed=3,
                                  pair_mode="sparse", pairs_per_concept=6)
        parts = build_partitions(
            data.concepts, data.pairs, data.priors,
            TernaryPotential.default(EQ), PartitionConfig(k=4),
        )
        owned = [pair for part in parts for pair in part.test_pairs]
        assert len(owned) == len(set(owned))
        assert set(owned) == set(data.pairs)

    @pytest.mark.parametrize("case", ["synthetic", "some unary-only", "one anchor"])
    @pytest.mark.parametrize("kind", [EQ, PC])
    def test_local_graphs_match_the_scalar_reference(self, kind, case):
        # The per-anchor pair sets and priors, built pair by pair as sets,
        # and each local graph's cliques walked on its own codes.
        n = 40
        data = generate_synthetic(kind, n, prior_noise=0.2, seed=6, pair_mode="sparse")
        pairs = {
            "synthetic": data.pairs,
            "some unary-only": data.pairs[::3],
            # Parent-child counterparts lie on both sides of the anchor.
            "one anchor": [(a, j) for a in [0 if kind.symmetric else 20] for j in range(n) if j != a],
        }[case]
        config = PartitionConfig(k=4, default_prior=0.03)
        neighbors = top_k_neighbors(trigram_embeddings(data.concepts), config.k)
        closing = itertools.combinations if kind.symmetric else itertools.permutations
        by_anchor = {}
        for left, right in pairs:
            pair = checked_pair(left, right, n, kind)
            by_anchor.setdefault(pair[0], set()).add(pair)
        parts = build_partitions(
            data.concepts, pairs, data.priors, TernaryPotential.default(kind), config
        )
        assert [p.anchor for p in parts] == sorted(by_anchor)
        for part in parts:
            anchored = by_anchor[part.anchor]
            near = set(neighbors[part.anchor].tolist())
            eligible = sorted({right for _, right in anchored} & near)
            members = sorted(anchored.union(closing(eligible, 2)))
            assert part.test_pairs == tuple(sorted(anchored))
            assert part.graph.pairs == tuple(members)
            assert part.graph.unary_log.tolist() == [
                list(PriorBelief(data.priors.get(pair, 0.03)).log_potentials())
                for pair in members
            ]
            alone = enumerate_ternary_cliques(np.array([i * n + j for i, j in members]), n)
            triples, reference = part.graph.triples, alone.variables
            assert triples.dtype == reference.dtype and triples.shape == reference.shape
            assert triples.tolist() == reference.tolist()
            assert part.graph.clique_concepts(slice(None)) == list(alone)
        assert any(len(p.graph.pairs) > len(p.test_pairs) for p in parts)
        assert any(p.graph.num_ternary_factors for p in parts)
        if case == "some unary-only":
            assert any(not p.graph.num_ternary_factors for p in parts)
        if case == "one anchor":
            assert len(parts) == 1

    def test_union_codes_stay_inside_int64(self):
        # Two partitions near the top of a vocabulary so large that
        # numbering partition p's concept c as p * n + c would overflow
        # int64 in the union codes; compact ids keep them below (T + P)².
        n = 3_000_000_000
        assert (2 * n) ** 2 > np.iinfo(np.int64).max
        anchors = np.array([n - 9, n - 9, n - 4, n - 4, n - 4])
        counterparts = np.array([n - 7, n - 1, n - 8, n - 6, n - 2])
        owner = np.array([0, 0, 1, 1, 1])
        first, second = np.array([2, 4, 3]), np.array([4, 2, 2])
        codes, size = _union_codes(owner, anchors, counterparts, first, second, n)
        assert size == 7 and codes.dtype == np.int64
        # Each union id is the rank of its key g * n + c among all the keys.
        keys = sorted({
            *(g * n + c for g, c in zip(owner.tolist(), anchors.tolist())),
            *(g * n + c for g, c in zip(owner.tolist(), counterparts.tolist())),
        })
        concept_ids = np.array([key % n for key in keys])
        rank = {key: i for i, key in enumerate(keys)}
        assert codes[:5].tolist() == [
            rank[g * n + a] * size + rank[g * n + c]
            for g, a, c in zip(owner.tolist(), anchors.tolist(), counterparts.tolist())
        ]
        assert codes.min() >= 0 and codes.max() < size ** 2
        left, right = np.divmod(codes, size)
        pairs = list(zip(concept_ids[left].tolist(), concept_ids[right].tolist()))
        assert pairs == [
            *zip(anchors.tolist(), counterparts.tolist()),
            (n - 8, n - 2), (n - 2, n - 8), (n - 6, n - 8),
        ]
        # Each partition's union codes sort as its pairs do, partition by partition.
        assert [pairs[i] for i in codes.argsort()] == sorted(pairs[:2]) + sorted(pairs[2:])

    def test_one_walk_is_the_graph_modules_enumerator(self, monkeypatch):
        # The walk is looked up on concord.graph when called, so a wrapper
        # put there (a tracer's, say) sees it, and it is the only walk.
        data = generate_synthetic(EQ, 40, prior_noise=0.2, seed=6, pair_mode="sparse")
        walks = []

        def counted(codes, n):
            walks.append(len(codes))
            return enumerate_ternary_cliques(codes, n)

        monkeypatch.setattr(graph_module, "enumerate_ternary_cliques", counted)
        parts = build_partitions(
            data.concepts, data.pairs, data.priors, TernaryPotential.default(EQ),
            PartitionConfig(k=4),
        )
        assert walks == [sum(p.graph.num_variables for p in parts)]

    @pytest.mark.parametrize("step", [3, 1 << 14])
    @pytest.mark.parametrize("kind", [EQ, PC])
    def test_one_walk_over_disjoint_partitions_matches_each_alone(self, kind, step, monkeypatch):
        # Partition g's concepts get consecutive union ids in concept order;
        # its concept ids are a sorted sample of a larger vocabulary.  The
        # first and last partitions close no clique.
        monkeypatch.setattr(graph_module, "_WALK_STEP", step)
        rng = np.random.default_rng(24)
        n = 50
        closing = itertools.combinations if kind.symmetric else itertools.permutations
        graphs = [[(0, 1)]] + [
            [pair for pair in closing(range(int(rng.integers(2, 9))), 2) if rng.random() < 0.7]
            or [(0, 1)]
            for _ in range(12)
        ] + [[(1, 0), (1, 2)] if not kind.symmetric else [(0, 1), (0, 2)]]
        union, concept_ids, stops, expected = [], [], [], []
        for pairs in graphs:
            size = 1 + max(max(pair) for pair in pairs)
            ids = np.sort(rng.choice(n, size, replace=False))
            offset = len(concept_ids)
            union += sorted((offset + i, offset + j) for i, j in pairs)
            stops.append(len(union))
            concept_ids += ids.tolist()
            codes = sorted(ids[i] * n + ids[j] for i, j in pairs)
            expected.append(enumerate_ternary_cliques(np.array(codes, dtype=np.int64), n))
        size = len(concept_ids)
        found = _cliques_by_partition(
            np.array([i * size + j for i, j in union], dtype=np.int64), size, np.array(stops)
        )
        assert len(found) == len(graphs)
        assert len(found[0]) == len(found[-1]) == 0 < sum(map(len, found))
        for alone, walked, start, stop in zip(expected, found, [0, *stops], stops):
            reference = alone.variables
            assert walked.dtype == reference.dtype and walked.shape == reference.shape
            assert walked.tolist() == reference.tolist()
            # The rows name the partition's concepts through its own pairs.
            pairs = [(concept_ids[i], concept_ids[j]) for i, j in union[start:stop]]
            assert [(*pairs[ij], pairs[jk][1]) for ij, jk, _ in walked.tolist()] == list(alone)

    def test_local_size_bound(self):
        k = 4
        data = generate_synthetic(EQ, 40, 8, prior_noise=0.2, seed=3,
                                  pair_mode="sparse", pairs_per_concept=6)
        parts = build_partitions(
            data.concepts, data.pairs, data.priors,
            TernaryPotential.default(EQ), PartitionConfig(k=k),
        )
        for part in parts:
            assert part.graph.num_variables <= len(part.test_pairs) + math.comb(k + 1, 2)

    def test_local_size_bound_parent_child(self):
        k = 4
        data = generate_synthetic(PC, 30, prior_noise=0.1, seed=4)
        parts = build_partitions(
            data.concepts, data.pairs, data.priors,
            TernaryPotential.default(PC), PartitionConfig(k=k),
        )
        # Ordered closings come in both orientations, so the additive slack
        # is k * (k - 1) rather than the symmetric binomial bound.
        for part in parts:
            assert part.graph.num_variables <= len(part.test_pairs) + k * (k - 1)

    def test_k_one_has_at_most_one_clique(self):
        data = generate_synthetic(EQ, 24, 6, prior_noise=0.1, seed=5,
                                  pair_mode="sparse", pairs_per_concept=4)
        parts = build_partitions(
            data.concepts, data.pairs, data.priors,
            TernaryPotential.default(EQ), PartitionConfig(k=1),
        )
        for part in parts:
            assert part.graph.num_ternary_factors <= 1

    def test_input_pairs_canonicalized(self):
        # A pair given only reversed, or in both orientations, is one pair.
        for pairs in ([(1, 0)], [(1, 0), (0, 1)]):
            parts = build_partitions(
                _concepts(3), pairs, {(1, 0): 0.8},
                TernaryPotential.default(EQ), PartitionConfig(k=1),
            )
            assert len(parts) == 1
            assert parts[0].anchor == 0
            assert parts[0].test_pairs == ((0, 1),)

    def test_partial_embeddings_fall_back(self, caplog):
        concepts = _concepts(3)
        vectors = {0: np.ones(2), 1: np.ones(2)}  # concept 2 missing
        with caplog.at_level(logging.WARNING):
            parts = build_partitions(
                concepts, [(0, 1)], {(0, 1): 0.9},
                TernaryPotential.default(EQ), PartitionConfig(k=1),
                embeddings=vectors,
            )
        assert "falling back" in caplog.text
        assert parts[0].test_pairs == ((0, 1),)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            PartitionConfig(k=0)
        with pytest.raises(ConfigurationError):
            PartitionConfig(default_prior=1.5)
        with pytest.raises(ConfigurationError):
            build_partitions(
                _concepts(3), [], {}, TernaryPotential.default(EQ)
            )
        # Malformed priors fail as in build_factor_graph: two entries for one
        # canonical pair, an unknown concept id, a self-pair.
        for priors in (
            {(0, 1): 0.9, (1, 0): 0.1},
            {(0, 1): 0.9, (0, 7): 0.5},
            {(0, 1): 0.9, (2, 2): 0.5},
        ):
            with pytest.raises(ConfigurationError):
                build_partitions(
                    _concepts(3), [(0, 1)], priors, TernaryPotential.default(EQ)
                )
        # Malformed pairs fail the same way: a self-pair, an unknown id.
        for pairs in ([(0, 1), (2, 2)], [(0, 1), (0, 7)]):
            with pytest.raises(ConfigurationError, match=r"^pair "):
                build_partitions(
                    _concepts(3), pairs, {(0, 1): 0.9}, TernaryPotential.default(EQ)
                )


class TestMergedInference:
    @staticmethod
    def _dataset_partitions():
        data = generate_synthetic(EQ, 30, 6, prior_noise=0.15, seed=9,
                                  pair_mode="sparse", pairs_per_concept=4)
        parts = build_partitions(
            data.concepts, data.pairs, data.priors,
            TernaryPotential.default(EQ), PartitionConfig(k=3),
        )
        return data, parts

    def test_worker_count_is_invisible(self):
        _, parts = self._dataset_partitions()
        serial = infer_partitions_parallel(parts, workers=1)
        threaded = infer_partitions_parallel(parts, workers=2)
        assert serial.pairs == threaded.pairs
        assert np.array_equal(serial.labels, threaded.labels)
        assert np.array_equal(serial.margins, threaded.margins)
        assert serial.log_score == threaded.log_score
        assert serial.iterations == threaded.iterations

    @pytest.mark.parametrize("cores, pools", [({0, 1}, []), ({0}, [])])
    def test_workers_capped_at_usable_cores(self, monkeypatch, cores, pools):
        # Partitions decode in one batch in this process, so a worker count
        # above the usable cores never turns into more processes, whatever
        # the affinity reports.
        _, parts = self._dataset_partitions()
        serial = infer_partitions_parallel(parts, workers=1)
        started = []

        class RecordingPool(ProcessPoolExecutor):
            def __init__(self, max_workers=None, **kwargs):
                started.append(max_workers)
                super().__init__(max_workers, **kwargs)

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cores, raising=False)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(concurrent.futures.process, "ProcessPoolExecutor", RecordingPool)
        many = infer_partitions_parallel(parts, workers=8)
        assert started == pools
        assert many.pairs == serial.pairs
        assert many.labels.tolist() == serial.labels.tolist()
        assert many.margins.tolist() == serial.margins.tolist()

    def test_merge_bookkeeping(self):
        _, parts = self._dataset_partitions()
        merged = infer_partitions_parallel(parts)
        assert len(merged.partition_summaries) == len(parts)
        total = sum(s["log_score"] for s in merged.partition_summaries)
        assert merged.log_score == pytest.approx(total)
        assert merged.iterations == max(s["iterations"] for s in merged.partition_summaries)
        assert set(merged.pairs) == {p for part in parts for p in part.test_pairs}

    def test_single_partition_agrees_with_direct_decode(self):
        concepts = _concepts(3)
        priors = {(0, 1): 0.9, (0, 2): 0.85, (1, 2): 0.2}
        potential = TernaryPotential.default(EQ)
        parts = build_partitions(
            concepts, [(0, 1), (0, 2)], priors, potential, PartitionConfig(k=2)
        )
        assert len(parts) == 1
        merged = infer_partitions_parallel(parts, LbpConfig())
        direct = lbp_map(parts[0].graph, LbpConfig())
        direct_labels = direct.label_map()
        for pair, label in merged.label_map().items():
            assert label == direct_labels[pair]

    @pytest.mark.parametrize("repair", [False, True])
    @pytest.mark.parametrize("kind", [EQ, PC])
    def test_merged_rows_are_the_owning_local_decode(self, kind, repair):
        data = generate_synthetic(kind, 30, prior_noise=0.15, seed=9, pair_mode="sparse")
        parts = build_partitions(
            data.concepts, data.pairs, data.priors,
            TernaryPotential.default(kind), PartitionConfig(k=4),
        )
        if kind is PC:
            # A closing pair (a, b) with a < anchor sorts before the anchor's own pairs.
            assert any(part.graph.pairs[0][0] < part.anchor for part in parts)
        merged = infer_partitions_parallel(parts, repair=repair)
        row = {pair: i for i, pair in enumerate(merged.pairs)}
        for part in parts:
            local = lbp_map(part.graph, repair=repair)
            for pair in part.test_pairs:
                i = local.pairs.index(pair)
                assert merged.labels[row[pair]] == local.labels[i]
                assert merged.margins[row[pair]].tobytes() == local.margins[i].tobytes()

    def test_violations_are_a_global_audit(self):
        _, parts = self._dataset_partitions()
        merged = infer_partitions_parallel(parts, repair=True)
        count, triples = audit_labels(merged.label_map(), EQ)
        assert count > 0
        assert len(merged.violations) == count
        assert merged.violations == triples

    def test_repair_flag_propagates(self):
        _, parts = self._dataset_partitions()
        merged = infer_partitions_parallel(parts, repair=True)
        assert all(
            not s["violations"] for s in merged.partition_summaries
        ) or merged.repaired

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            infer_partitions_parallel([])
        _, parts = self._dataset_partitions()
        with pytest.raises(ConfigurationError):
            infer_partitions_parallel(parts, workers=0)
