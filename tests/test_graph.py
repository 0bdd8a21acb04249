"""Factor graph assembly: layout, clique enumeration, closed-form counts."""

import itertools
import math
from collections import Counter

import numpy as np
import pytest

from concord.errors import ConfigurationError
from concord.graph import (
    DEFAULT_PRIOR_P_ONE,
    build_factor_graph,
    count_graph_stats,
    enumerate_ternary_cliques,
)
from concord.model import (
    Concept,
    PriorBelief,
    RelationshipKind,
    TernaryPotential,
    num_variables,
)

EQ = RelationshipKind.EQUIVALENCE
PC = RelationshipKind.PARENT_CHILD


def _concepts(n):
    return [Concept(i, f"concept {i}") for i in range(n)]


def _dense(n, kind=EQ, priors=None):
    return build_factor_graph(
        _concepts(n), priors or {}, TernaryPotential.default(kind), mode="dense"
    )


def _random_pairs(n, kind, rng, share=0.6):
    if kind.symmetric:
        candidates = itertools.combinations(range(n), 2)
    else:
        candidates = itertools.permutations(range(n), 2)
    return [pair for pair in candidates if rng.random() < share]


def _sparse(n, pairs, kind):
    return build_factor_graph(
        _concepts(n), dict.fromkeys(pairs, 0.5), TernaryPotential.default(kind), mode="sparse"
    )


def _brute_force_cliques(pairs):
    """Every concept triple (i, j, k) whose chain pairs ij, jk, ik are present."""
    present = set(pairs)
    concepts = sorted({c for pair in present for c in pair})
    return [
        (i, j, k)
        for i, j, k in itertools.permutations(concepts, 3)
        if {(i, j), (j, k), (i, k)} <= present
    ]


class TestClosedFormCounts:
    def test_small_values(self):
        assert count_graph_stats(2, EQ) == (1, 0, 1)
        assert count_graph_stats(3, EQ) == (3, 1, 6)
        assert count_graph_stats(4, EQ) == (6, 4, 18)
        assert count_graph_stats(46, EQ) == (1035, 15180, 46575)

    def test_large_vocabulary(self):
        assert count_graph_stats(1000, EQ) == (499500, 166167000, 499000500)

    def test_parent_child(self):
        assert count_graph_stats(3, PC) == (6, 6, 24)
        assert count_graph_stats(4, PC) == (12, 24, 84)

    def test_rejects_tiny_vocabulary(self):
        with pytest.raises(ValueError):
            count_graph_stats(1, EQ)

    @pytest.mark.parametrize("kind", [EQ, PC])
    def test_matches_materialized_graphs(self, kind):
        for n in (2, 3, 4, 5, 6, 9, 14):
            graph = _dense(n, kind)
            assert (
                graph.num_variables,
                graph.num_ternary_factors,
                graph.num_edges,
            ) == count_graph_stats(n, kind)


class TestDenseLayout:
    def test_three_concepts_single_clique(self):
        graph = _dense(3)
        assert graph.pairs == ((0, 1), (0, 2), (1, 2))
        assert graph.num_ternary_factors == 1
        # Slot order is (x_01, x_12, x_02) to match the potential table.
        assert graph.triples[0].tolist() == [0, 2, 1]
        assert graph.triple_concepts[0].tolist() == [0, 1, 2]

    def test_four_concepts_degrees(self):
        graph = _dense(4)
        assert graph.num_variables == 6
        assert graph.num_ternary_factors == 4
        # Each pair appears in n - 2 cliques plus its own unary factor.
        assert (graph.degrees() == 3).all()

    def test_adjacency_round_trip(self):
        # A variable touches its unary factor and every clique holding its pair.
        rng = np.random.default_rng(1)
        for kind, n in ((EQ, 8), (PC, 6)):
            pairs = _random_pairs(n, kind, rng)
            graph = _sparse(n, pairs, kind)
            assert graph.num_ternary_factors > 0
            holding = Counter(
                pair
                for i, j, k in _brute_force_cliques(pairs)
                for pair in ((i, j), (j, k), (i, k))
            )
            assert graph.degrees().tolist() == [1 + holding[p] for p in graph.pairs]

    def test_triples_sorted_and_increasing(self):
        graph = _dense(6)
        concepts = [tuple(row) for row in graph.triple_concepts]
        assert concepts == sorted(concepts)
        assert all(i < j < k for i, j, k in concepts)

    def test_parent_child_triples_are_ordered_chains(self):
        graph = _dense(3, PC)
        concepts = [tuple(row) for row in graph.triple_concepts]
        assert len(concepts) == 6
        assert all(len({i, j, k}) == 3 for i, j, k in concepts)
        index = graph.pairs.index
        for (i, j, k), row in zip(concepts, graph.triples):
            assert row.tolist() == [index((i, j)), index((j, k)), index((i, k))]

    def test_default_prior_fills_gaps(self):
        graph = _dense(3, priors={(0, 1): 0.9})
        row_of = dict(zip(graph.pairs, graph.unary_log.tolist()))
        assert row_of[(0, 1)] == list(PriorBelief(0.9).log_potentials())
        assert row_of[(0, 2)] == list(PriorBelief(DEFAULT_PRIOR_P_ONE).log_potentials())
        assert row_of[(1, 2)] == list(PriorBelief(DEFAULT_PRIOR_P_ONE).log_potentials())

    def test_unary_log_matches_priors(self):
        graph = _dense(3, priors={(0, 1): 0.8})
        row = graph.unary_log[graph.pairs.index((0, 1))]
        assert row.tolist() == list(PriorBelief(0.8).log_potentials())
        assert row[0] == pytest.approx(math.log(0.2))
        assert row[1] == pytest.approx(math.log(0.8))


class TestSparseMode:
    def test_only_listed_pairs(self):
        priors = {(0, 1): 0.9, (2, 3): 0.4}
        graph = build_factor_graph(
            _concepts(4), priors, TernaryPotential.default(EQ), mode="sparse"
        )
        assert graph.pairs == ((0, 1), (2, 3))
        assert graph.num_ternary_factors == 0

    def test_cliques_close_only_when_all_pairs_exist(self):
        priors = {(0, 1): 0.9, (1, 2): 0.9, (0, 2): 0.1, (0, 3): 0.5}
        graph = build_factor_graph(
            _concepts(4), priors, TernaryPotential.default(EQ), mode="sparse"
        )
        assert graph.num_ternary_factors == 1
        assert graph.triple_concepts[0].tolist() == [0, 1, 2]

    def test_empty_prior_map_rejected(self):
        with pytest.raises(ConfigurationError):
            build_factor_graph(
                _concepts(3), {}, TernaryPotential.default(EQ), mode="sparse"
            )

    def test_orientation_canonicalized(self):
        graph = build_factor_graph(
            _concepts(3), {(2, 0): 0.7}, TernaryPotential.default(EQ), mode="sparse"
        )
        assert graph.pairs == ((0, 2),)


class TestValidation:
    def test_duplicate_prior_after_canonicalization(self):
        with pytest.raises(ConfigurationError, match="duplicate"):
            build_factor_graph(
                _concepts(3),
                {(0, 1): 0.9, (1, 0): 0.8},
                TernaryPotential.default(EQ),
            )

    def test_self_pair_prior_rejected(self):
        with pytest.raises(ConfigurationError, match="self-pair"):
            build_factor_graph(
                _concepts(3), {(2, 2): 0.5}, TernaryPotential.default(EQ)
            )

    def test_unknown_concept_in_priors(self):
        with pytest.raises(ConfigurationError):
            build_factor_graph(
                _concepts(3), {(0, 7): 0.9}, TernaryPotential.default(EQ)
            )

    def test_unknown_mode(self):
        with pytest.raises(ConfigurationError):
            build_factor_graph(
                _concepts(3), {}, TernaryPotential.default(EQ), mode="loose"
            )

    def test_accepts_prior_beliefs_and_floats(self):
        graph = build_factor_graph(
            _concepts(3),
            {(0, 1): PriorBelief(0.6), (1, 2): 0.4},
            TernaryPotential.default(EQ),
        )
        assert graph.num_variables == 3


class TestCliqueEnumeration:
    def test_equivalence_counts_match_binomial(self):
        for n in (3, 5, 8):
            pairs = list(itertools.combinations(range(n), 2))
            assert len(enumerate_ternary_cliques(pairs)) == math.comb(n, 3)

    def test_no_pairs_no_cliques(self):
        assert enumerate_ternary_cliques([]) == []

    def test_matches_brute_force(self):
        rng = np.random.default_rng(2)
        for kind in (EQ, PC) * 25:
            n = int(rng.integers(3, 9))
            pairs = _random_pairs(n, kind, rng, share=float(rng.uniform(0.2, 0.9)))
            assert enumerate_ternary_cliques(pairs) == _brute_force_cliques(pairs)

    def test_every_variable_id_valid(self):
        n = 7
        rng = np.random.default_rng(0)
        for kind in (EQ, PC):
            pairs = _random_pairs(n, kind, rng)
            graph = _sparse(n, pairs, kind)
            concepts = [tuple(row) for row in graph.triple_concepts.tolist()]
            assert concepts == _brute_force_cliques(pairs)
            index = graph.pairs.index
            for (i, j, k), row in zip(concepts, graph.triples.tolist()):
                assert row == [index((i, j)), index((j, k)), index((i, k))]
