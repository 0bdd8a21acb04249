"""Factor graph assembly: prior tables, layout, clique enumeration, closed-form counts."""

import itertools
import math
from collections import Counter

import numpy as np
import pytest

import concord.graph as graph_module
from concord.errors import ConfigurationError
from concord.graph import (
    DEFAULT_PRIOR_P_ONE,
    PriorTable,
    build_factor_graph,
    checked_pair,
    count_graph_stats,
    enumerate_ternary_cliques,
    prior_table,
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


def _codes(pairs, n):
    return np.array(sorted(i * n + j for i, j in pairs), dtype=np.int64)


def _clique_concepts(graph):
    """Each clique's concepts (i, j, k): the pair of its x_ij slot, then the
    right concept of its x_jk slot."""
    return [(*graph.pairs[ij], graph.pairs[jk][1]) for ij, jk, _ in graph.triples.tolist()]


def reference_cliques(pairs):
    """The scalar clique walk: the reference for enumerate_ternary_cliques."""
    present = set(pairs)
    ordered = sorted(present)
    onward: dict[int, list[int]] = {}
    for i, j in ordered:
        onward.setdefault(i, []).append(j)
    return [
        (i, j, k)
        for i, j in ordered
        for k in onward.get(j, ())
        if k != i and (i, k) in present
    ]


def reference_canonical_priors(priors, n, kind):
    """The scalar prior check: the reference for prior_table's errors."""
    canon = {}
    for (left, right), value in priors.items():
        pair = checked_pair(left, right, n, kind, "prior pair")
        if pair in canon:
            raise ConfigurationError(f"duplicate prior for pair {pair}")
        canon[pair] = value if isinstance(value, PriorBelief) else PriorBelief(float(value))
    return canon


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
        assert _clique_concepts(graph) == [(0, 1, 2)]

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
        concepts = _clique_concepts(graph)
        assert concepts == sorted(concepts)
        assert all(i < j < k for i, j, k in concepts)

    def test_parent_child_triples_are_ordered_chains(self):
        graph = _dense(3, PC)
        concepts = _clique_concepts(graph)
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
        assert _clique_concepts(graph) == [(0, 1, 2)]

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
        # n = 60 walks more pairings than one walk step holds.
        for n in (3, 5, 8, 60):
            pairs = list(itertools.combinations(range(n), 2))
            assert len(enumerate_ternary_cliques(_codes(pairs, n), n)) == math.comb(n, 3)

    def test_no_pairs_no_cliques(self):
        for n in (0, 2, 5):
            cliques = enumerate_ternary_cliques(np.empty(0, dtype=np.int64), n)
            assert list(cliques) == []
            assert cliques.concepts.shape == cliques.variables.shape == (0, 3)

    def test_two_concepts_close_nothing(self):
        for pairs in ([(0, 1)], [(0, 1), (1, 0)]):
            assert len(enumerate_ternary_cliques(_codes(pairs, 2), 2)) == 0

    def test_matches_brute_force(self):
        rng = np.random.default_rng(2)
        for kind in (EQ, PC) * 25:
            n = int(rng.integers(3, 9))
            pairs = _random_pairs(n, kind, rng, share=float(rng.uniform(0.2, 0.9)))
            assert list(enumerate_ternary_cliques(_codes(pairs, n), n)) == _brute_force_cliques(pairs)

    @pytest.mark.parametrize("step", [1, 5, 1 << 14])
    @pytest.mark.parametrize("kind", [EQ, PC])
    def test_matches_scalar_reference(self, kind, step, monkeypatch):
        # A small walk step splits the pairings over many steps.
        monkeypatch.setattr(graph_module, "_WALK_STEP", step)
        rng = np.random.default_rng(16)
        both_ways = 0
        for _ in range(40):
            n = int(rng.integers(2, 13))
            pairs = _random_pairs(n, kind, rng, share=float(rng.uniform(0.0, 1.0)))
            both_ways += any((j, i) in pairs for i, j in pairs)
            cliques = enumerate_ternary_cliques(_codes(pairs, n), n)
            expected = reference_cliques(pairs)
            assert list(cliques) == expected
            index = sorted(pairs).index
            assert cliques.variables.tolist() == [
                [index((i, j)), index((j, k)), index((i, k))] for i, j, k in expected
            ]
        if not kind.symmetric:
            assert both_ways  # some sets hold a parent-child pair in both directions

    def test_every_variable_id_valid(self):
        n = 7
        rng = np.random.default_rng(0)
        for kind in (EQ, PC):
            pairs = _random_pairs(n, kind, rng)
            graph = _sparse(n, pairs, kind)
            concepts = _clique_concepts(graph)
            assert concepts == _brute_force_cliques(pairs)
            index = graph.pairs.index
            for (i, j, k), row in zip(concepts, graph.triples.tolist()):
                assert row == [index((i, j)), index((j, k)), index((i, k))]


class TestPriorTable:
    @pytest.mark.parametrize("kind", [EQ, PC])
    def test_rows_are_prior_belief_log_potentials(self, kind):
        # Thousands of rows, so a last-bit difference of np.log shows.
        rng = np.random.default_rng(3)
        n = 72
        pairs = _random_pairs(n, kind, rng, share=0.7)
        values = [0.0, 1.0, 1e-7, 1.0 - 1e-7, 0.5] + rng.random(len(pairs)).tolist()
        priors = {pair: values[i] for i, pair in enumerate(reversed(pairs))}
        priors[pairs[0]] = PriorBelief(0.25)
        table = prior_table(priors, n, kind)
        expected = reference_canonical_priors(priors, n, kind)
        assert table.codes.tolist() == _codes(expected, n).tolist()
        assert table.unary_log.tolist() == [
            list(expected[pair].log_potentials()) for pair in sorted(expected)
        ]
        assert not table.codes.flags.writeable and not table.unary_log.flags.writeable

    def test_reversed_equivalence_pair_is_canonical(self):
        assert prior_table({(2, 0): 0.7}, 3, EQ).codes.tolist() == [0 * 3 + 2]
        assert prior_table({(2, 0): 0.7}, 3, PC).codes.tolist() == [2 * 3 + 0]

    def test_empty_map(self):
        table = prior_table({}, 3, EQ)
        assert table.codes.shape == (0,) and table.unary_log.shape == (0, 2)

    @pytest.mark.parametrize("kind, priors", [
        (EQ, {(0, 1): 0.9, (2, 2): 0.5}),
        (PC, {(1, 1): 0.5}),
        (EQ, {(0, 1): 0.9, (0, 7): 0.5}),
        (EQ, {(7, 0): 0.5}),
        (PC, {(3, 0): 0.5}),
        (PC, {(-1, 2): 0.5}),
        (EQ, {(0, 1): 0.9, (1, 0): 0.8}),
        (EQ, {(2, 1): 0.9, (0, 2): 0.4, (1, 2): 0.8}),
        (EQ, {(0, 1): 1.5}),
        (PC, {(1, 0): 0.5, (0, 1): -0.1}),
        (EQ, {(0, 2): float("nan")}),
    ], ids=[
        "self-pair", "self-pair-pc", "unknown-id", "unknown-reversed", "unknown-pc",
        "negative-id", "repeat", "repeat-reversed", "above-one", "below-zero", "nan",
    ])
    def test_errors_match_the_scalar_check(self, kind, priors):
        with pytest.raises((ConfigurationError, ValueError)) as expected:
            reference_canonical_priors(priors, 3, kind)
        with pytest.raises(expected.type) as raised:
            prior_table(priors, 3, kind)
        assert str(raised.value) == str(expected.value)

    @pytest.mark.parametrize("mode", ["dense", "sparse"])
    def test_graph_from_table_equals_graph_from_map(self, mode):
        priors = {(1, 0): 0.9, (1, 2): 0.2, (0, 2): 0.6, (2, 3): 0.3}
        from_map = build_factor_graph(_concepts(4), priors, TernaryPotential.default(EQ), mode)
        table = prior_table(priors, 4, EQ)
        from_table = build_factor_graph(_concepts(4), table, TernaryPotential.default(EQ), mode)
        assert from_table.pairs == from_map.pairs
        for name in ("unary_log", "triples"):
            assert getattr(from_table, name).tolist() == getattr(from_map, name).tolist()
        assert _clique_concepts(from_table) == _clique_concepts(from_map)

    @pytest.mark.parametrize("kind", [EQ, PC])
    @pytest.mark.parametrize("mode", ["dense", "sparse"])
    def test_given_cliques_skip_the_walk(self, mode, kind, monkeypatch):
        priors = dict.fromkeys(_random_pairs(7, kind, np.random.default_rng(8)), 0.6)
        walked = build_factor_graph(_concepts(7), priors, TernaryPotential.default(kind), mode)
        cliques = enumerate_ternary_cliques(_codes(walked.pairs, 7), 7)

        def no_walk(codes, n):
            raise AssertionError("the build walked its codes again")

        monkeypatch.setattr(graph_module, "enumerate_ternary_cliques", no_walk)
        given = build_factor_graph(
            _concepts(7), priors, TernaryPotential.default(kind), mode, cliques=cliques.variables
        )
        assert given.pairs == walked.pairs and given.num_ternary_factors > 0
        assert all(type(v) is int for pair in given.pairs for v in pair)
        for name in ("unary_log", "triples"):
            array, reference = getattr(given, name), getattr(walked, name)
            assert array.dtype == reference.dtype
            assert array.tobytes() == reference.tobytes()
        assert _clique_concepts(given) == _clique_concepts(walked) == list(cliques)

    def test_given_cliques_must_be_three_column_rows(self):
        priors = {(0, 1): 0.6, (1, 2): 0.6, (0, 2): 0.6}
        rows = enumerate_ternary_cliques(_codes(priors, 3), 3).variables
        for bad in (rows.ravel(), rows[:, :2], rows[..., None]):
            with pytest.raises(ConfigurationError, match=r"\(t, 3\) variable rows"):
                build_factor_graph(
                    _concepts(3), priors, TernaryPotential.default(EQ), "sparse", cliques=bad
                )

    def test_table_of_another_vocabulary_rejected(self):
        table = prior_table({(0, 1): 0.9}, 3, EQ)
        for n, kind in ((4, EQ), (3, PC)):
            with pytest.raises(ConfigurationError, match="prior table"):
                build_factor_graph(_concepts(n), table, TernaryPotential.default(kind))

    def test_select_fills_the_default(self):
        table = prior_table({(0, 1): 0.9, (1, 2): 0.2}, 3, EQ)
        local = table.select(np.array([1, 5]), 0.05)
        assert isinstance(local, PriorTable) and local.codes.tolist() == [1, 5]
        local = table.select(np.array([2, 5]), 0.05)
        assert local.unary_log.tolist() == [
            list(PriorBelief(0.05).log_potentials()), list(PriorBelief(0.2).log_potentials())
        ]
