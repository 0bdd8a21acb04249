"""Domain type tests: configurations, pair indexing, priors, potentials."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from concord.graph import all_pairs
from concord.model import (
    CONFIGURATIONS,
    DEFAULT_WEIGHTS,
    LOG_ZERO,
    Concept,
    PriorBelief,
    RelationshipKind,
    TernaryPotential,
    canonical_pair,
    configuration_index,
    num_variables,
    validate_vocabulary,
)

EQ = RelationshipKind.EQUIVALENCE
PC = RelationshipKind.PARENT_CHILD


class TestConfigurations:
    def test_order_is_binary_counting(self):
        assert CONFIGURATIONS == (
            (0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1),
            (1, 0, 0), (1, 0, 1), (1, 1, 0), (1, 1, 1),
        )

    def test_index_formula(self):
        for idx, cfg in enumerate(CONFIGURATIONS):
            assert configuration_index(*cfg) == idx

    def test_equivalence_zero_set(self):
        # Exactly-two-positives configurations break symmetric transitivity.
        assert EQ.zero_configurations == {(0, 1, 1), (1, 0, 1), (1, 1, 0)}
        assert EQ.num_weights == 5

    def test_parent_child_zero_set(self):
        assert PC.zero_configurations == {(1, 1, 0)}
        assert PC.num_weights == 7

    def test_free_configurations_keep_table_order(self):
        for kind in (EQ, PC):
            free = kind.free_configurations
            indices = [configuration_index(*cfg) for cfg in free]
            assert indices == sorted(indices)
            assert len(free) + len(kind.zero_configurations) == 8


class TestPairIndexing:
    # A dense graph's variable ids are the positions of its pairs in the
    # sorted pair list.
    def test_documented_values(self):
        assert all_pairs(4, EQ).index((0, 1)) == 0
        assert all_pairs(4, EQ).index((2, 3)) == 5
        assert all_pairs(3, PC) == [(0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)]

    def test_counts(self):
        assert num_variables(4, EQ) == 6
        assert num_variables(4, PC) == 12
        with pytest.raises(ValueError):
            num_variables(1, EQ)

    @pytest.mark.parametrize("kind", [EQ, PC])
    @pytest.mark.parametrize("n", [2, 3, 7, 26, 100])
    def test_bijection(self, kind, n):
        pairs = all_pairs(n, kind)
        assert len(pairs) == num_variables(n, kind)
        assert all(a < b for a, b in zip(pairs, pairs[1:]))  # strictly sorted
        for left, right in pairs:
            assert 0 <= left < n and 0 <= right < n
            assert canonical_pair(left, right, kind) == (left, right)

    def test_symmetric_orientation_agrees(self):
        for n in (3, 5, 9):
            for i in range(n):
                for j in range(n):
                    if i != j:
                        assert canonical_pair(i, j, EQ) == canonical_pair(j, i, EQ)

    def test_parent_child_orientation_distinct(self):
        assert canonical_pair(0, 1, PC) != canonical_pair(1, 0, PC)

    def test_canonical_pair(self):
        assert canonical_pair(3, 1, EQ) == (1, 3)
        assert canonical_pair(3, 1, PC) == (3, 1)
        with pytest.raises(ValueError):
            canonical_pair(2, 2, EQ)


class TestConceptAndVocabulary:
    def test_basic(self):
        c = Concept(0, "street address", values=["12 main st"])
        assert c.values == ("12 main st",)

    def test_rejects_empty_name(self):
        with pytest.raises(ValueError):
            Concept(0, "   ")

    def test_rejects_negative_id(self):
        with pytest.raises(ValueError):
            Concept(-1, "x")

    def test_vocabulary_must_be_dense(self):
        good = [Concept(i, f"c{i}") for i in range(4)]
        assert validate_vocabulary(good) == 4
        with pytest.raises(ValueError):
            validate_vocabulary([Concept(0, "a"), Concept(2, "b")])
        with pytest.raises(ValueError):
            validate_vocabulary([Concept(0, "a"), Concept(0, "b")])


class TestPriorBelief:
    def test_clamping(self):
        assert PriorBelief(0.0).p_one == pytest.approx(1e-6)
        assert PriorBelief(1.0).p_one == pytest.approx(1.0 - 1e-6)
        assert PriorBelief(0.3).p_one == 0.3

    def test_rejects_out_of_range(self):
        for bad in (-0.1, 1.1, float("nan")):
            with pytest.raises(ValueError):
                PriorBelief(bad)

    def test_argmax_tie_breaks_to_zero(self):
        assert PriorBelief(0.5).argmax == 0
        assert PriorBelief(0.5 + 1e-9).argmax == 1
        assert PriorBelief(0.2).argmax == 0

    def test_log_potentials(self):
        lp = PriorBelief(0.9).log_potentials()
        assert lp[0] == pytest.approx(math.log(0.1))
        assert lp[1] == pytest.approx(math.log(0.9))

    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_always_finite_logs(self, p):
        lp = PriorBelief(p).log_potentials()
        assert all(math.isfinite(v) for v in lp)


class TestTernaryPotential:
    def test_default_equivalence_table(self):
        table = TernaryPotential.default(EQ).table
        assert table == (1.0, 0.25, 0.25, 0.0, 0.25, 0.0, 0.0, 0.75)

    def test_default_parent_child_table(self):
        table = TernaryPotential.default(PC).table
        assert table == (1.0, 0.25, 0.25, 0.25, 0.25, 0.25, 0.0, 0.75)

    def test_default_weights_frozen(self):
        assert DEFAULT_WEIGHTS[EQ] == (1.0, 0.25, 0.25, 0.25, 0.75)
        assert DEFAULT_WEIGHTS[PC] == (1.0, 0.25, 0.25, 0.25, 0.25, 0.25, 0.75)

    def test_weights_round_trip(self):
        for kind in (EQ, PC):
            pot = TernaryPotential.default(kind)
            assert pot.weights == DEFAULT_WEIGHTS[kind]
            rebuilt = TernaryPotential.from_weights(kind, pot.weights)
            assert rebuilt.table == pot.table

    def test_zero_configuration_must_stay_zero(self):
        table = list(TernaryPotential.default(EQ).table)
        table[configuration_index(1, 1, 0)] = 0.1
        with pytest.raises(ValueError):
            TernaryPotential(EQ, tuple(table))

    def test_free_configuration_must_be_positive(self):
        table = list(TernaryPotential.default(EQ).table)
        table[0] = 0.0
        with pytest.raises(ValueError):
            TernaryPotential(EQ, tuple(table))

    def test_rejects_wrong_arity(self):
        with pytest.raises(ValueError):
            TernaryPotential.from_weights(EQ, (1.0, 0.5))
        with pytest.raises(ValueError):
            TernaryPotential(EQ, (1.0,) * 7)

    def test_rejects_nan_and_negative(self):
        for bad in (float("nan"), float("inf"), -0.5):
            table = list(TernaryPotential.default(EQ).table)
            table[0] = bad
            with pytest.raises(ValueError):
                TernaryPotential(EQ, tuple(table))

    def test_scaled(self):
        pot = TernaryPotential.default(EQ)
        doubled = pot.scaled(2.0)
        assert doubled.table == tuple(2.0 * v for v in pot.table)
        with pytest.raises(ValueError):
            pot.scaled(0.0)

    def test_log_table_uses_sentinel(self):
        log_table = TernaryPotential.default(EQ).log_table()
        assert log_table[configuration_index(1, 1, 0)] == LOG_ZERO
        assert log_table[configuration_index(0, 0, 0)] == pytest.approx(0.0)
        assert log_table[configuration_index(1, 1, 1)] == pytest.approx(math.log(0.75))
        assert not np.isnan(log_table).any()

    @given(
        weights=st.lists(
            st.floats(min_value=0.01, max_value=1.0), min_size=5, max_size=5
        )
    )
    def test_from_weights_places_every_weight(self, weights):
        pot = TernaryPotential.from_weights(EQ, weights)
        assert pot.weights == pytest.approx(tuple(weights))
        for cfg in EQ.zero_configurations:
            assert pot.table[configuration_index(*cfg)] == 0.0
