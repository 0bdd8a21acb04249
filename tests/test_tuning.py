"""Random-search tuning: space validation, trial mechanics, objective wiring."""

import inspect

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from concord.errors import ConfigurationError
from concord.evaluation import generate_synthetic
from concord.graph import build_factor_graph
from concord.inference import LbpConfig, lbp_map
from concord.model import Concept, RelationshipKind, TernaryPotential
from concord.tuning import SearchSpace, TrialConfig, evaluate_config, tune

EQ = RelationshipKind.EQUIVALENCE
PC = RelationshipKind.PARENT_CHILD


def _concepts(n):
    return [Concept(i, f"concept {i}") for i in range(n)]


def _builder(concepts, priors):
    def build(potential: TernaryPotential):
        return build_factor_graph(concepts, priors, potential, mode="sparse")
    return build


class TestSearchSpace:
    def test_default_pins_the_anchor_weight(self):
        space = SearchSpace.default(EQ)
        assert space.weight_ranges[0] == (1.0, 1.0)
        assert len(space.weight_ranges) == EQ.num_weights
        assert SearchSpace.default(PC).weight_ranges[0] == (1.0, 1.0)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SearchSpace(EQ, ((1.0, 1.0),) * 4)  # wrong arity
        with pytest.raises(ConfigurationError):
            SearchSpace(EQ, ((0.0, 1.0),) + ((0.1, 1.0),) * 4)  # zero lower bound
        with pytest.raises(ConfigurationError):
            SearchSpace(EQ, ((0.5, 0.2),) + ((0.1, 1.0),) * 4)  # inverted
        with pytest.raises(ConfigurationError):
            SearchSpace.default(EQ).__class__(
                EQ, SearchSpace.default(EQ).weight_ranges, damping_range=(0.2, 1.0)
            )
        with pytest.raises(ConfigurationError):
            SearchSpace(
                EQ, SearchSpace.default(EQ).weight_ranges, iteration_choices=()
            )

    def test_default_config_is_inside_the_space(self):
        for kind in (EQ, PC):
            space = SearchSpace.default(kind)
            config = space.default_config()
            for w, (low, high) in zip(config.weights, space.weight_ranges):
                assert low <= w <= high
            assert config.potential().kind is kind

    def test_lbp_defaults_come_from_lbp_config(self):
        lbp = LbpConfig()
        config = SearchSpace.default(EQ).default_config()
        assert (config.damping, config.max_iterations) == (lbp.damping, lbp.max_iterations)
        for function in (tune, evaluate_config):
            assert inspect.signature(function).parameters["tolerance"].default == lbp.tolerance

    @settings(max_examples=60)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_samples_stay_in_the_box(self, seed):
        rng = np.random.default_rng(seed)
        space = SearchSpace.default(EQ)
        config = space.sample(rng)
        for w, (low, high) in zip(config.weights, space.weight_ranges):
            assert low <= w <= high
        dlow, dhigh = space.damping_range
        assert dlow <= config.damping <= dhigh
        assert config.max_iterations in space.iteration_choices
        perturbed = space.perturb(rng, config)
        for w, (low, high) in zip(perturbed.weights, space.weight_ranges):
            assert low <= w <= high
        assert dlow <= perturbed.damping <= dhigh
        assert perturbed.max_iterations in space.iteration_choices

    def test_pinned_weight_never_moves(self):
        rng = np.random.default_rng(0)
        space = SearchSpace.default(EQ)
        for _ in range(30):
            assert space.sample(rng).weights[0] == 1.0
            assert space.perturb(rng, space.default_config()).weights[0] == 1.0


class TestEvaluateConfig:
    def test_perfect_config_scores_one(self):
        concepts = _concepts(3)
        priors = {(0, 1): 0.9, (0, 2): 0.9, (1, 2): 0.1}
        gold = {(0, 1): 1, (0, 2): 1, (1, 2): 1}
        config = SearchSpace.default(EQ).default_config()
        graph = _builder(concepts, priors)(config.potential())
        f1 = evaluate_config(config, graph, gold)
        # Transitive closure pulls the dissenting third pair up to positive.
        assert f1 == 1.0

    def test_decodes_under_the_config_potential(self):
        # The graph's own potential is replaced by the configuration's.
        concepts = _concepts(3)
        priors = {(0, 1): 0.9, (0, 2): 0.9, (1, 2): 0.1}
        gold = {(0, 1): 1, (0, 2): 1, (1, 2): 1}
        config = SearchSpace.default(EQ).default_config()
        flat = TernaryPotential.from_weights(EQ, (1.0, 1e-3, 1e-3, 1e-3, 1e-3))
        graph = _builder(concepts, priors)(flat)
        assert lbp_map(graph, LbpConfig()).labels.tolist() == [0, 0, 0]
        assert evaluate_config(config, graph, gold) == 1.0


class TestTune:
    @staticmethod
    def _small_problem():
        data = generate_synthetic(EQ, 18, 4, prior_noise=0.25, seed=21,
                                  pair_mode="sparse", pairs_per_concept=4)
        build = _builder(list(data.concepts), data.priors)
        gold = {pair: data.gold[pair] for pair in data.pairs}
        return build, gold

    def test_builds_the_graph_once(self):
        build, gold = self._small_problem()
        potentials = []

        def counting_build(potential):
            potentials.append(potential)
            return build(potential)

        space = SearchSpace.default(EQ)
        initial = space.default_config()
        _, history = tune(space, counting_build, gold, budget=6, seed=3, initial=initial)
        assert len(history) == 6
        assert potentials == [initial.potential()]
        _, history = tune(space, counting_build, gold, budget=3, seed=3)
        assert potentials[1:] == [history[0].config.potential()]

    def test_missing_gold_pair_is_an_error(self):
        concepts = _concepts(3)
        priors = {(0, 1): 0.9}
        gold = {(0, 1): 1, (0, 2): 1}
        with pytest.raises(ConfigurationError, match="missing"):
            tune(SearchSpace.default(EQ), _builder(concepts, priors), gold, budget=1)

    def test_budget_one_runs_exactly_the_initial(self):
        build, gold = self._small_problem()
        space = SearchSpace.default(EQ)
        initial = space.default_config()
        best, history = tune(space, build, gold, budget=1, initial=initial)
        assert len(history) == 1
        assert best is history[0]
        assert best.config == initial

    def test_ties_keep_the_earliest_trial(self):
        build, gold = self._small_problem()
        space = SearchSpace(
            EQ, ((1.0, 1.0),) * 5, damping_range=(0.5, 0.5), iteration_choices=(50,)
        )
        best, history = tune(space, build, gold, budget=6)
        # Every trial runs the identical configuration, so the first wins.
        assert best.index == 0
        assert all(r.objective == best.objective for r in history)

    def test_deterministic_under_seed(self):
        build, gold = self._small_problem()
        space = SearchSpace.default(EQ)
        best_a, hist_a = tune(space, build, gold, budget=8, seed=13)
        best_b, hist_b = tune(space, build, gold, budget=8, seed=13)
        assert [r.config for r in hist_a] == [r.config for r in hist_b]
        assert [r.objective for r in hist_a] == [r.objective for r in hist_b]
        assert best_a.index == best_b.index

    def test_best_is_the_running_max(self):
        build, gold = self._small_problem()
        best, history = tune(SearchSpace.default(EQ), build, gold, budget=10, seed=2)
        top = max(r.objective for r in history)
        assert best.objective == top
        assert best.index == min(r.index for r in history if r.objective == top)

    def test_seeded_initial_never_regresses(self):
        build, gold = self._small_problem()
        space = SearchSpace.default(EQ)
        initial = space.default_config()
        baseline = evaluate_config(initial, build(initial.potential()), gold)
        best, _ = tune(space, build, gold, budget=12, seed=7, initial=initial)
        assert best.objective >= baseline

    def test_trial_configs_stay_in_space(self):
        build, gold = self._small_problem()
        space = SearchSpace.default(EQ)
        _, history = tune(space, build, gold, budget=14, seed=1)
        for record in history:
            for w, (low, high) in zip(record.config.weights, space.weight_ranges):
                assert low <= w <= high
            assert record.config.max_iterations in space.iteration_choices
            assert 0.0 <= record.objective <= 1.0
            assert record.wall_time >= 0.0

    def test_validation(self):
        build, gold = self._small_problem()
        space = SearchSpace.default(EQ)
        with pytest.raises(ConfigurationError):
            tune(space, build, gold, budget=0)
        with pytest.raises(ConfigurationError):
            tune(space, build, {}, budget=1)
        with pytest.raises(ConfigurationError):
            tune(space, build, {(0, 1): 0, (0, 2): 0}, budget=1)

    def test_trial_record_serializes(self):
        build, gold = self._small_problem()
        best, _ = tune(SearchSpace.default(EQ), build, gold, budget=2, seed=0)
        payload = best.to_dict()
        assert payload["trial"] == best.index
        assert payload["config"]["weights"] == list(best.config.weights)
        assert payload["config"]["relationship"] == "equivalence"
        assert 0.0 <= payload["f1"] <= 1.0
