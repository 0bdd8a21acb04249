"""Random-search tuning: the fixed space's draws, trial mechanics, objective wiring."""

import inspect
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from concord import tuning
from concord.errors import ConfigurationError
from concord.evaluation import generate_synthetic
from concord.graph import build_factor_graph
from concord.inference import LbpConfig, lbp_map
from concord.model import DEFAULT_WEIGHTS, Concept, RelationshipKind, TernaryPotential
from concord.tuning import (
    ANCHOR_WEIGHT,
    DAMPING_RANGE,
    ROUND_CAPS,
    WEIGHT_RANGE,
    SearchSpace,
    evaluate_config,
    tune,
)

EQ = RelationshipKind.EQUIVALENCE
PC = RelationshipKind.PARENT_CHILD

# (weights, damping, round cap) drawn from the default space with seed 0.
GOLDEN_DRAWS = {
    EQ: [
        ((1.0, 0.6551136029553816, 0.30629737807567675, 0.08892484773938496, 0.06570125375210265), 0.7319432152802452, 100),
        ((1.0, 0.6263039869788208, 0.7430217329347985, 0.5664437418921517, 0.9383188025983799), 0.734268198709379, 200),
        ((1.0, 0.05260157516164069, 0.8645340627581909, 0.08190629654019113, 0.7431726741084469), 0.15809005854230312, 50),
        ((1.0, 0.6250650881003119, 0.3454022790312194, 0.18796361783643933, 0.05349046077241939), 0.854924927629717, 200),
        ((1.0, 0.5631104929975925, 0.7764151895936353, 0.6522734091490736, 0.947249970885663), 0.6673532662675362, 200),
        ((1.0, 0.05, 0.8854525994878456, 0.05, 0.7233009944956341), 0.14375980765000013, 100),
    ],
    PC: [
        ((1.0, 0.6551136029553816, 0.30629737807567675, 0.08892484773938496, 0.06570125375210265, 0.8226067272402589, 0.9171177984138357), 0.5459721981904619, 200),
        ((1.0, 0.5664437418921517, 0.9383188025983799, 0.8250608764154556, 0.05260157516164069, 0.8645340627581909, 0.08190629654019113), 0.6566899017869496, 200),
        ((1.0, 0.2168728395724311, 0.8700199762323922, 0.5643881592366371, 0.3347262960105155, 0.4515528601377755, 0.07690368758818981), 0.11185494884960755, 50),
        ((1.0, 0.6885070596142184, 0.39212704533259857, 0.09785601602666805, 0.05, 0.735042816495709, 0.8736338449754385), 0.5657897593027664, 200),
        ((1.0, 0.4705300144559718, 0.9184471229855671, 0.8099345004735802, 0.10398190570679242, 0.8849266793962933, 0.11566670389898367), 0.597845326939299, 200),
        ((1.0, 0.2913505092282574, 1.0, 0.44477693368674565, 0.4785490546107265, 0.5794110253970944, 0.15112827065473045), 0.13565595557924487, 100),
    ],
}


def _concepts(n):
    return [Concept(i, f"concept {i}") for i in range(n)]


def _builder(concepts, priors):
    def build(potential: TernaryPotential):
        return build_factor_graph(concepts, priors, potential, mode="sparse")
    return build


def _assert_inside(config):
    assert len(config.weights) == config.kind.num_weights
    assert config.weights[0] == ANCHOR_WEIGHT
    low, high = WEIGHT_RANGE
    assert all(low <= w <= high for w in config.weights[1:])
    low, high = DAMPING_RANGE
    assert low <= config.damping <= high
    assert config.max_iterations in ROUND_CAPS


class TestSearchSpace:
    def test_default_pins_the_anchor_weight(self):
        for kind in (EQ, PC):
            weights = SearchSpace.default(kind).default_config().weights
            assert weights[0] == ANCHOR_WEIGHT
            assert len(weights) == kind.num_weights

    def test_space_is_its_kind(self):
        assert [f.name for f in fields(SearchSpace)] == ["kind"]
        assert SearchSpace.default(PC) == SearchSpace(PC)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SearchSpace("equivalence")  # a kind's value, not the kind
        initial = SearchSpace.default(PC).default_config()

        def build(potential):
            pytest.fail("the graph is built before the initial configuration is checked")

        with pytest.raises(ConfigurationError, match="parent-child"):
            tune(SearchSpace.default(EQ), build, {(0, 1): 1}, budget=1, initial=initial)

    def test_default_config_is_inside_the_space(self):
        for kind in (EQ, PC):
            config = SearchSpace.default(kind).default_config()
            _assert_inside(config)
            assert config.weights == DEFAULT_WEIGHTS[kind]
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
        for kind in (EQ, PC):
            space = SearchSpace.default(kind)
            config = space.sample(rng)
            _assert_inside(config)
            _assert_inside(space.perturb(rng, config))

    def test_pinned_weight_never_moves(self):
        rng = np.random.default_rng(0)
        space = SearchSpace.default(EQ)
        for _ in range(30):
            assert space.sample(rng).weights[0] == ANCHOR_WEIGHT
            assert space.perturb(rng, space.default_config()).weights[0] == ANCHOR_WEIGHT

    def test_round_cap_outside_the_choices_steps_from_the_last(self):
        space = SearchSpace.default(EQ)
        base = replace(space.default_config(), max_iterations=77)
        caps = {space.perturb(np.random.default_rng(seed), base).max_iterations
                for seed in range(40)}
        assert caps == set(ROUND_CAPS[-2:])

    @pytest.mark.parametrize("kind", [EQ, PC])
    def test_seed_zero_draws_are_golden(self, kind):
        # Three samples, then one perturbation of each, from one generator:
        # a reordered or extra draw changes every later value.
        rng = np.random.default_rng(0)
        space = SearchSpace.default(kind)
        sampled = [space.sample(rng) for _ in range(3)]
        perturbed = [space.perturb(rng, config) for config in sampled]
        drawn = [(c.weights, c.damping, c.max_iterations) for c in sampled + perturbed]
        assert drawn == GOLDEN_DRAWS[kind]
        assert all(type(v) is float for c in sampled + perturbed for v in (*c.weights, c.damping))
        assert all(type(c.max_iterations) is int for c in sampled + perturbed)


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

    def test_ties_keep_the_earliest_trial(self, monkeypatch):
        build, gold = self._small_problem()
        monkeypatch.setattr(tuning, "evaluate_config", lambda *args: 0.5)
        best, history = tune(SearchSpace.default(EQ), build, gold, budget=6)
        # Every trial scores the same, so the first wins.
        assert best.index == 0
        assert [r.objective for r in history] == [0.5] * 6

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
        _, history = tune(SearchSpace.default(EQ), build, gold, budget=14, seed=1)
        for record in history:
            _assert_inside(record.config)
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
