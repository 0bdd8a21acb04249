"""Max-product message passing, decoding, scoring, repair, exact oracle."""

import dataclasses
import itertools
import math
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from concord.errors import ConfigurationError
from concord.evaluation import audit_labels
from concord.graph import build_factor_graph
from concord.inference import (
    MESSAGE_SPREAD_CAP,
    Beliefs,
    LbpConfig,
    MessageStore,
    _factor_plan,
    _factor_round,
    _variable_round,
    configuration_codes,
    exact_map_oracle,
    greedy_repair,
    jacobi_round,
    joint_log_score,
    lbp_map,
    max_product_rounds,
    prior_flips,
    violated_cliques,
)
from concord.model import (
    CONFIGURATIONS,
    LOG_ZERO,
    AssignmentGraph,
    Concept,
    RelationshipKind,
    TernaryPotential,
)

EQ = RelationshipKind.EQUIVALENCE
PC = RelationshipKind.PARENT_CHILD


def _concepts(n):
    return [Concept(i, f"concept {i}") for i in range(n)]


def _graph(priors, n=None, kind=EQ, weights=None, mode="sparse"):
    n = n or max(max(p) for p in priors) + 1
    potential = (
        TernaryPotential.from_weights(kind, weights)
        if weights
        else TernaryPotential.default(kind)
    )
    return build_factor_graph(_concepts(n), priors, potential, mode=mode)


# The three-pair conflict instance: two confident positives and one
# confident negative cannot all hold, so the best valid labeling drops
# both positives rather than pay for the rejected closure.
CONFLICT_PRIORS = {(0, 1): 0.6, (0, 2): 0.6, (1, 2): 0.1}
CONFLICT_WEIGHTS = (1.0, 0.3, 0.3, 0.3, 0.9)
CONFLICT_SCORE = math.log(0.144)  # ln(0.4 * 0.4 * 0.9)


# Scalar reference for the vectorized rounds, one message at a time.
# Factor ids are laid out unary-first: factor v < m is the unary factor of
# variable v and factor m + f is ternary clique f.  Edge ids follow the
# store's layout: edge v < m is the unary edge of variable v and edge
# m + 3f + s is slot s of clique f, slots in clique order (x_ij, x_jk, x_ik).


def incident_factors(graph, variable):
    cliques = np.flatnonzero((graph.triples == variable).any(axis=1))
    return [variable, *(graph.num_variables + cliques).tolist()]


def edge_id(graph, variable, factor):
    m = graph.num_variables
    if factor < m:
        assert factor == variable, f"unary factor {factor} is not incident to variable {variable}"
        return variable
    f = factor - m
    return m + 3 * f + graph.triples[f].tolist().index(variable)


def edge_factor(graph, edge):
    m = graph.num_variables
    return edge if edge < m else m + (edge - m) // 3


def normalize(row):
    """Shift a two-component message so its max is 0; floor it at -cap."""
    return np.maximum(row - row.max(), -MESSAGE_SPREAD_CAP)


def components(log_odds):
    """The max-normalized two-component message (m(0), m(1)) of a log-odds."""
    return np.array([min(0.0, -log_odds), min(0.0, log_odds)])


def variable_to_factor_message(graph, store, variable, factor):
    """Product (log-sum) of incoming factor messages, excluding the target."""
    total = np.zeros(2, dtype=np.float64)
    for w in incident_factors(graph, variable):
        if w != factor:
            total += components(store.factor_to_var[edge_id(graph, variable, w)])
    return normalize(total)


def factor_to_variable_message(graph, store, factor, variable):
    """Max over the factor's configurations consistent with each target state."""
    m = graph.num_variables
    if factor < m:
        assert factor == variable, f"unary factor {factor} is not incident to variable {variable}"
        return components(store.unary_message[variable])
    f = factor - m
    target = graph.triples[f].tolist().index(variable)
    incoming = [components(store.var_to_factor[m + 3 * f + s]) for s in range(3)]
    out = np.full(2, -math.inf)
    for cfg_index in range(8):
        if graph.potential.table[cfg_index] == 0.0:
            continue
        cfg = ((cfg_index >> 2) & 1, (cfg_index >> 1) & 1, cfg_index & 1)
        score = graph.log_table[cfg_index] + sum(
            incoming[s][cfg[s]] for s in range(3) if s != target
        )
        out[cfg[target]] = max(out[cfg[target]], score)
    return normalize(out)


def log_odds(row):
    return row[..., 1] - row[..., 0]


def reference_factor_round(graph, store, fresh_v2f):
    """The broadcast form of the factor side, (3t,) in edge order.

    Per target slot it scores every live configuration as
    ``live_log + (d_a·s_a + d_b·s_b)`` in a (t, L) matrix and maxes the
    columns of each target state; ``_factor_round`` must match it bit for bit.
    """
    d = fresh_v2f[store.num_variables:].reshape(-1, 3)
    live = np.flatnonzero(graph.potential.table)
    live_log = graph.log_table[live]
    states = (live[:, None] >> np.array([2, 1, 0])) & 1
    out = np.empty(d.shape, dtype=np.float64)
    for target, (a, b) in enumerate(((1, 2), (0, 2), (0, 1))):
        scores = live_log + (d[:, a, None] * states[:, a] + d[:, b, None] * states[:, b])
        on = states[:, target] == 1
        out[:, target] = scores[:, on].max(axis=1) - scores[:, ~on].max(axis=1)
    return np.clip(out.ravel(), -MESSAGE_SPREAD_CAP, MESSAGE_SPREAD_CAP)


def reference_jacobi_round(store, damping):
    """The allocating round that the in-place ``jacobi_round`` replaced.

    It builds every array afresh: ``np.clip`` caps, damping blends into new
    arrays, the factor side folds each target state's scores with
    ``reduce`` and the change is one ``np.abs`` per message direction.
    ``jacobi_round`` must match its messages and change bit for bit.
    """
    m = store.num_variables
    beliefs = np.bincount(store.edge_var, weights=store.factor_to_var, minlength=m)
    variable = np.clip(
        beliefs[store.edge_var] - store.factor_to_var, -MESSAGE_SPREAD_CAP, MESSAGE_SPREAD_CAP
    )
    fresh_v2f = damping * store.var_to_factor + (1.0 - damping) * variable
    d = fresh_v2f[m:].reshape(-1, 3)
    factor = np.empty(d.shape, dtype=np.float64)
    for target, (a, b) in enumerate(((1, 2), (0, 2), (0, 1))):
        d_a, d_b = d[:, a], d[:, b]
        added = (None, d_b, d_a, d_a + d_b)
        off, on = (
            reduce(np.maximum, [w + added[code] if code else w for code, w in live])
            for live in store.plan[target]
        )
        factor[:, target] = on - off
    factor = np.clip(factor.ravel(), -MESSAGE_SPREAD_CAP, MESSAGE_SPREAD_CAP)
    fresh_f2v = np.concatenate([
        store.unary_message, damping * store.factor_to_var[m:] + (1.0 - damping) * factor,
    ])
    moved = np.abs(fresh_v2f - store.var_to_factor)
    np.maximum(moved, np.abs(fresh_f2v - store.factor_to_var), out=moved)
    store.var_to_factor = fresh_v2f
    store.factor_to_var = fresh_f2v
    return moved


def check_message_sanity(store):
    """Every message is a finite log-odds within the spread cap."""
    for name, block in (("var_to_factor", store.var_to_factor), ("factor_to_var", store.factor_to_var)):
        assert np.isfinite(block).all(), f"{name} has a message that is not finite"
        assert (np.abs(block) <= MESSAGE_SPREAD_CAP).all(), f"{name} has a message beyond the cap"


class TestMessagePrimitives:
    def test_unary_message_is_normalized_prior(self):
        graph = _graph({(0, 1): 0.9})
        store = MessageStore.initial(graph)
        assert store.unary_message[0] == pytest.approx(math.log(0.9) - math.log(0.1))

    def test_variable_to_factor_sums_other_incoming(self):
        graph = _graph({}, n=4, mode="dense")
        store = MessageStore.initial(graph)
        m = graph.num_variables
        # Variable 0 is pair (0, 1); it sits in cliques (0,1,2) and (0,1,3).
        assert incident_factors(graph, 0) == [0, m + 0, m + 1]
        store.factor_to_var[edge_id(graph, 0, 0)] = -2.0
        store.factor_to_var[edge_id(graph, 0, m + 0)] = 1.0
        out = variable_to_factor_message(graph, store, 0, m + 1)
        assert out.tolist() == [0.0, -1.0]
        assert _variable_round(store)[edge_id(graph, 0, m + 1)] == -1.0

    def test_round_batch_matches_reference_messages(self):
        # After 1-5 damped rounds, both batch updates agree with the scalar
        # reference on every edge.  Summation order differs, so not bitwise.
        rng = np.random.default_rng(7)
        tables = [
            (EQ, itertools.combinations(range(7), 2), None),
            (PC, itertools.permutations(range(5), 2), None),
            # Log-potentials near +-690.
            (EQ, itertools.combinations(range(7), 2), (1e-300, 1e300, 1e-150, 1e150, 1.0)),
        ]
        for kind, pairs, weights in tables:
            priors = {pair: float(rng.uniform(0.05, 0.95)) for pair in pairs}
            if weights is None:
                weights = (1.0, *(float(rng.uniform(0.05, 1.0)) for _ in range(kind.num_weights - 1)))
            graph = _graph(priors, kind=kind, weights=weights, mode="dense")
            m = graph.num_variables
            edges = [
                (int(var), edge_factor(graph, e))
                for e, var in enumerate(MessageStore.initial(graph).edge_var)
            ]
            for rounds in range(1, 6):
                store = MessageStore.initial(graph)
                for _ in range(rounds):
                    jacobi_round(store, damping=0.5)
                np.testing.assert_array_equal(store.factor_to_var[:m], store.unary_message)
                expected = log_odds(np.stack([
                    variable_to_factor_message(graph, store, var, factor) for var, factor in edges
                ]))
                np.testing.assert_allclose(_variable_round(store), expected, rtol=0, atol=1e-12)
                expected = log_odds(np.stack([
                    factor_to_variable_message(graph, store, factor, var) for var, factor in edges[m:]
                ]))
                np.testing.assert_allclose(
                    _factor_round(store, store.var_to_factor), expected, rtol=0, atol=1e-12
                )

    @pytest.mark.parametrize("kind, weights", [
        (EQ, None),
        (EQ, (1.0, 1.0, 1.0, 1.0, 1.0)),
        (PC, None),
        (EQ, "random"),
        (PC, "random"),
    ])
    @pytest.mark.parametrize("mode", ["dense", "sparse"])
    def test_factor_round_bitwise_equals_broadcast_reference(self, kind, weights, mode):
        rng = np.random.default_rng(37)
        if weights == "random":
            weights = tuple(float(w) for w in 1.0 - rng.uniform(0.0, 0.95, kind.num_weights))
        n = 8 if kind.symmetric else 6
        every = list(
            itertools.combinations(range(n), 2) if kind.symmetric
            else itertools.permutations(range(n), 2)
        )
        pairs = every if mode == "dense" else [p for p in every if rng.random() < 0.6]
        priors = {pair: float(rng.uniform(0.05, 0.95)) for pair in pairs}
        potential = (
            TernaryPotential.from_weights(kind, weights) if weights
            else TernaryPotential.default(kind)
        )
        graph = build_factor_graph(_concepts(n), priors, potential, mode=mode)
        assert graph.num_ternary_factors > 0
        store = MessageStore.initial(graph)
        # Each slot and target state lists its live configurations once.
        for slot in store.plan:
            assert sum(map(len, slot)) == np.count_nonzero(potential.table)
        for _ in range(5):
            jacobi_round(store, damping=0.5)
            np.testing.assert_array_equal(
                _factor_round(store, store.var_to_factor),
                reference_factor_round(graph, store, store.var_to_factor),
            )
        # Incoming messages at and near the spread cap, with both signs.
        cap = MESSAGE_SPREAD_CAP
        below = np.nextafter(cap, 0)
        near = np.array([cap, -cap, below, -below, cap - 1e-9, 1e-9 - cap, 0.0])
        for _ in range(5):
            fresh = rng.uniform(-cap, cap, store.var_to_factor.shape)
            planted = rng.random(fresh.shape) < 0.5
            fresh[planted] = rng.choice(near, planted.sum())
            np.testing.assert_array_equal(
                _factor_round(store, fresh), reference_factor_round(graph, store, fresh)
            )

    def test_message_storage_covers_every_edge(self):
        graph = _graph({}, n=5, mode="dense")
        store = MessageStore.initial(graph)
        edges = graph.num_variables + 3 * graph.num_ternary_factors
        assert store.var_to_factor.shape == (edges,)
        assert store.factor_to_var.shape == (edges,)
        assert graph.num_edges == edges

    @pytest.mark.parametrize("kind, weights", [
        (EQ, (1e-300, 1e300, 1e-150, 1e150, 1.0)),
        (PC, (1e-300, 1e300, 1e-150, 1e150, 1.0, 1e-300, 1e300)),
    ])
    def test_extreme_inputs_keep_messages_finite(self, kind, weights):
        # Priors of exactly 0 and 1 next to log-potentials near +-690: the
        # clamped priors and the strictly positive free configurations keep
        # every message finite with no hard-zero arithmetic.
        rng = np.random.default_rng(31)
        pairs = (
            itertools.combinations(range(6), 2) if kind.symmetric
            else itertools.permutations(range(5), 2)
        )
        priors = {pair: float(rng.integers(2)) for pair in pairs}
        graph = _graph(priors, kind=kind, weights=weights, mode="dense")
        config = LbpConfig(max_iterations=200, tolerance=0.0)
        store = MessageStore.initial(graph)
        for _ in range(config.max_iterations):
            jacobi_round(store, config.damping)
        check_message_sanity(store)
        decoded = lbp_map(graph, config)
        assert decoded.iterations == config.max_iterations
        assert np.isfinite(decoded.margins).all()


class TestDecoding:
    def test_unary_only_converges_in_two_rounds(self):
        priors = {(0, 1): 0.9, (2, 3): 0.2, (4, 5): 0.7}
        graph = _graph(priors)
        result = lbp_map(graph, LbpConfig())
        assert result.converged
        assert result.iterations <= 2
        assert result.labels.tolist() == [1, 0, 1]
        assert result.log_score == pytest.approx(math.log(0.9 * 0.8 * 0.7))

    def test_tie_decodes_to_zero(self):
        graph = _graph({(0, 1): 0.5, (1, 2): 0.5})
        result = lbp_map(graph, LbpConfig())
        assert result.labels.tolist() == [0, 0]

    def test_conflict_instance_matches_oracle(self):
        graph = _graph(CONFLICT_PRIORS, weights=CONFLICT_WEIGHTS)
        oracle = exact_map_oracle(graph)
        config = LbpConfig()
        store = MessageStore.initial(graph)
        for rounds in range(1, config.max_iterations + 1):
            delta = jacobi_round(store, config.damping).max()
            check_message_sanity(store)
            if delta < config.tolerance:
                break
        decoded = lbp_map(graph, config)
        assert decoded.iterations == rounds
        assert oracle.labels.tolist() == [0, 0, 0]
        assert decoded.labels.tolist() == [0, 0, 0]
        assert decoded.converged
        assert decoded.log_score == pytest.approx(CONFLICT_SCORE, rel=1e-12)
        assert decoded.violations == []
        assert prior_flips(graph, decoded.labels) == [0, 1]

    def test_single_clique_graphs_are_exact(self):
        rng = np.random.default_rng(11)
        for _ in range(60):
            priors = {
                (0, 1): float(rng.uniform(0.02, 0.98)),
                (0, 2): float(rng.uniform(0.02, 0.98)),
                (1, 2): float(rng.uniform(0.02, 0.98)),
            }
            weights = (1.0, *(float(rng.uniform(0.05, 1.0)) for _ in range(4)))
            graph = _graph(priors, weights=weights)
            decoded = lbp_map(graph, LbpConfig(damping=0.0))
            oracle = exact_map_oracle(graph)
            assert decoded.log_score == pytest.approx(oracle.log_score, rel=1e-9)

    def test_scale_invariant_decoding(self):
        graph = _graph(CONFLICT_PRIORS, weights=CONFLICT_WEIGHTS)
        base = lbp_map(graph, LbpConfig())
        t = graph.num_ternary_factors
        for factor in (0.1, 10.0):
            scaled = build_factor_graph(
                _concepts(3), CONFLICT_PRIORS, graph.potential.scaled(factor),
                mode="sparse",
            )
            result = lbp_map(scaled, LbpConfig())
            assert result.labels.tolist() == base.labels.tolist()
            assert result.log_score == pytest.approx(
                base.log_score + t * math.log(factor)
            )

    def test_deterministic(self):
        rng = np.random.default_rng(13)
        priors = {
            (i, j): float(rng.uniform(0.1, 0.9))
            for i, j in itertools.combinations(range(6), 2)
        }
        graph = _graph(priors, n=6, mode="dense")
        a = lbp_map(graph, LbpConfig())
        b = lbp_map(graph, LbpConfig())
        assert a.labels.tolist() == b.labels.tolist()
        assert a.log_score == b.log_score
        assert a.iterations == b.iterations

    def test_tolerance_zero_runs_full_budget(self):
        graph = _graph(CONFLICT_PRIORS, weights=CONFLICT_WEIGHTS)
        result = lbp_map(graph, LbpConfig(max_iterations=37, tolerance=0.0))
        assert result.iterations == 37
        assert not result.converged

    def test_live_components_respect_spread_cap(self):
        graph = _graph(CONFLICT_PRIORS, weights=CONFLICT_WEIGHTS)
        store = MessageStore.initial(graph)
        for _ in range(80):
            jacobi_round(store, damping=0.5)
        check_message_sanity(store)

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            LbpConfig(max_iterations=0)
        with pytest.raises(ConfigurationError):
            LbpConfig(damping=1.0)
        for tolerance in (-0.1, math.nan, math.inf):
            with pytest.raises(ConfigurationError):
                LbpConfig(tolerance=tolerance)


class TestScoring:
    def test_single_pair(self):
        graph = _graph({(0, 1): 0.7})
        assert joint_log_score(graph, [1]) == pytest.approx(math.log(0.7))
        assert joint_log_score(graph, [0]) == pytest.approx(math.log(0.3))

    def test_forbidden_configuration_scores_log_zero(self):
        graph = _graph(CONFLICT_PRIORS, weights=CONFLICT_WEIGHTS)
        # (x_01, x_02, x_12) = (1, 1, 0) closes the clique as (1, 0, 1).
        assert joint_log_score(graph, [1, 1, 0]) == LOG_ZERO

    def test_orders_assignments_correctly(self):
        graph = _graph(CONFLICT_PRIORS, weights=CONFLICT_WEIGHTS)
        assert joint_log_score(graph, [0, 0, 0]) > joint_log_score(graph, [1, 1, 1])

    def test_rejects_bad_labels(self):
        graph = _graph({(0, 1): 0.7})
        with pytest.raises(ValueError):
            joint_log_score(graph, [1, 0])
        with pytest.raises(ValueError):
            joint_log_score(graph, [2])

    def test_configuration_codes(self):
        triples = np.array([[0, 1, 2]])
        labels = np.array([1, 0, 1])
        assert configuration_codes(labels, triples).tolist() == [5]

    def test_configuration_codes_of_a_label_batch(self):
        graph = _graph({pair: 0.5 for pair in itertools.permutations(range(5), 2)}, kind=PC)
        batch = np.random.default_rng(3).integers(0, 2, (6, graph.num_variables))
        codes = configuration_codes(batch, graph.triples)
        assert codes.shape == (6, graph.num_ternary_factors)
        for labels, row in zip(batch, codes):
            assert row.tolist() == configuration_codes(labels, graph.triples).tolist()

    def test_violated_cliques(self):
        graph = _graph(CONFLICT_PRIORS, weights=CONFLICT_WEIGHTS)
        assert violated_cliques(graph, np.array([0, 0, 0])) == []
        assert violated_cliques(graph, np.array([1, 1, 0])) == [0]

    def test_prior_flips(self):
        graph = _graph({(0, 1): 0.9, (1, 2): 0.2})
        assert prior_flips(graph, np.array([1, 0])) == []
        assert prior_flips(graph, np.array([0, 1])) == [0, 1]


class TestOneRule:
    """Every transitivity check reads the kind's one forbidden table."""

    @pytest.mark.parametrize("kind", [EQ, PC])
    def test_table_agrees_with_zero_configurations_and_default(self, kind):
        default = TernaryPotential.default(kind).table
        for code, cfg in enumerate(CONFIGURATIONS):
            zero = cfg in kind.zero_configurations
            assert bool(kind.forbidden[code]) is zero, cfg
            assert (default[code] == 0.0) is zero, cfg
        assert not kind.forbidden.flags.writeable

    @pytest.mark.parametrize("kind", [EQ, PC])
    def test_factor_plan_leaves_out_forbidden(self, kind):
        potential = TernaryPotential.default(kind)
        log_table = potential.log_table()
        free = {
            code for code, cfg in enumerate(CONFIGURATIONS) if cfg not in kind.zero_configurations
        }
        for target, by_state in enumerate(_factor_plan(potential)):
            others = [slot for slot in range(3) if slot != target]
            planned = set()
            for state, live in enumerate(by_state):
                for code, w in live:
                    bits = {target: state, others[0]: code >> 1, others[1]: code & 1}
                    cfg = 4 * bits[0] + 2 * bits[1] + bits[2]
                    assert w == log_table[cfg]
                    planned.add(cfg)
            assert planned == free, target

    @pytest.mark.parametrize("kind", [EQ, PC])
    def test_decode_audit_is_audit_labels(self, kind):
        rng = np.random.default_rng(53)
        potential = TernaryPotential.default(kind)
        broken = 0
        for _ in range(60):
            n = int(rng.integers(4, 8))
            every = list(
                itertools.combinations(range(n), 2) if kind.symmetric
                else itertools.permutations(range(n), 2)
            )
            pairs = [pair for pair in every if rng.random() < 0.7] or every[:1]
            priors = {pair: float(rng.uniform(0.02, 0.98)) for pair in pairs}
            graph = build_factor_graph(_concepts(n), priors, potential, mode="sparse")
            beliefs = Beliefs(rng.normal(size=graph.num_variables), 1, False)
            decoded = lbp_map(graph, beliefs=beliefs)
            expected = audit_labels(decoded.label_map(), kind)[1]
            assert decoded.violations == expected
            assert (joint_log_score(graph, decoded.labels) == LOG_ZERO) is bool(expected)
            broken += bool(expected)
        assert 0 < broken < 60


def _prior_log_odds(graph):
    return graph.unary_log[:, 1] - graph.unary_log[:, 0]


class TestRepair:
    def test_repairs_single_violation(self):
        graph = _graph(CONFLICT_PRIORS, weights=CONFLICT_WEIGHTS)
        labels, flips = greedy_repair(graph, np.array([1, 1, 0]), _prior_log_odds(graph))
        assert violated_cliques(graph, labels) == []
        assert len(flips) >= 1
        assert joint_log_score(graph, labels) != LOG_ZERO

    def test_valid_input_is_untouched(self):
        graph = _graph(CONFLICT_PRIORS, weights=CONFLICT_WEIGHTS)
        labels, flips = greedy_repair(graph, np.array([0, 0, 0]), _prior_log_odds(graph))
        assert labels.tolist() == [0, 0, 0]
        assert flips == []

    def test_demotion_once_every_candidate_was_flipped(self):
        # Four concepts: the greedy flips leave variable 0 in a violated
        # clique after every candidate has had its flip, so it is demoted.
        graph = _graph({pair: 0.5 for pair in itertools.combinations(range(4), 2)})
        labels = np.array([0, 0, 1, 1, 0, 1])
        repaired, flips = greedy_repair(graph, labels, margins=np.arange(1, 7) / 10)
        assert violated_cliques(graph, repaired) == []
        assert flips == [1, 0, 2, 3, 5, 0]
        assert repaired.tolist() == [0, 1, 0, 0, 0, 0]

    def test_dense_random_repairs_terminate_valid(self):
        rng = np.random.default_rng(17)
        for n in (4, 5, 6):
            priors = {
                (i, j): float(rng.uniform(0.05, 0.95))
                for i, j in itertools.combinations(range(n), 2)
            }
            graph = _graph(priors, n=n, mode="dense")
            labels = rng.integers(0, 2, size=graph.num_variables)
            repaired, _ = greedy_repair(graph, labels, _prior_log_odds(graph))
            assert violated_cliques(graph, repaired) == []

    def test_lbp_map_repair_plumbing(self):
        # Force a violated decode by making LBP stop after one round.
        rng = np.random.default_rng(19)
        found = False
        for _ in range(50):
            priors = {
                (i, j): float(rng.uniform(0.05, 0.95))
                for i, j in itertools.combinations(range(5), 2)
            }
            graph = _graph(priors, n=5, mode="dense")
            raw = lbp_map(graph, LbpConfig(max_iterations=1, tolerance=0.0))
            if raw.violations:
                fixed = lbp_map(
                    graph, LbpConfig(max_iterations=1, tolerance=0.0), repair=True
                )
                assert fixed.repaired
                assert fixed.violations == []
                assert fixed.pre_repair["violations"] == len(raw.violations)
                assert fixed.log_score > raw.log_score  # invalid scored LOG_ZERO
                found = True
                break
        assert found, "no violated decode found to exercise repair"


def _random_graph(rng, kind, potential, shape):
    """A small graph: unary-only (disjoint pairs), dense, or a sparse subset."""
    if shape == "unary":
        size = int(rng.integers(1, 4))
        pairs = [(2 * i, 2 * i + 1) for i in range(size)]
        n = 2 * size
    else:
        n = int(rng.integers(3, 6))
        every = list(
            itertools.combinations(range(n), 2) if kind.symmetric
            else itertools.permutations(range(n), 2)
        )
        keep = rng.random(len(every)) < (1.0 if shape == "dense" else 0.6)
        pairs = [pair for pair, kept in zip(every, keep) if kept] or every[:1]
    priors = {pair: float(rng.uniform(0.02, 0.98)) for pair in pairs}
    return build_factor_graph(_concepts(n), priors, potential, mode="sparse")


def _random_potential(rng, kind):
    if rng.random() < 0.5:
        return TernaryPotential.default(kind)
    return TernaryPotential.from_weights(
        kind, (1.0, *(float(rng.uniform(0.05, 1.0)) for _ in range(kind.num_weights - 1)))
    )


def _decode_batch(graphs, config=None, repair=False):
    """``lbp_map`` read-outs of one batched run of message rounds."""
    return [
        lbp_map(graph, repair=repair, beliefs=beliefs)
        for graph, beliefs in zip(graphs, max_product_rounds(graphs, config))
    ]


def _assert_bitwise_equal(batched, alone):
    for field in dataclasses.fields(AssignmentGraph):
        got, want = getattr(batched, field.name), getattr(alone, field.name)
        if isinstance(want, np.ndarray):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), field.name
        else:
            assert got == want, field.name


class TestBatchedDecoding:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_batch_equals_each_graph_alone(self, seed):
        rng = np.random.default_rng(seed)
        kind = (EQ, PC)[int(rng.integers(2))]
        potential = _random_potential(rng, kind)
        # A unary-only graph always sits next to a dense one: an empty run
        # of cliques between full ones is where a naive segment max breaks.
        shapes = ["unary", "dense", *rng.choice(["unary", "dense", "sparse"], size=rng.integers(0, 5))]
        rng.shuffle(shapes)
        graphs = [_random_graph(rng, kind, potential, shape) for shape in shapes]
        config = LbpConfig(
            max_iterations=int(rng.choice([1, 2, 7, 200])),
            damping=float(rng.choice([0.0, 0.5])),
            tolerance=float(rng.choice([0.0, 1e-6, 1e-2])),
        )
        repair = bool(rng.integers(2))
        for batched, graph in zip(_decode_batch(graphs, config, repair), graphs, strict=True):
            _assert_bitwise_equal(batched, lbp_map(graph, config, repair))

    def test_batch_repairs_like_each_graph_alone(self):
        # One round leaves dense graphs violated; repair runs per graph.
        rng = np.random.default_rng(23)
        potential = TernaryPotential.default(EQ)
        graphs = [_random_graph(rng, EQ, potential, shape) for shape in ["dense"] * 12 + ["unary"]]
        config = LbpConfig(max_iterations=1, tolerance=0.0)
        batched = _decode_batch(graphs, config, repair=True)
        assert any(result.pre_repair for result in batched), "no violated decode planted"
        for result, graph in zip(batched, graphs, strict=True):
            _assert_bitwise_equal(result, lbp_map(graph, config, repair=True))
            assert result.violations == []

    def test_graphs_freeze_at_their_own_round(self):
        rng = np.random.default_rng(29)
        potential = TernaryPotential.default(EQ)
        graphs = [_random_graph(rng, EQ, potential, shape) for shape in ("unary", "dense", "sparse")]
        batched = _decode_batch(graphs, LbpConfig())
        assert batched[0].iterations == 2  # unary-only: pinned, then still
        assert len({result.iterations for result in batched}) > 1

    def test_one_shared_potential(self):
        graphs = [
            _graph({(0, 1): 0.9, (0, 2): 0.8, (1, 2): 0.3}),
            _graph({(0, 1): 0.9}),
            _graph({(0, 1): 0.9}, weights=CONFLICT_WEIGHTS),
        ]
        with pytest.raises(ConfigurationError, match="graph 2"):
            _decode_batch(graphs)
        with pytest.raises(ConfigurationError):
            _decode_batch([])


def _round_graph(rng, kind, weights, mode):
    """A graph for the round checks: dense, or a sparse subset of the pairs."""
    if weights == "random":
        weights = (1.0, *(float(rng.uniform(0.05, 1.0)) for _ in range(kind.num_weights - 1)))
    elif weights == "flat":
        weights = (1.0,) * kind.num_weights
    n = 8 if kind.symmetric else 6
    every = list(
        itertools.combinations(range(n), 2) if kind.symmetric
        else itertools.permutations(range(n), 2)
    )
    pairs = every if mode == "dense" else [p for p in every if rng.random() < 0.5]
    priors = {pair: float(rng.uniform(0.02, 0.98)) for pair in pairs}
    return _graph(priors, n=n, kind=kind, weights=weights, mode=mode)


def _assert_rounds_match_reference(graphs, damping, rounds):
    """``jacobi_round`` and the reference round agree bit for bit after each round."""
    store, reference = MessageStore.initial(*graphs), MessageStore.initial(*graphs)
    for index in range(rounds):
        change = jacobi_round(store, damping)
        expected = reference_jacobi_round(reference, damping)
        for got, want in (
            (change, expected),
            (store.var_to_factor, reference.var_to_factor),
            (store.factor_to_var, reference.factor_to_var),
        ):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), f"round {index + 1}"
    return store, change


class TestInPlaceRound:
    @pytest.mark.parametrize("kind", [EQ, PC])
    @pytest.mark.parametrize("weights", [None, "flat", "random"])
    @pytest.mark.parametrize("damping", [0.0, 0.5, 0.85])
    @pytest.mark.parametrize("mode", ["dense", "sparse"])
    def test_round_bitwise_equals_reference(self, kind, weights, damping, mode):
        rng = np.random.default_rng(41)
        graph = _round_graph(rng, kind, weights, mode)
        assert graph.num_ternary_factors > 0
        _assert_rounds_match_reference([graph], damping, rounds=12)

    @pytest.mark.parametrize("kind", [EQ, PC])
    @pytest.mark.parametrize("damping", [0.0, 0.5, 0.85])
    def test_batch_with_a_cliqueless_graph(self, kind, damping):
        # Graphs without cliques leave empty ternary runs, first, inside
        # and last in the store; each graph's delta is still its own max.
        rng = np.random.default_rng(43)
        potential = _random_potential(rng, kind)
        shapes = ["unary", "dense", "unary", "dense", "unary"]
        graphs = [_random_graph(rng, kind, potential, shape) for shape in shapes]
        assert [g.num_ternary_factors == 0 for g in graphs] == [True, False, True, False, True]
        store, change = _assert_rounds_match_reference(graphs, damping, rounds=6)
        m = store.num_variables
        unary_start = np.cumsum([0, *(g.num_variables for g in graphs)])
        ternary_start = m + 3 * np.cumsum([0, *(g.num_ternary_factors for g in graphs)])
        expected = [
            max(
                change[unary_start[i]:unary_start[i + 1]].max(),
                change[ternary_start[i]:ternary_start[i + 1]].max(initial=0.0),
            )
            for i in range(len(graphs))
        ]
        assert store.graph_deltas(change).tolist() == expected

    def test_take_keeps_each_graphs_runs(self):
        rng = np.random.default_rng(47)
        potential = TernaryPotential.default(EQ)
        graphs = [_random_graph(rng, EQ, potential, s) for s in ("dense", "unary", "sparse", "unary")]
        store = MessageStore.initial(*graphs)
        for _ in range(3):
            jacobi_round(store, 0.5)
        kept = np.array([False, True, True, False])
        taken = store.take(kept)
        alone = MessageStore.initial(*(g for g, k in zip(graphs, kept) if k))
        for name in ("edge_var", "unary_message", "variables", "factors", "runs", "ternary_run"):
            np.testing.assert_array_equal(getattr(taken, name), getattr(alone, name), err_msg=name)
        change = jacobi_round(taken, 0.5)
        assert taken.graph_deltas(change).shape == (2,)

    def test_refuses_a_graph_without_variables(self):
        graph = _graph({(0, 1): 0.9})
        empty = dataclasses.replace(graph, pairs=(), unary_log=graph.unary_log[:0])
        with pytest.raises(ConfigurationError, match="graph 1 has no variables"):
            max_product_rounds([graph, empty])


class TestExactOracle:
    def test_matches_explicit_enumeration(self):
        rng = np.random.default_rng(23)
        priors = {
            (i, j): float(rng.uniform(0.05, 0.95))
            for i, j in itertools.combinations(range(4), 2)
        }
        graph = _graph(priors, n=4, mode="dense")
        best_score = -math.inf
        best = None
        for bits in itertools.product((0, 1), repeat=graph.num_variables):
            score = joint_log_score(graph, list(bits))
            if score > best_score:
                best_score, best = score, bits
        oracle = exact_map_oracle(graph)
        assert oracle.labels.tolist() == list(best)
        assert oracle.log_score == pytest.approx(best_score, rel=1e-12)
        assert oracle.violations == []

    def test_tie_picks_lexicographically_smallest(self):
        graph = _graph({(0, 1): 0.5, (2, 3): 0.5})
        oracle = exact_map_oracle(graph)
        assert oracle.labels.tolist() == [0, 0]

    def test_refuses_large_graphs(self):
        graph = _graph({}, n=8, mode="dense")  # 28 variables
        with pytest.raises(ConfigurationError):
            exact_map_oracle(graph)

    def test_parent_child_oracle_respects_chain_rule(self):
        priors = {(0, 1): 0.9, (1, 2): 0.9, (0, 2): 0.15}
        graph = _graph(priors, n=3, kind=PC)
        oracle = exact_map_oracle(graph)
        labels = oracle.label_map()
        # i->j and j->k force i->k at these confidence levels.
        assert labels[(0, 1)] == 1 and labels[(1, 2)] == 1
        assert labels[(0, 2)] == 1
        assert oracle.violations == []
