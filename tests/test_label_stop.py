"""The label-stable stop of the message rounds, and the round it reports."""

import dataclasses
import itertools
import json

import numpy as np
import pytest

from concord.cli import main
from concord.graph import build_factor_graph
from concord.inference import (
    STABLE_ROUNDS,
    LbpConfig,
    MessageStore,
    _beliefs,
    jacobi_round,
    lbp_map,
    max_product_rounds,
)
from concord.model import AssignmentGraph, Concept, RelationshipKind, TernaryPotential
from concord.partition import PartitionConfig, build_partitions, infer_partitions_parallel

EQ = RelationshipKind.EQUIVALENCE
PC = RelationshipKind.PARENT_CHILD

# Under a flat table the message delta of a cyclic graph plateaus well above
# the tolerance, so these graphs stop on their labels unless a cap comes first.
FLAT = TernaryPotential.from_weights(EQ, (1.0,) * EQ.num_weights)


def _priors(seed, n, kind=EQ, keep=1.0):
    """Seeded priors over n concepts: each pair kept with probability ``keep``."""
    rng = np.random.default_rng(seed)
    every = (
        itertools.combinations(range(n), 2) if kind.symmetric
        else itertools.permutations(range(n), 2)
    )
    pairs = [pair for pair in every if rng.random() < keep] or [(0, 1)]
    return {pair: float(rng.uniform(0.02, 0.98)) for pair in pairs}


def _graph(seed, n, potential=FLAT, keep=1.0):
    concepts = [Concept(i, f"concept {i}") for i in range(n)]
    priors = _priors(seed, n, potential.kind, keep)
    return build_factor_graph(concepts, priors, potential, mode="sparse")


def _unary_graph():
    """Disjoint pairs and no clique: pinned after one round, still after two."""
    priors = {(0, 1): 0.9, (2, 3): 0.2, (4, 5): 0.7}
    concepts = [Concept(i, f"concept {i}") for i in range(6)]
    return build_factor_graph(concepts, priors, FLAT, mode="sparse")


def reference_rounds(graph, config):
    """The stopping rule written out for one graph.

    Each round is ``jacobi_round`` computing its own beliefs, and the labels
    are read from a fresh ``bincount`` after it.  Returns the beliefs, the
    round count, whether an early stop fired and the last label change.
    """
    store = MessageStore.initial(graph)
    labels = _beliefs(store) > 0
    last_change = 1
    for iteration in range(1, config.max_iterations + 1):
        delta = jacobi_round(store, config.damping, _beliefs(store)).max()
        beliefs = _beliefs(store)
        if not np.array_equal(beliefs > 0, labels):
            last_change = iteration
        labels = beliefs > 0
        if config.tolerance > 0 and (
            delta < config.tolerance or iteration - last_change >= STABLE_ROUNDS
        ):
            return beliefs, iteration, True, last_change
    return beliefs, config.max_iterations, False, last_change


def _assert_bitwise_equal(got, want):
    for field in dataclasses.fields(AssignmentGraph):
        a, b = getattr(got, field.name), getattr(want, field.name)
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), field.name
        else:
            assert a == b, field.name


def _assert_matches_reference(beliefs, graph, config):
    values, iterations, converged, last_change = reference_rounds(graph, config)
    assert beliefs.values.tobytes() == values.tobytes()
    assert (beliefs.iterations, beliefs.converged, beliefs.last_label_change) == (
        iterations, converged, last_change,
    )


class TestLabelStop:
    def test_stops_thirty_rounds_after_the_last_label_change(self):
        graph = _graph(0, 6)
        config = LbpConfig()
        decoded = lbp_map(graph, config)
        assert decoded.converged
        assert decoded.iterations == decoded.last_label_change + STABLE_ROUNDS
        assert decoded.iterations < config.max_iterations
        # Replay the rounds: the delta never fell below the tolerance, and
        # the labels held from the last change to the stop.
        store = MessageStore.initial(graph)
        for iteration in range(1, decoded.iterations + 1):
            assert jacobi_round(store, config.damping, _beliefs(store)).max() >= config.tolerance
            labels = (_beliefs(store) > 0).astype(np.int64)
            if iteration == decoded.last_label_change - 1:
                assert labels.tolist() != decoded.labels.tolist()
            if iteration >= decoded.last_label_change:
                assert labels.tolist() == decoded.labels.tolist()
        # The returned beliefs are those after the stop round, bit for bit.
        capped = lbp_map(graph, LbpConfig(max_iterations=decoded.iterations, tolerance=0.0))
        assert capped.margins.tobytes() == decoded.margins.tobytes()
        assert not capped.converged

    def test_tolerance_zero_runs_the_cap_when_labels_hold_from_round_one(self):
        graph = _graph(7, 5)
        early = lbp_map(graph, LbpConfig())
        assert early.last_label_change == 1
        assert (early.iterations, early.converged) == (1 + STABLE_ROUNDS, True)
        full = lbp_map(graph, LbpConfig(tolerance=0.0))
        assert (full.iterations, full.converged, full.last_label_change) == (200, False, 1)
        assert full.labels.tolist() == early.labels.tolist()

    def test_batch_mixes_delta_label_and_capped_graphs(self):
        config = LbpConfig(max_iterations=50)
        graphs = [_graph(12, 5), _unary_graph(), _graph(7, 5), _graph(27, 5), _graph(0, 6)]
        batched = max_product_rounds(graphs, config)
        stops = []
        for graph, beliefs in zip(graphs, batched, strict=True):
            _assert_matches_reference(beliefs, graph, config)
            _assert_bitwise_equal(lbp_map(graph, beliefs=beliefs), lbp_map(graph, config))
            if not beliefs.converged:
                stops.append("cap")
            elif beliefs.iterations == beliefs.last_label_change + STABLE_ROUNDS:
                stops.append("labels")
            else:
                stops.append("delta")
        assert stops == ["delta", "delta", "labels", "cap", "labels"]
        assert batched[3].iterations == config.max_iterations

    @pytest.mark.parametrize("seed", range(40))
    def test_decode_matches_the_written_out_rule(self, seed):
        rng = np.random.default_rng(seed)
        kind = (EQ, PC)[seed % 2]
        weights = (1.0,) * kind.num_weights if rng.random() < 0.5 else (
            1.0, *(float(rng.uniform(0.05, 1.0)) for _ in range(kind.num_weights - 1))
        )
        potential = TernaryPotential.from_weights(kind, weights)
        graph = _graph(seed, int(rng.integers(3, 7)), potential, keep=float(rng.uniform(0.4, 1.0)))
        config = LbpConfig(
            max_iterations=int(rng.choice([7, 45, 200])),
            damping=float(rng.choice([0.0, 0.5])),
            tolerance=float(rng.choice([0.0, 1e-6, 1e-6, 1e-2])),
        )
        _assert_matches_reference(max_product_rounds([graph], config)[0], graph, config)


class TestLastLabelChangeReported:
    def test_partitioned_run_reports_the_latest_partition(self):
        rng = np.random.default_rng(3)
        n = 14
        pairs = [pair for pair in itertools.combinations(range(n), 2) if rng.random() < 0.5]
        priors = {pair: float(rng.uniform(0.02, 0.98)) for pair in pairs}
        concepts = [Concept(i, f"concept {i}") for i in range(n)]
        partitions = build_partitions(concepts, pairs, priors, FLAT, PartitionConfig(k=4))
        merged = infer_partitions_parallel(partitions, LbpConfig())
        changes = [s["last_label_change"] for s in merged.partition_summaries]
        assert merged.last_label_change == max(changes)
        for part, change in zip(partitions, changes, strict=True):
            assert change == lbp_map(part.graph, LbpConfig()).last_label_change

    def test_infer_summary_reports_it(self, tmp_path, capsys):
        concepts = tmp_path / "concepts.csv"
        priors = tmp_path / "priors.csv"
        concepts.write_text("id,name,values\n" + "".join(f"{i},concept {i},\n" for i in range(5)))
        priors.write_text("left_id,right_id,p_one\n" + "".join(
            f"{i},{j},{p!r}\n" for (i, j), p in _priors(27, 5).items()
        ))
        code = main([
            "infer", "--concepts", str(concepts), "--priors", str(priors),
            "--weights", ",".join(["1.0"] * EQ.num_weights),
        ])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)["summary"]
        expected = lbp_map(_graph(27, 5), LbpConfig())
        assert summary["last_label_change"] == expected.last_label_change
        assert summary["iterations"] == expected.iterations
