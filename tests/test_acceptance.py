"""Acceptance gate: one test per shipping criterion, with timing budgets.

Each test wraps its assertions in ``verdict`` so the run ends with an
explicit PASS/FAIL line per criterion (see conftest.py).  Numbers quoted in
comments were measured on the reference container; the asserted budgets
leave generous headroom over them.
"""

import dataclasses
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

import conftest
from concord import (
    Concept,
    FeatureVector,
    LbpConfig,
    LinearPriorModel,
    PartitionConfig,
    RelationshipKind,
    SearchSpace,
    TernaryPotential,
    build_factor_graph,
    build_partitions,
    count_graph_stats,
    exact_map_oracle,
    extract_features,
    generate_synthetic,
    infer_partitions_parallel,
    joint_log_score,
    lbp_map,
    predict_prior,
    prf1,
    prior_flips,
    tune,
    violated_cliques,
)

EQ = RelationshipKind.EQUIVALENCE


@contextmanager
def verdict(number: int, label: str):
    status = "FAIL"
    try:
        yield
        status = "PASS"
    finally:
        line = f"[acceptance] criterion {number}: {status} ({label})"
        conftest.ACCEPTANCE_LINES.append(line)
        print(line)


def _concepts(n: int) -> list[Concept]:
    return [Concept(i, f"concept {i}") for i in range(n)]


def _random_dense(n: int, rng: np.random.Generator, potential=None):
    priors = {
        (i, j): float(rng.uniform(0.05, 0.95))
        for i in range(n) for j in range(i + 1, n)
    }
    return build_factor_graph(
        _concepts(n), priors, potential or TernaryPotential.default(EQ), mode="dense"
    )


def _random_potential(rng: np.random.Generator) -> TernaryPotential:
    weights = (1.0,) + tuple(float(rng.uniform(0.05, 1.0)) for _ in range(4))
    return TernaryPotential.from_weights(EQ, weights)


def test_criterion_1_structure_counts():
    with verdict(1, "dense graph structure matches closed forms"):
        start = time.perf_counter()
        assert count_graph_stats(1000) == (499500, 166167000, 499000500)
        assert count_graph_stats(46) == (1035, 15180, 46575)

        graph = _random_dense(4, np.random.default_rng(0))
        assert graph.num_variables == 6
        assert graph.num_ternary_factors == 4
        assert graph.num_factors == 10
        assert graph.degrees().tolist() == [3] * 6
        assert count_graph_stats(4) == (
            graph.num_variables, graph.num_ternary_factors, graph.num_edges,
        )
        assert time.perf_counter() - start < 1.0


def test_criterion_2_agreement_with_exact_oracle():
    with verdict(2, "LBP matches the exact oracle on small dense graphs"):
        start = time.perf_counter()
        rng = np.random.default_rng(2024)
        config = LbpConfig(max_iterations=200, damping=0.5)

        for n, required in ((3, 90), (4, 90), (5, 90)):
            matches = 0
            for _ in range(100):
                graph = _random_dense(n, rng)
                oracle = exact_map_oracle(graph)
                decoded = lbp_map(graph, config)
                # approximate decode can never beat the exhaustive maximum
                assert decoded.log_score <= oracle.log_score + 1e-9
                if (
                    decoded.labels.tolist() == oracle.labels.tolist()
                    or decoded.log_score >= oracle.log_score - 1e-9
                ):
                    matches += 1
            assert matches >= required, f"n={n}: {matches}/100 oracle matches"

        # A single clique plus unaries is a tree, so max-product is exact
        # there no matter how lopsided the weights get.
        for _ in range(500):
            graph = _random_dense(3, rng, potential=_random_potential(rng))
            oracle = exact_map_oracle(graph)
            decoded = lbp_map(graph, config)
            assert (
                decoded.labels.tolist() == oracle.labels.tolist()
                or decoded.log_score >= oracle.log_score - 1e-9
            )
        assert time.perf_counter() - start < 120.0


def test_criterion_3_conflict_resolution():
    with verdict(3, "conflicting priors resolve to the consistent optimum"):
        start = time.perf_counter()
        priors = {(0, 1): 0.6, (0, 2): 0.6, (1, 2): 0.1}
        potential = TernaryPotential.from_weights(EQ, (1.0, 0.3, 0.3, 0.3, 0.9))
        graph = build_factor_graph(_concepts(3), priors, potential, mode="dense")

        oracle = exact_map_oracle(graph)
        assert oracle.labels.tolist() == [0, 0, 0]
        assert oracle.log_score == pytest.approx(math.log(0.144), rel=1e-12)

        runs = [lbp_map(graph, LbpConfig()) for _ in range(2)]
        for decoded in runs:
            assert decoded.labels.tolist() == oracle.labels.tolist()
            assert decoded.converged
            assert not decoded.violations
            assert decoded.log_score == pytest.approx(oracle.log_score, rel=1e-12)
            # both supported pairs get demoted rather than the third promoted
            assert prior_flips(graph, decoded.labels) == [0, 1]
        assert runs[0].margins.tolist() == runs[1].margins.tolist()
        assert time.perf_counter() - start < 1.0


def _tuned_uplift(seed: int) -> tuple[float, float]:
    data = generate_synthetic(
        EQ, 60, n_clusters=12, prior_noise=0.15, seed=seed, pair_mode="sparse"
    )

    def build(potential):
        return build_factor_graph(data.concepts, data.priors, potential, mode="sparse")

    space = SearchSpace.default(EQ)
    best, _ = tune(
        space, build, data.split_gold("validation"),
        budget=60, seed=seed, initial=space.default_config(),
    )
    graph = build(best.config.potential())
    decoded = lbp_map(graph, LbpConfig(
        max_iterations=best.config.max_iterations, damping=best.config.damping,
    ))
    labels = decoded.label_map()

    test_gold = data.split_gold("test")
    prior_hat = data.prior_argmax()
    base = prf1({pair: prior_hat[pair] for pair in test_gold}, test_gold).f1
    post = prf1({pair: labels[pair] for pair in test_gold}, test_gold).f1
    return base, post


def test_criterion_4_tuning_uplift():
    with verdict(4, "tuned collective inference beats thresholded priors"):
        start = time.perf_counter()
        scores = [_tuned_uplift(seed) for seed in range(10)]
        uplift = [100.0 * (post - base) for base, post in scores]
        mean_uplift = float(np.mean(uplift))
        # measured +9.9 F1 points (0.81 -> 0.91) on the reference container
        assert mean_uplift >= 5.0, f"mean uplift {mean_uplift:.2f} points"
        assert time.perf_counter() - start < 600.0


def test_criterion_5_consistency_and_repair():
    with verdict(5, "exact optima are consistent; repair removes violations"):
        rng = np.random.default_rng(55)

        for n in (3, 4, 5):
            for _ in range(40):
                graph = _random_dense(n, rng)
                oracle = exact_map_oracle(graph)
                assert violated_cliques(graph, oracle.labels) == []

        # Starved decodes (one round) track the raw priors, which random
        # instances make inconsistent often enough to exercise the repair.
        repaired_count = 0
        for _ in range(60):
            graph = _random_dense(5, rng)
            decoded = lbp_map(graph, LbpConfig(max_iterations=1), repair=True)
            assert not decoded.violations
            assert violated_cliques(graph, decoded.labels) == []
            if decoded.repaired:
                repaired_count += 1
                assert decoded.pre_repair["violations"] > 0
                assert decoded.log_score >= decoded.pre_repair["log_score"]
                assert decoded.log_score == pytest.approx(
                    joint_log_score(graph, decoded.labels)
                )
        assert repaired_count >= 20, f"only {repaired_count}/60 runs needed repair"


def test_criterion_6_dense_scale():
    with verdict(6, "dense n=56 runs a full 200-iteration budget in time"):
        start = time.perf_counter()
        graph = _random_dense(56, np.random.default_rng(6))
        assert graph.num_variables == 1540
        assert graph.num_ternary_factors == 27720

        decoded = lbp_map(graph, LbpConfig(max_iterations=200, tolerance=0.0))
        elapsed = time.perf_counter() - start
        assert decoded.iterations == 200
        assert not decoded.converged
        assert np.isfinite(decoded.log_score)
        # measured ~8 s on the reference container
        assert elapsed < 120.0, f"dense n=56 took {elapsed:.1f} s"


def test_criterion_6_partitioned_scale():
    with verdict(6, "2000-concept partitioned run, worker-count invariant"):
        start = time.perf_counter()
        data = generate_synthetic(
            EQ, 2000, n_clusters=400, prior_noise=0.1, seed=11,
            pair_mode="sparse", pairs_per_concept=10,
        )
        partitions = build_partitions(
            data.concepts, list(data.priors), data.priors,
            TernaryPotential.default(EQ), PartitionConfig(k=8),
        )
        config = LbpConfig()
        serial = infer_partitions_parallel(partitions, config, workers=1)
        parallel = infer_partitions_parallel(partitions, config, workers=8)
        elapsed = time.perf_counter() - start

        assert serial.pairs == parallel.pairs
        assert serial.labels.tolist() == parallel.labels.tolist()
        assert serial.margins.tolist() == parallel.margins.tolist()
        assert serial.log_score == parallel.log_score
        assert set(serial.label_map()) == set(data.priors)
        # measured ~31 s on the reference container
        assert elapsed < 300.0, f"partitioned run took {elapsed:.1f} s"


def test_criterion_7_invariance_properties():
    with verdict(7, "six invariance properties, 200+ cases each"):
        start = time.perf_counter()
        rng = np.random.default_rng(7)

        # 1. Scaling the potential shifts the score by t*ln(c) and leaves
        #    the decoded labels untouched.
        for case in range(200):
            factor = 10.0 if case % 2 else 0.1
            potential = _random_potential(rng)
            graph = _random_dense(3, rng, potential=potential)
            scaled = dataclasses.replace(graph, potential=potential.scaled(factor))
            base = lbp_map(graph, LbpConfig())
            shifted = lbp_map(scaled, LbpConfig())
            assert base.labels.tolist() == shifted.labels.tolist()
            assert shifted.log_score == pytest.approx(
                base.log_score + math.log(factor), abs=1e-9
            )

        # 2. Temperature rescales confidence but never the decision.
        for _ in range(200):
            model = LinearPriorModel(
                weights=tuple(rng.normal(0, 2, size=7)), bias=float(rng.normal()),
            )
            features = FeatureVector(*rng.uniform(0, 1, size=7))
            votes = {
                predict_prior(model.with_temperature(t), features).argmax
                for t in (0.25, 0.5, 1.0, 2.0, 4.0)
            }
            assert len(votes) == 1

        # 3 + 4. Partition coverage/exclusivity and worker invariance on a
        #    dataset with well over 200 pairs and 200 anchors.
        data = generate_synthetic(
            EQ, 240, n_clusters=48, prior_noise=0.1, seed=77,
            pair_mode="sparse", pairs_per_concept=4,
        )
        partitions = build_partitions(
            data.concepts, list(data.priors), data.priors,
            TernaryPotential.default(EQ), PartitionConfig(k=4),
        )
        assert len(partitions) >= 200
        owned = [pair for part in partitions for pair in part.test_pairs]
        assert len(owned) == len(set(owned)) == len(data.priors)
        assert set(owned) == set(data.priors)

        serial = infer_partitions_parallel(partitions, workers=1)
        threaded = infer_partitions_parallel(partitions, workers=2)
        assert serial.labels.tolist() == threaded.labels.tolist()
        assert serial.margins.tolist() == threaded.margins.tolist()
        assert serial.log_score == threaded.log_score

        # 5. Search-space sampling and perturbation are seed-deterministic.
        space = SearchSpace.default(EQ)
        rng_a, rng_b = (np.random.default_rng(9), np.random.default_rng(9))
        config_a, config_b = space.default_config(), space.default_config()
        for case in range(200):
            if case % 2:
                config_a = space.perturb(rng_a, config_a)
                config_b = space.perturb(rng_b, config_b)
            else:
                config_a, config_b = space.sample(rng_a), space.sample(rng_b)
            assert config_a == config_b

        # 6. Features are orientation-blind, so symmetric priors are too.
        names = [
            "".join(rng.choice(list("abcdef _"), size=rng.integers(3, 14)))
            for _ in range(40)
        ]
        checked = 0
        for i, left in enumerate(names):
            for right in names[i + 1:]:
                if not left.strip() or not right.strip():
                    continue
                a = Concept(0, left, values=("x", "y"))
                b = Concept(1, right, values=("y", "z"))
                assert extract_features(a, b) == extract_features(b, a)
                checked += 1
        assert checked >= 200
        assert time.perf_counter() - start < 180.0
