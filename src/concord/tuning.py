"""Seeded random search over potential weights and LBP knobs.

The first half of the budget explores the space uniformly; the second half
exploits by Gaussian perturbation around the incumbent with sigma at 10% of
each range.  Objective is positive-class F1 on held-out gold labels.  The
incumbent only ever improves, and an optional initial configuration is
evaluated as trial 0 so tuned performance never regresses below it.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import ConfigurationError
from .evaluation import prf1
from .graph import FactorGraph
from .inference import LbpConfig, lbp_map
from .model import DEFAULT_WEIGHTS, RelationshipKind, TernaryPotential

GraphBuilder = Callable[[TernaryPotential], FactorGraph]


@dataclass(frozen=True)
class TrialConfig:
    kind: RelationshipKind
    weights: tuple[float, ...]
    damping: float
    max_iterations: int

    def potential(self) -> TernaryPotential:
        return TernaryPotential.from_weights(self.kind, self.weights)

    def to_dict(self) -> dict:
        return {
            "relationship": self.kind.value,
            "weights": list(self.weights),
            "damping": self.damping,
            "max_iterations": self.max_iterations,
        }


@dataclass(frozen=True)
class SearchSpace:
    """Box constraints for the tunable knobs.

    weight_ranges has one (low, high) interval per free table configuration;
    a degenerate interval (low == high) pins that weight.  By default the
    all-zero configuration's weight is pinned at 1.0 since decoding is
    invariant to the table's overall scale.
    """

    kind: RelationshipKind
    weight_ranges: tuple[tuple[float, float], ...]
    damping_range: tuple[float, float] = (0.0, 0.9)
    iteration_choices: tuple[int, ...] = (50, 100, 200)

    def __post_init__(self) -> None:
        if len(self.weight_ranges) != self.kind.num_weights:
            raise ConfigurationError(
                f"{self.kind.value} needs {self.kind.num_weights} weight ranges"
            )
        for low, high in self.weight_ranges:
            if not (0.0 < low <= high <= 1.0):
                raise ConfigurationError(
                    f"weight range ({low}, {high}) must satisfy 0 < low <= high <= 1"
                )
        low, high = self.damping_range
        if not (0.0 <= low <= high < 1.0):
            raise ConfigurationError("damping range must lie within [0, 1)")
        if not self.iteration_choices or any(c < 1 for c in self.iteration_choices):
            raise ConfigurationError("iteration choices must be positive")

    @classmethod
    def default(cls, kind: RelationshipKind) -> "SearchSpace":
        ranges = [(1.0, 1.0)] + [(0.05, 1.0)] * (kind.num_weights - 1)
        return cls(kind=kind, weight_ranges=tuple(ranges))

    def default_config(self) -> TrialConfig:
        weights = tuple(
            min(max(w, low), high)
            for w, (low, high) in zip(DEFAULT_WEIGHTS[self.kind], self.weight_ranges)
        )
        return TrialConfig(self.kind, weights, LbpConfig.damping, LbpConfig.max_iterations)

    def sample(self, rng: np.random.Generator) -> TrialConfig:
        weights = tuple(
            low if low == high else float(rng.uniform(low, high))
            for low, high in self.weight_ranges
        )
        dlow, dhigh = self.damping_range
        damping = dlow if dlow == dhigh else float(rng.uniform(dlow, dhigh))
        iters = int(self.iteration_choices[rng.integers(0, len(self.iteration_choices))])
        return TrialConfig(self.kind, weights, damping, iters)

    def perturb(self, rng: np.random.Generator, base: TrialConfig) -> TrialConfig:
        weights = []
        for value, (low, high) in zip(base.weights, self.weight_ranges):
            if low == high:
                weights.append(low)
            else:
                sigma = 0.1 * (high - low)
                weights.append(float(np.clip(value + rng.normal(0.0, sigma), low, high)))
        dlow, dhigh = self.damping_range
        if dlow == dhigh:
            damping = dlow
        else:
            damping = float(np.clip(base.damping + rng.normal(0.0, 0.1 * (dhigh - dlow)), dlow, dhigh))
        if base.max_iterations in self.iteration_choices:
            index = self.iteration_choices.index(base.max_iterations)
        else:
            index = len(self.iteration_choices) - 1
        index = int(np.clip(index + rng.integers(-1, 2), 0, len(self.iteration_choices) - 1))
        return TrialConfig(self.kind, tuple(weights), damping, int(self.iteration_choices[index]))


@dataclass(frozen=True)
class TrialRecord:
    index: int
    config: TrialConfig
    objective: float
    wall_time: float

    def to_dict(self) -> dict:
        return {
            "trial": self.index,
            "config": self.config.to_dict(),
            "f1": self.objective,
            "seconds": self.wall_time,
        }


def evaluate_config(
    config: TrialConfig,
    graph: FactorGraph,
    gold: Mapping[tuple[int, int], int],
    tolerance: float = LbpConfig.tolerance,
) -> float:
    """Decode ``graph`` under this configuration's potential and score F1.

    Every gold pair must be a pair of ``graph``; ``tune`` checks this once.
    """
    lbp = LbpConfig(
        max_iterations=config.max_iterations,
        damping=config.damping,
        tolerance=tolerance,
    )
    assignment = lbp_map(replace(graph, potential=config.potential()), lbp)
    predicted_all = assignment.label_map()
    predicted = {pair: predicted_all[pair] for pair in gold}
    return prf1(predicted, gold).f1


def tune(
    space: SearchSpace,
    build: GraphBuilder,
    gold: Mapping[tuple[int, int], int],
    budget: int,
    seed: int = 0,
    initial: TrialConfig | None = None,
    tolerance: float = LbpConfig.tolerance,
) -> tuple[TrialRecord, list[TrialRecord]]:
    """Run ``budget`` trials and return (best record, full history).

    ``build`` is called once, with trial 0's potential; every trial decodes
    that graph under its own potential.  Ties keep the earliest trial, so
    seeding trial 0 with a known-good configuration guarantees the result
    is never worse than it.
    """
    if budget < 1:
        raise ConfigurationError("budget must be at least 1")
    if not gold:
        raise ConfigurationError("gold label map is empty")
    if not any(v == 1 for v in gold.values()):
        raise ConfigurationError("gold labels contain no positive pair")
    rng = np.random.default_rng(seed)
    explore_trials = math.ceil(budget / 2)
    first = initial if initial is not None else space.sample(rng)
    graph = build(first.potential())
    present = set(graph.pairs)
    missing = [pair for pair in gold if pair not in present]
    if missing:
        raise ConfigurationError(
            f"{len(missing)} gold pairs missing from the built graph, first: {missing[0]}"
        )
    history: list[TrialRecord] = []
    best: TrialRecord | None = None
    for index in range(budget):
        if index == 0:
            config = first
        elif index < explore_trials:
            config = space.sample(rng)
        else:
            config = space.perturb(rng, best.config)
        started = time.perf_counter()
        objective = evaluate_config(config, graph, gold, tolerance)
        record = TrialRecord(index, config, objective, time.perf_counter() - started)
        history.append(record)
        if best is None or record.objective > best.objective:
            best = record
    return best, history
