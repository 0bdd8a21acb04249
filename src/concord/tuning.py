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
from typing import Callable, Mapping

import numpy as np

from .errors import ConfigurationError
from .evaluation import prf1
from .graph import FactorGraph
from .inference import LbpConfig, lbp_map
from .model import DEFAULT_WEIGHTS, RelationshipKind, TernaryPotential

GraphBuilder = Callable[[TernaryPotential], FactorGraph]

# The fixed box that every ``SearchSpace`` draws from.
ANCHOR_WEIGHT = 1.0
WEIGHT_RANGE = (0.05, 1.0)
DAMPING_RANGE = (0.0, 0.9)
ROUND_CAPS = (50, 100, 200)


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


def _step(rng: np.random.Generator, value: float, bounds: tuple[float, float]) -> float:
    """One Gaussian step from ``value``, sigma at 10% of the range, clipped into it."""
    low, high = bounds
    return float(np.clip(value + rng.normal(0.0, 0.1 * (high - low)), low, high))


@dataclass(frozen=True)
class SearchSpace:
    """The fixed box that ``tune`` searches for one relationship kind.

    The all-zero configuration's weight is pinned at ``ANCHOR_WEIGHT``, since
    decoding is invariant to the table's overall scale; every other weight
    lies in ``WEIGHT_RANGE``, damping in ``DAMPING_RANGE``, and the round cap
    is one of ``ROUND_CAPS``.
    """

    kind: RelationshipKind

    def __post_init__(self) -> None:
        if not isinstance(self.kind, RelationshipKind):
            raise ConfigurationError(f"search space kind {self.kind!r} is not a RelationshipKind")

    @classmethod
    def default(cls, kind: RelationshipKind) -> "SearchSpace":
        return cls(kind)

    def default_config(self) -> TrialConfig:
        return TrialConfig(
            self.kind, DEFAULT_WEIGHTS[self.kind], LbpConfig.damping, LbpConfig.max_iterations
        )

    def sample(self, rng: np.random.Generator) -> TrialConfig:
        free = [float(rng.uniform(*WEIGHT_RANGE)) for _ in range(self.kind.num_weights - 1)]
        damping = float(rng.uniform(*DAMPING_RANGE))
        cap = ROUND_CAPS[rng.integers(0, len(ROUND_CAPS))]
        return TrialConfig(self.kind, (ANCHOR_WEIGHT, *free), damping, cap)

    def perturb(self, rng: np.random.Generator, base: TrialConfig) -> TrialConfig:
        free = [_step(rng, w, WEIGHT_RANGE) for w in base.weights[1:]]
        damping = _step(rng, base.damping, DAMPING_RANGE)
        last = len(ROUND_CAPS) - 1
        index = ROUND_CAPS.index(base.max_iterations) if base.max_iterations in ROUND_CAPS else last
        index = int(np.clip(index + rng.integers(-1, 2), 0, last))
        return TrialConfig(self.kind, (ANCHOR_WEIGHT, *free), damping, ROUND_CAPS[index])


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
    if initial is not None and initial.kind is not space.kind:
        raise ConfigurationError(
            f"initial configuration is for {initial.kind.value}, the space for {space.kind.value}"
        )
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
