"""Domain types for relationship assignment over metadata concepts.

A vocabulary is a dense list of concepts indexed 0..n-1.  Each candidate
concept pair carries a binary relationship variable with a prior belief.
Concept triples carry a shared ternary potential whose zero entries forbid
label configurations that would break transitivity.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, fields
from functools import cached_property
from enum import Enum
from typing import Sequence

import numpy as np

from .errors import ConfigurationError

# Finite stand-in for log(0): the log-potential of a forbidden configuration
# in ``log_table()`` and the score of a labelling that breaks a clique.  Which
# configurations are forbidden is read from ``RelationshipKind.forbidden``,
# never from this value.  Messages never carry it.
LOG_ZERO = -1e30

# Priors are clamped into [PRIOR_EPSILON, 1 - PRIOR_EPSILON] before logs.
PRIOR_EPSILON = 1e-6

# The eight label configurations (x_ij, x_jk, x_ik) of a ternary clique,
# ordered so that configuration (a, b, c) sits at table index 4a + 2b + c.
CONFIGURATIONS: tuple[tuple[int, int, int], ...] = tuple(
    (a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)
)


def configuration_index(a: int, b: int, c: int) -> int:
    return 4 * a + 2 * b + c


class RelationshipKind(Enum):
    """Relationship semantics attached to a whole graph."""

    EQUIVALENCE = "equivalence"
    PARENT_CHILD = "parent-child"

    @property
    def symmetric(self) -> bool:
        return self is RelationshipKind.EQUIVALENCE

    @property
    def zero_configurations(self) -> frozenset[tuple[int, int, int]]:
        # Equivalence forbids any triple with exactly two positive labels;
        # parent-child only forbids a broken transitive chain
        # (i->j and j->k without i->k).
        if self is RelationshipKind.EQUIVALENCE:
            return frozenset({(0, 1, 1), (1, 0, 1), (1, 1, 0)})
        return frozenset({(1, 1, 0)})

    @property
    def forbidden(self) -> np.ndarray:
        """Read-only (8,) bool table, True at the code 4a + 2b + c of each
        forbidden configuration (a, b, c); every transitivity check reads it."""
        return _FORBIDDEN[self]

    @property
    def free_configurations(self) -> tuple[tuple[int, int, int], ...]:
        return tuple(
            cfg for cfg, zero in zip(CONFIGURATIONS, self.forbidden.tolist()) if not zero
        )

    @property
    def num_weights(self) -> int:
        return len(self.free_configurations)


# Derived once, at import, from the readable zero_configurations; an array
# over immutable bytes is read-only.
_FORBIDDEN: dict[RelationshipKind, np.ndarray] = {
    kind: np.frombuffer(bytes(cfg in kind.zero_configurations for cfg in CONFIGURATIONS), bool)
    for kind in RelationshipKind
}


def canonical_pair(left: int, right: int, kind: RelationshipKind) -> tuple[int, int]:
    """Return the identity of the relationship variable for (left, right)."""
    if left == right:
        raise ValueError(f"self-pair ({left}, {right}) has no relationship variable")
    if kind.symmetric and left > right:
        return (right, left)
    return (left, right)


def num_variables(n: int, kind: RelationshipKind) -> int:
    if n < 2:
        raise ConfigurationError(f"need at least 2 concepts, got {n}")
    if kind.symmetric:
        return n * (n - 1) // 2
    return n * (n - 1)


QGRAM_SIZE = 3

_TOKEN_SPLIT = re.compile(r"[\W_]+", re.UNICODE)


def qgrams(text: str) -> list[str]:
    """Character ``QGRAM_SIZE``-grams of an already lower-cased name, in
    order; a shorter name is its own single gram."""
    if len(text) < QGRAM_SIZE:
        return [text]
    return [text[i : i + QGRAM_SIZE] for i in range(len(text) - QGRAM_SIZE + 1)]


def char_masks(text: str) -> tuple[dict[str, int], int]:
    """Per-character bitmasks of ``text`` (bit i set where ``text[i]`` is
    that character) and the mask of all ``len(text)`` bits: the table the
    bit-parallel edit distance walks the other string against."""
    peq: dict[str, int] = {}
    bit = 1
    for c in text:
        peq[c] = peq.get(c, 0) | bit
        bit <<= 1
    return peq, bit - 1


@dataclass(frozen=True, slots=True)
class NameSignals:
    """Everything a pair feature reads from one concept, computed once."""

    name: str  # lower-cased
    words: int  # word tokens, repeats counted
    tokens: frozenset[str]
    grams: frozenset[str]
    peq: dict[str, int]
    mask: int
    values: frozenset[str]  # lower-cased sample values


@dataclass(frozen=True)
class Concept:
    """A vocabulary entry: integer id, display name, optional sample values."""

    id: int
    name: str
    values: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.id < 0:
            raise ValueError(f"concept id must be non-negative, got {self.id}")
        if not self.name.strip():
            raise ValueError(f"concept {self.id} has an empty name")
        object.__setattr__(self, "values", tuple(self.values))

    @cached_property
    def signals(self) -> NameSignals:
        """This concept's side of every pair feature, built on first use and
        shared by all of its pairs.  It is not a field, so equality, hashing,
        repr and pickling see only id, name and values."""
        name = self.name.lower()
        tokens = [t for t in _TOKEN_SPLIT.split(name) if t]
        peq, mask = char_masks(name)
        return NameSignals(
            name=name,
            words=len(tokens),
            tokens=frozenset(tokens),
            grams=frozenset(qgrams(name)),
            peq=peq,
            mask=mask,
            values=frozenset(v.lower() for v in self.values),
        )

    def __getstate__(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def validate_vocabulary(concepts: Sequence[Concept]) -> int:
    """Check ids form exactly 0..n-1 and return n."""
    n = len(concepts)
    seen = {c.id for c in concepts}
    if len(seen) != n or seen != set(range(n)):
        raise ValueError("concept ids must be unique and densely cover 0..n-1")
    return n


@dataclass(frozen=True)
class PriorBelief:
    """Clamped probability that a pair's relationship label is 1."""

    p_one: float

    def __post_init__(self) -> None:
        p = float(self.p_one)
        if not (0.0 <= p <= 1.0) or math.isnan(p):
            raise ConfigurationError(f"prior probability must lie in [0, 1], got {p}")
        p = min(max(p, PRIOR_EPSILON), 1.0 - PRIOR_EPSILON)
        object.__setattr__(self, "p_one", p)

    @property
    def p_zero(self) -> float:
        return 1.0 - self.p_one

    @property
    def argmax(self) -> int:
        # Ties break toward 0.
        return 1 if self.p_one > 0.5 else 0

    def log_potentials(self) -> tuple[float, float]:
        return (math.log(self.p_zero), math.log(self.p_one))


# Default shared table weights, one value per free configuration in table
# order.  The all-zero configuration carries weight 1 and acts as the scale
# anchor; the fully positive chain gets the strongest non-trivial weight.
DEFAULT_WEIGHTS: dict[RelationshipKind, tuple[float, ...]] = {
    RelationshipKind.EQUIVALENCE: (1.0, 0.25, 0.25, 0.25, 0.75),
    RelationshipKind.PARENT_CHILD: (1.0, 0.25, 0.25, 0.25, 0.25, 0.25, 0.75),
}


@dataclass(frozen=True)
class TernaryPotential:
    """Shared potential over a clique's (x_ij, x_jk, x_ik) configuration.

    ``table`` holds the eight configuration values in index order
    4*x_ij + 2*x_jk + x_ik.  Forbidden configurations are exactly 0; free
    configurations must be strictly positive.
    """

    kind: RelationshipKind
    table: tuple[float, ...]

    def __post_init__(self) -> None:
        table = tuple(float(v) for v in self.table)
        if len(table) != 8:
            raise ConfigurationError(f"potential table must have 8 entries, got {len(table)}")
        for cfg, value, zero in zip(CONFIGURATIONS, table, self.kind.forbidden.tolist()):
            if not math.isfinite(value) or value < 0:
                raise ConfigurationError(f"potential entry for {cfg} must be finite and >= 0")
            if zero != (value == 0.0):
                need = "zero" if zero else "positive"
                raise ConfigurationError(f"configuration {cfg} must have {need} potential")
        object.__setattr__(self, "table", table)

    @classmethod
    def from_weights(
        cls, kind: RelationshipKind, weights: Sequence[float]
    ) -> "TernaryPotential":
        """Build a table from the free-configuration weights in table order."""
        free = kind.free_configurations
        if len(weights) != len(free):
            raise ConfigurationError(
                f"{kind.value} expects {len(free)} weights, got {len(weights)}"
            )
        table = [0.0] * 8
        for cfg, w in zip(free, weights):
            table[configuration_index(*cfg)] = float(w)
        return cls(kind, tuple(table))

    @classmethod
    def default(cls, kind: RelationshipKind) -> "TernaryPotential":
        return cls.from_weights(kind, DEFAULT_WEIGHTS[kind])

    @property
    def weights(self) -> tuple[float, ...]:
        return tuple(
            self.table[configuration_index(*cfg)] for cfg in self.kind.free_configurations
        )

    def scaled(self, factor: float) -> "TernaryPotential":
        if factor <= 0:
            raise ValueError(f"scale factor must be positive, got {factor}")
        return TernaryPotential(self.kind, tuple(v * factor for v in self.table))

    def log_table(self) -> np.ndarray:
        return np.array([
            LOG_ZERO if zero else math.log(value)
            for value, zero in zip(self.table, self.kind.forbidden.tolist())
        ])


@dataclass
class AssignmentGraph:
    """Decoded labels for a graph plus score and audit metadata.

    ``pairs[i]`` is the concept pair of variable i and ``labels[i]`` its
    decoded state.  ``violations`` lists the concept triples (i, j, k) of
    the cliques whose configuration is forbidden, in clique order, which is
    what ``audit_labels`` of the label map reports: the graph's own cliques
    for a single decode, a global audit of the merged labels for a
    partitioned run.  ``converged`` is True when an early stop ended the
    message rounds before the round cap, and ``last_label_change`` is the
    round whose labels the rounds returned (for a partitioned run, the
    latest over its partitions).
    """

    kind: RelationshipKind
    pairs: tuple[tuple[int, int], ...]
    labels: np.ndarray
    log_score: float
    violations: list
    iterations: int | None = None
    converged: bool | None = None
    last_label_change: int | None = None
    margins: np.ndarray | None = None
    repaired: bool = False
    pre_repair: dict | None = None
    partition_summaries: list | None = None

    def label_map(self) -> dict[tuple[int, int], int]:
        return {pair: int(lbl) for pair, lbl in zip(self.pairs, self.labels)}
