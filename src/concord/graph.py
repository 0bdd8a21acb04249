"""Factor graph assembly: pairs, unary evidence, shared ternary cliques.

A graph is its sorted concept pairs (a variable's id is the rank of its
pair), their unary log priors and one row per ternary clique, under a
shared potential that swaps without a rebuild.  A clique over concepts
(i, j, k) stores its variables in slot order (x_ij, x_jk, x_ik), matching
the potential table's configuration index 4*x_ij + 2*x_jk + x_ik.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import ConfigurationError
from .model import (
    Concept,
    PriorBelief,
    RelationshipKind,
    TernaryPotential,
    canonical_pair,
    num_variables,
    validate_vocabulary,
)

DEFAULT_PRIOR_P_ONE = 0.01


@dataclass(frozen=True, eq=False)
class FactorGraph:
    n_concepts: int
    pairs: tuple[tuple[int, int], ...]  # sorted; variable i is pairs[i]
    unary_log: np.ndarray        # (m, 2) raw log prior potentials
    triples: np.ndarray          # (t, 3) variable ids in slot order (ij, jk, ik)
    triple_concepts: np.ndarray  # (t, 3) concept ids (i, j, k)
    potential: TernaryPotential

    @property
    def kind(self) -> RelationshipKind:
        return self.potential.kind

    @property
    def log_table(self) -> np.ndarray:
        return self.potential.log_table()

    @property
    def num_variables(self) -> int:
        return len(self.pairs)

    @property
    def num_ternary_factors(self) -> int:
        return int(self.triples.shape[0])

    @property
    def num_factors(self) -> int:
        return self.num_variables + self.num_ternary_factors

    @property
    def num_edges(self) -> int:
        # One unary edge per variable plus three edges per ternary clique.
        return self.num_variables + 3 * self.num_ternary_factors

    def degrees(self) -> np.ndarray:
        """Factors per variable: its unary factor plus the cliques it sits in."""
        return 1 + np.bincount(self.triples.ravel(), minlength=self.num_variables)


def enumerate_ternary_cliques(pairs: Iterable[tuple[int, int]]) -> list[tuple[int, int, int]]:
    """Concept triples (i, j, k) whose pairs (i, j), (j, k) and (i, k) are all present.

    Triples come in lexicographic order and follow the chain pattern
    i->j, j->k, i->k over distinct concepts.  Equivalence pairs are
    canonical (i < j), so there every triple has i < j < k.
    """
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


def all_pairs(n: int, kind: RelationshipKind) -> list[tuple[int, int]]:
    """Every canonical pair over n concepts, in sorted order."""
    if kind.symmetric:
        return [(i, j) for i in range(n) for j in range(i + 1, n)]
    return [(i, j) for i in range(n) for j in range(n) if i != j]


def checked_pair(
    left: int, right: int, n: int, kind: RelationshipKind, role: str = "pair"
) -> tuple[int, int]:
    """Canonical pair of (left, right); a self-pair or an id outside 0..n-1
    raises ConfigurationError."""
    left, right = int(left), int(right)
    if left == right:
        raise ConfigurationError(f"{role} ({left}, {right}) is a self-pair")
    pair = canonical_pair(left, right, kind)
    if not (0 <= pair[0] < n and 0 <= pair[1] < n):
        raise ConfigurationError(f"{role} {pair} references unknown concept ids")
    return pair


def canonical_priors(
    priors: Mapping[tuple[int, int], PriorBelief | float], n: int, kind: RelationshipKind
) -> dict[tuple[int, int], PriorBelief]:
    """Key each prior by its canonical pair and wrap bare floats as beliefs.

    Self-pairs, ids outside 0..n-1 and two entries that name the same
    canonical pair raise ConfigurationError.
    """
    canon: dict[tuple[int, int], PriorBelief] = {}
    for (left, right), value in priors.items():
        pair = checked_pair(left, right, n, kind, "prior pair")
        if pair in canon:
            raise ConfigurationError(f"duplicate prior for pair {pair}")
        canon[pair] = value if isinstance(value, PriorBelief) else PriorBelief(float(value))
    return canon


def build_factor_graph(
    concepts: Sequence[Concept],
    priors: Mapping[tuple[int, int], PriorBelief | float],
    potential: TernaryPotential,
    mode: str = "dense",
    default_prior: float = DEFAULT_PRIOR_P_ONE,
) -> FactorGraph:
    """Assemble a factor graph over the vocabulary.

    dense mode creates a variable for every concept pair, falling back to
    ``default_prior`` for pairs missing from ``priors``.  sparse mode
    creates variables only for the listed pairs.
    """
    n = validate_vocabulary(concepts)
    kind = potential.kind
    if n < 2:
        raise ConfigurationError("need at least 2 concepts to build a graph")
    canon = canonical_priors(priors, n, kind)

    if mode == "dense":
        pairs = all_pairs(n, kind)
    elif mode == "sparse":
        if not canon:
            raise ConfigurationError("sparse mode needs a non-empty prior map")
        pairs = sorted(canon)
    else:
        raise ConfigurationError(f"unknown graph mode {mode!r}")

    default = PriorBelief(default_prior)
    unary_log = np.array(
        [canon.get(pair, default).log_potentials() for pair in pairs], dtype=np.float64
    )

    triple_concepts = np.array(enumerate_ternary_cliques(pairs), dtype=np.int64).reshape(-1, 3)
    # Both modes list pairs in sorted order, so a pair's variable id is the
    # rank of its code left * n + right.
    codes = np.array(pairs, dtype=np.int64).reshape(-1, 2) @ np.array([n, 1])
    i, j, k = triple_concepts.T
    triples = np.searchsorted(codes, np.stack([i * n + j, j * n + k, i * n + k], axis=1))

    return FactorGraph(
        n_concepts=n,
        pairs=tuple(pairs),
        unary_log=unary_log,
        triples=triples,
        triple_concepts=triple_concepts,
        potential=potential,
    )


def count_graph_stats(n: int, kind: RelationshipKind = RelationshipKind.EQUIVALENCE) -> tuple[int, int, int]:
    """Closed-form (variables, ternary factors, edges) of the dense graph."""
    m = num_variables(n, kind)  # raises for n < 2
    if kind.symmetric:
        t = n * (n - 1) * (n - 2) // 6
    else:
        t = n * (n - 1) * (n - 2)
    return m, t, m + 3 * t
