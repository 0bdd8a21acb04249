"""Factor graph assembly: pairs, unary evidence, shared ternary cliques.

A graph is its sorted concept pairs (a variable's id is the rank of its
pair), their unary log priors and one row per ternary clique, under a
shared potential that swaps without a rebuild.  A clique over concepts
(i, j, k) stores its variables in slot order (x_ij, x_jk, x_ik), matching
the potential table's configuration index 4*x_ij + 2*x_jk + x_ik.

Pairs travel as int64 codes ``left * n + right``: a ``PriorTable`` holds
the checked priors of a vocabulary that way, and one vectorized walk over
sorted codes finds the cliques for graph builds and label audits alike.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Collection, Iterator, Mapping, Sequence

import numpy as np

from .errors import ConfigurationError
from .model import (
    PRIOR_EPSILON,
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


# About how many (ij, jk) pairings the clique walk tests at once, which
# bounds its scratch arrays on large graphs.
_WALK_STEP = 1 << 14


@dataclass(frozen=True, eq=False)
class Cliques:
    """Ternary cliques as (t, 3) rows: concept triples (i, j, k) and their
    variables in slot order (ij, jk, ik).  Iterating yields the triples."""

    concepts: np.ndarray
    variables: np.ndarray

    def __len__(self) -> int:
        return len(self.concepts)

    def __iter__(self) -> Iterator[tuple[int, int, int]]:
        return map(tuple, self.concepts.tolist())


def configuration_codes(labels: np.ndarray, variables: np.ndarray) -> np.ndarray:
    """Each clique's table index 4*x_ij + 2*x_jk + x_ik under ``labels``.

    ``variables`` holds the cliques as (t, 3) rows of variable ids in slot
    order.  The last axis of ``labels`` is indexed by variable, so a (B, m)
    batch of labellings gives (B, t) codes, row by row.
    """
    ij, jk, ik = variables.T
    return 4 * labels[..., ij] + 2 * labels[..., jk] + labels[..., ik]


def enumerate_ternary_cliques(codes: np.ndarray, n: int) -> Cliques:
    """Concept triples (i, j, k) whose pairs (i, j), (j, k) and (i, k) are all in ``codes``.

    ``codes`` holds distinct pairs as ``left * n + right`` in ascending
    order, and a clique's variables are the positions of its three pairs
    there.  Triples come in lexicographic order and follow the chain
    pattern i->j, j->k, i->k over distinct concepts.  Equivalence pairs are
    canonical (i < j), so there every triple has i < j < k.
    """
    codes = np.asarray(codes, dtype=np.int64)
    left = codes // n
    right = codes - left * n
    # Pair p = (i, j) meets the counts[p] onward pairs (j, k), the codes in
    # [j * n, (j + 1) * n) from position onward[p].  Counted over all pairs,
    # pairing c of pair p is with the onward pair at shift[p] + c.
    onward = codes.searchsorted(right * n)
    counts = codes.searchsorted(right * n + n) - onward
    ends = counts.cumsum()
    shift = onward + counts - ends
    steps = range(_WALK_STEP, int(ends[-1]) if len(ends) else 0, _WALK_STEP)
    cuts = sorted({0, len(codes), *ends.searchsorted(steps).tolist()})
    found = []
    for start, stop in zip(cuts, cuts[1:]):
        ij = np.arange(start, stop).repeat(counts[start:stop])
        jk = np.arange(ends[start] - counts[start], ends[stop - 1]) + shift[ij]
        # k == i would be a self-pair, which is never a code.
        ik_code = left[ij] * n + right[jk]
        ik = codes.searchsorted(ik_code)
        closed = (codes.take(ik, mode="clip") == ik_code).nonzero()[0]
        found.append(np.array([ij[closed], jk[closed], ik[closed]]))
    variables = np.concatenate(found, axis=1) if found else np.empty((3, 0), dtype=np.int64)
    ij, jk, _ = variables
    return Cliques(np.array([left[ij], right[ij], right[jk]]).T, variables.T)


def _all_codes(n: int, kind: RelationshipKind) -> np.ndarray:
    """Codes ``left * n + right`` of every canonical pair over n concepts, ascending."""
    left, right = np.triu_indices(n, 1) if kind.symmetric else np.nonzero(~np.eye(n, dtype=bool))
    return left * n + right


def all_pairs(n: int, kind: RelationshipKind) -> list[tuple[int, int]]:
    """Every canonical pair over n concepts, in sorted order."""
    return [divmod(code, n) for code in _all_codes(n, kind).tolist()]


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


def checked_codes(
    pairs: Collection[tuple[int, int]], n: int, kind: RelationshipKind, role: str = "pair"
) -> np.ndarray:
    """Canonical codes ``left * n + right`` of the pairs, in their order:
    ``checked_pair``'s rule for all at once, raising for the first it rejects."""
    flat = np.fromiter(itertools.chain.from_iterable(pairs), np.int64, 2 * len(pairs))
    pairs = flat.reshape(-1, 2)
    left, right = pairs.T
    rejected = (left == right) | ((pairs < 0) | (pairs >= n)).any(axis=1)
    if rejected.any():
        checked_pair(*pairs[rejected.argmax()].tolist(), n, kind, role)  # raises
    if kind.symmetric:
        left, right = np.minimum(left, right), np.maximum(left, right)
    return left * n + right


@dataclass(frozen=True, eq=False)
class PriorTable:
    """Checked priors: distinct canonical pairs as ascending codes
    ``left * n + right``, and per pair its row (log p_zero, log p_one),
    clamped as ``PriorBelief`` clamps.  Both arrays are made read-only.
    ``prior_table`` checks a prior map into a table; the constructor
    trusts its arguments."""

    n: int
    kind: RelationshipKind
    codes: np.ndarray      # (m,) int64
    unary_log: np.ndarray  # (m, 2) float64

    def __post_init__(self) -> None:
        self.codes.flags.writeable = self.unary_log.flags.writeable = False

    def select(self, codes: np.ndarray, default_prior: float) -> "PriorTable":
        """The table over ``codes``, ascending canonical pair codes: a pair
        listed here keeps its row, any other takes ``default_prior``."""
        codes = np.array(codes, dtype=np.int64)
        rows = self.codes.searchsorted(codes)
        listed = rows < len(self.codes)
        listed[listed] = self.codes[rows[listed]] == codes[listed]
        unary_log = np.empty((len(codes), 2))
        unary_log[:] = PriorBelief(default_prior).log_potentials()
        unary_log[listed] = self.unary_log[rows[listed]]
        return PriorTable(self.n, self.kind, codes, unary_log)


def prior_table(
    priors: Mapping[tuple[int, int], PriorBelief | float], n: int, kind: RelationshipKind
) -> PriorTable:
    """Check a prior map once and key it by canonical pair code.

    A self-pair, an id outside 0..n-1 (``checked_pair``'s rule) and two
    entries that name one canonical pair raise ConfigurationError; a
    probability outside [0, 1] or NaN raises ``PriorBelief``'s ConfigurationError.
    Pair faults are reported first, then repeats, then probabilities.
    """
    codes = checked_codes(priors, n, kind, "prior pair")
    p_one = np.array(
        [v.p_one if isinstance(v, PriorBelief) else float(v) for v in priors.values()], float
    )
    order = codes.argsort(kind="stable")
    codes, p_one = codes[order], p_one[order]
    repeated = (codes[1:] == codes[:-1]).nonzero()[0]
    if repeated.size:
        raise ConfigurationError(f"duplicate prior for pair {divmod(int(codes[repeated[0]]), n)}")
    outside = (~((p_one >= 0.0) & (p_one <= 1.0))).nonzero()[0]  # NaN is outside too
    if outside.size:
        PriorBelief(float(p_one[outside[0]]))  # raises
    # Clamped and logged as PriorBelief does, so the rows are bitwise its
    # log_potentials(): np.log can differ from math.log in the last bit.
    p_one = np.minimum(np.maximum(p_one, PRIOR_EPSILON), 1.0 - PRIOR_EPSILON)
    unary_log = np.empty((len(p_one), 2))
    for state, p in enumerate((1.0 - p_one, p_one)):
        unary_log[:, state] = np.fromiter(map(math.log, p.tolist()), float, len(p))
    return PriorTable(n, kind, codes, unary_log)


def build_factor_graph(
    concepts: Sequence[Concept],
    priors: PriorTable | Mapping[tuple[int, int], PriorBelief | float],
    potential: TernaryPotential,
    mode: str = "dense",
    default_prior: float = DEFAULT_PRIOR_P_ONE,
    *,
    cliques: Cliques | None = None,
) -> FactorGraph:
    """Assemble a factor graph over the vocabulary.

    ``priors`` is a ``PriorTable`` of this vocabulary, taken as it is, or a
    prior map, which ``prior_table`` checks first.  dense mode creates a
    variable for every concept pair, falling back to ``default_prior`` for
    pairs without a prior.  sparse mode creates variables only for the
    listed pairs.

    ``cliques``, when given, must be ``enumerate_ternary_cliques`` of the
    graph's pair codes, walked already by a trusted caller such as
    ``partition.build_partitions``.  The build checks only their shape:
    cliques of other codes would index the wrong variables.
    """
    kind = potential.kind
    if isinstance(priors, PriorTable):
        n = priors.n
        if len(concepts) != n or priors.kind is not kind:
            raise ConfigurationError(
                f"prior table is for {n} {priors.kind.value} concepts, "
                f"the graph for {len(concepts)} {kind.value} concepts"
            )
    else:
        n = validate_vocabulary(concepts)
    if n < 2:
        raise ConfigurationError("need at least 2 concepts to build a graph")
    table = priors if isinstance(priors, PriorTable) else prior_table(priors, n, kind)

    if mode == "dense":
        table = table.select(_all_codes(n, kind), default_prior)
    elif mode == "sparse":
        if not len(table.codes):
            raise ConfigurationError("sparse mode needs a non-empty prior map")
    else:
        raise ConfigurationError(f"unknown graph mode {mode!r}")

    # A pair's variable id is the rank of its code.
    if cliques is None:
        cliques = enumerate_ternary_cliques(table.codes, n)
    elif cliques.variables.shape != cliques.concepts.shape or cliques.concepts.shape[1:] != (3,):
        raise ConfigurationError("given cliques must be (t, 3) concept and variable rows")
    left, right = np.divmod(table.codes, n)
    return FactorGraph(
        n_concepts=n,
        pairs=tuple(zip(left.tolist(), right.tolist())),
        unary_log=table.unary_log,
        triples=cliques.variables,
        triple_concepts=cliques.concepts,
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
