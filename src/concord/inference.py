"""Max-product inference over relationship factor graphs.

Messages live in the log domain (max-sum).  A synchronous Jacobi round
first recomputes every variable-to-factor message from the previous round's
factor-to-variable messages, then every factor-to-variable message from the
fresh batch.  New messages are damped against the old ones, max-normalized
so the strongest component sits at 0, and the largest absolute change over
all message components drives the convergence test.

Hard zeros circulate as the finite sentinel LOG_ZERO.  The variable-side
update adds saturatingly (a sum is LOG_ZERO as soon as one addend is) by
counting sentinels apart from the finite part.  The factor-side update
maxes over the table's live configurations only and adds plainly: a dead
incoming component keeps a sum near LOG_ZERO, far below LOG_ZERO_BOUND
(live log-potentials lie within 745 of 0, live messages within
[-MESSAGE_SPREAD_CAP, 0]), and normalization snaps it back to LOG_ZERO.

Unary factors have degree one, so their outgoing message is pinned to the
normalized unary log-potential and is not damped; a graph without ternary
factors therefore converges in two rounds to the prior argmax.

Several graphs under one potential decode as a batch: one message store
holds their disjoint union, and each round runs the same kernels over all
of it.  Every step is row-wise except the variable-side sums, which add
each variable's edges in the same order as a store of its graph alone, so
each graph's messages match a lone decode bit for bit.  After a round each
graph takes its own delta; a graph that converged or reached the round cap
is frozen, its beliefs read off, and the store shrinks to the graphs still
running.  A single graph is a batch of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import ConfigurationError
from .graph import FactorGraph
from .model import (
    LOG_ZERO,
    LOG_ZERO_BOUND,
    AssignmentGraph,
)

ORACLE_VARIABLE_CAP = 25
_ORACLE_CHUNK = 1 << 16

# On cyclic graphs the dominated component of a normalized max-sum message
# can drift toward -inf at a constant rate per round, which keeps the
# convergence delta pinned at that rate forever.  Capping the spread at a
# log-odds gap of 50 (~e^50 to one) is decision-equivalent and lets
# saturated messages actually stop moving.
MESSAGE_SPREAD_CAP = 50.0


@dataclass(frozen=True)
class LbpConfig:
    """Knobs for loopy max-product.

    tolerance = 0 disables early stopping and forces the full iteration
    budget; any positive value stops once no message component moved that
    much in a round.
    """

    max_iterations: int = 200
    damping: float = 0.5
    tolerance: float = 1e-6

    def __post_init__(self) -> None:
        if self.max_iterations < 1:
            raise ConfigurationError("max_iterations must be at least 1")
        if not 0.0 <= self.damping < 1.0:
            raise ConfigurationError("damping must lie in [0, 1)")
        if self.tolerance < 0.0:
            raise ConfigurationError("tolerance must be non-negative")


def _normalize_rows(messages: np.ndarray) -> np.ndarray:
    """Shift each row so its max is 0; snap dead components to LOG_ZERO.

    Live components are floored at -MESSAGE_SPREAD_CAP so a dominated state
    saturates instead of diverging.  Rows with no live component degenerate
    to uniform [0, 0].
    """
    peak = messages.max(axis=1)
    dead_row = peak <= LOG_ZERO_BOUND
    shift = np.where(dead_row, 0.0, peak)
    out = messages - shift[:, None]
    dead = out <= LOG_ZERO_BOUND
    out = np.where(dead, LOG_ZERO, np.maximum(out, -MESSAGE_SPREAD_CAP))
    if dead_row.any():
        out[dead_row] = 0.0
    return out


def _damp(old: np.ndarray, computed: np.ndarray, damping: float) -> np.ndarray:
    """Mix old and computed messages where both are live, else jump.

    Interpolating with the sentinel would manufacture meaningless
    intermediate magnitudes, so sentinel transitions apply immediately.
    """
    if damping == 0.0:
        return computed
    live = (old > LOG_ZERO_BOUND) & (computed > LOG_ZERO_BOUND)
    mixed = np.where(live, damping * old + (1.0 - damping) * computed, computed)
    return _normalize_rows(mixed)


def _segment_saturating_sums(
    values: np.ndarray, segments: np.ndarray, n_segments: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per-segment finite sums and sentinel counts of (E, 2) message rows."""
    dead = values <= LOG_ZERO_BOUND
    finite = np.where(dead, 0.0, values)
    sums = np.empty((n_segments, 2), dtype=np.float64)
    counts = np.empty((n_segments, 2), dtype=np.float64)
    for state in (0, 1):
        sums[:, state] = np.bincount(segments, weights=finite[:, state], minlength=n_segments)
        counts[:, state] = np.bincount(
            segments, weights=dead[:, state].astype(np.float64), minlength=n_segments
        )
    return sums, counts


@dataclass
class MessageStore:
    """Message state over the variables and ternary cliques of one or more graphs.

    Edges are laid out unary-first: edge e < m is the unary edge of variable
    e; edges m + 3f + s belong to ternary factor f, slot s, where slots
    follow the clique order (x_ij, x_jk, x_ik).  A store over several graphs
    holds their disjoint union: each graph's variable and clique ids are
    offset past those of the graphs before it, so every variable meets its
    edges in the same order as in a store of its own graph, and each
    graph's messages evolve bit for bit as they would alone.  All graphs of
    a store share one potential.
    """

    var_to_factor: np.ndarray  # (E, 2)
    factor_to_var: np.ndarray  # (E, 2)
    edge_var: np.ndarray       # (E,)
    unary_message: np.ndarray  # (m, 2) normalized unary log-potentials
    live_log: np.ndarray       # (L,) log-potentials of the live configurations
    live_states: np.ndarray    # (L, 3) their slot states (x_ij, x_jk, x_ik)

    @property
    def num_variables(self) -> int:
        return len(self.unary_message)

    @classmethod
    def initial(cls, *graphs: FactorGraph) -> "MessageStore":
        sizes = [g.num_variables for g in graphs]
        offsets = np.cumsum([0, *sizes[:-1]])
        m = sum(sizes)
        triples = np.concatenate([g.triples + o for g, o in zip(graphs, offsets)])
        edges = m + triples.size
        live = np.flatnonzero(graphs[0].potential.table)
        return cls(
            var_to_factor=np.zeros((edges, 2), dtype=np.float64),
            factor_to_var=np.zeros((edges, 2), dtype=np.float64),
            edge_var=np.concatenate([np.arange(m, dtype=np.int64), triples.ravel()]),
            unary_message=_normalize_rows(np.concatenate([g.unary_log for g in graphs])),
            live_log=graphs[0].log_table[live],
            live_states=(live[:, None] >> np.array([2, 1, 0])) & 1,
        )

    def take(self, variables: np.ndarray, factors: np.ndarray) -> "MessageStore":
        """The store restricted to the masked variables and ternary factors.

        Kept variables are renumbered in order; each kept factor must touch
        kept variables only.
        """
        edges = np.concatenate([variables, np.repeat(factors, 3)])
        renumbered = np.cumsum(variables) - 1
        return replace(
            self,
            var_to_factor=self.var_to_factor[edges],
            factor_to_var=self.factor_to_var[edges],
            edge_var=renumbered[self.edge_var[edges]],
            unary_message=self.unary_message[variables],
        )


def _variable_round(store: MessageStore) -> np.ndarray:
    m = store.num_variables
    sums, counts = _segment_saturating_sums(store.factor_to_var, store.edge_var, m)
    dead = store.factor_to_var <= LOG_ZERO_BOUND
    finite = np.where(dead, 0.0, store.factor_to_var)
    out = sums[store.edge_var] - finite
    out_counts = counts[store.edge_var] - dead
    computed = np.where(out_counts > 0.5, LOG_ZERO, out)
    return _normalize_rows(computed)


def _factor_round(store: MessageStore, fresh_v2f: np.ndarray) -> np.ndarray:
    """Ternary factor-to-variable messages, (3t, 2) rows in edge order."""
    q = fresh_v2f[store.num_variables:].reshape(-1, 3, 2)
    states = store.live_states
    out = np.empty(q.shape, dtype=np.float64)
    # Each target slot maxes, per target state, over the live configurations
    # with that state, scored by the incoming messages of the other two slots.
    for target, (a, b) in enumerate(((1, 2), (0, 2), (0, 1))):
        scores = store.live_log + (q[:, a, states[:, a]] + q[:, b, states[:, b]])
        for state in (0, 1):
            out[:, target, state] = scores[:, states[:, target] == state].max(axis=1)
    return _normalize_rows(out.reshape(-1, 2))


def jacobi_round(store: MessageStore, damping: float) -> np.ndarray:
    """Run one synchronous round in place; return each edge's change.

    An edge's change is the largest absolute move of any component of its
    two messages, so a graph's convergence delta is the max over its edges.
    """
    m = store.num_variables
    fresh_v2f = _damp(store.var_to_factor, _variable_round(store), damping)
    # Unary messages stay pinned and are never damped.
    fresh_f2v = np.concatenate([
        store.unary_message,
        _damp(store.factor_to_var[m:], _factor_round(store, fresh_v2f), damping),
    ])
    moved = np.abs(fresh_v2f - store.var_to_factor)
    np.maximum(moved, np.abs(fresh_f2v - store.factor_to_var), out=moved)
    store.var_to_factor = fresh_v2f
    store.factor_to_var = fresh_f2v
    return np.maximum(moved[:, 0], moved[:, 1])


def _run_maxima(values: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Max of each consecutive run of ``lengths[i]`` values; 0 for an empty run."""
    out = np.zeros(len(lengths))
    nonempty = lengths > 0
    if nonempty.any():
        starts = np.cumsum(lengths) - lengths
        out[nonempty] = np.maximum.reduceat(values, starts[nonempty])
    return out


def _beliefs(store: MessageStore) -> np.ndarray:
    sums, counts = _segment_saturating_sums(
        store.factor_to_var, store.edge_var, store.num_variables
    )
    return np.where(counts > 0.5, LOG_ZERO, sums)


def configuration_codes(labels: np.ndarray, triples: np.ndarray) -> np.ndarray:
    """Table indices of each clique under the given labels."""
    return (
        4 * labels[triples[:, 0]] + 2 * labels[triples[:, 1]] + labels[triples[:, 2]]
    ).astype(np.int64)


def violated_cliques(graph: FactorGraph, labels: np.ndarray) -> list[int]:
    """Indices of ternary cliques whose configuration has zero potential."""
    if graph.num_ternary_factors == 0:
        return []
    codes = configuration_codes(np.asarray(labels, dtype=np.int64), graph.triples)
    return np.flatnonzero(graph.log_table[codes] <= LOG_ZERO_BOUND).tolist()


def joint_log_score(graph: FactorGraph, labels: Sequence[int] | np.ndarray) -> float:
    """Sum of log unary and log ternary potentials; LOG_ZERO when invalid."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != (graph.num_variables,):
        raise ValueError(
            f"labels must have shape ({graph.num_variables},), got {labels.shape}"
        )
    if labels.size and not np.isin(labels, (0, 1)).all():
        raise ValueError("labels must be 0 or 1")
    total = float(np.take_along_axis(graph.unary_log, labels[:, None], axis=1).sum())
    if graph.num_ternary_factors:
        values = graph.log_table[configuration_codes(labels, graph.triples)]
        if (values <= LOG_ZERO_BOUND).any():
            return LOG_ZERO
        total += float(values.sum())
    return total


def prior_flips(graph: FactorGraph, labels: np.ndarray) -> list[int]:
    """Variables whose decoded label disagrees with the prior argmax."""
    prior_argmax = graph.unary_log[:, 1] > graph.unary_log[:, 0]
    return np.flatnonzero(np.asarray(labels, dtype=bool) != prior_argmax).tolist()


def greedy_repair(
    graph: FactorGraph,
    labels: np.ndarray,
    margins: np.ndarray | None = None,
    budget: int | None = None,
) -> tuple[np.ndarray, list[int]]:
    """Flip labels until no ternary clique is violated.

    Greedy phase: flip the lowest-margin variable appearing in a violated
    clique, each variable at most once.  If violations survive the budget,
    a demotion phase flips positive labels to 0 only; every forbidden
    configuration contains a positive label and demotions strictly shrink
    the positive set, so termination at a valid assignment is guaranteed
    (the all-zero assignment is always valid).
    """
    labels = np.array(labels, dtype=np.int64, copy=True)
    m = graph.num_variables
    if margins is None:
        margins = graph.unary_log[:, 1] - graph.unary_log[:, 0]
    if budget is None:
        budget = 2 * m
    flipped_order: list[int] = []
    flipped: set[int] = set()
    for _ in range(4 * m + 8):
        violations = violated_cliques(graph, labels)
        if not violations:
            return labels, flipped_order
        candidates = np.unique(graph.triples[violations].ravel())
        fresh = [int(v) for v in candidates if v not in flipped]
        if fresh and len(flipped_order) < budget:
            target = min(fresh, key=lambda v: (abs(float(margins[v])), v))
        else:
            positives = [int(v) for v in candidates if labels[v] == 1]
            target = min(positives, key=lambda v: (abs(float(margins[v])), v))
            labels[target] = 0
            flipped.add(target)
            flipped_order.append(target)
            continue
        labels[target] ^= 1
        flipped.add(target)
        flipped_order.append(target)
    raise RuntimeError("repair failed to terminate")  # unreachable by construction


@dataclass(frozen=True)
class Beliefs:
    """A graph's max-marginal log beliefs where its message rounds stopped."""

    values: np.ndarray  # (m, 2)
    iterations: int
    converged: bool


def max_product_rounds(
    graphs: Sequence[FactorGraph], config: LbpConfig | None = None
) -> list[Beliefs]:
    """Run message rounds on several graphs in one store over their union.

    The graphs must share one potential.  After each round every graph
    takes its own delta, the largest change over its edges; a graph whose
    delta fell below the tolerance, or that reached the round cap, is
    frozen: its beliefs are read off and its rows leave the store.  Each
    graph's beliefs, round count and convergence flag are bitwise those of
    running it alone.
    """
    config = config or LbpConfig()
    if not graphs:
        raise ConfigurationError("no graphs to decode")
    for index, graph in enumerate(graphs):
        if graph.potential != graphs[0].potential:
            raise ConfigurationError(
                f"graph {index} has a different potential from graph 0; "
                "a batch decodes under one shared potential"
            )
    store = MessageStore.initial(*graphs)
    # Per graph still in the store, in store order: its index, variables
    # and ternary factors.
    active = np.arange(len(graphs))
    variables = np.array([g.num_variables for g in graphs])
    factors = np.array([g.num_ternary_factors for g in graphs])
    out: list[Beliefs | None] = [None] * len(graphs)
    for iteration in range(1, config.max_iterations + 1):
        change = jacobi_round(store, config.damping)
        m = store.num_variables
        delta = np.maximum(
            _run_maxima(change[:m], variables), _run_maxima(change[m:], 3 * factors)
        )
        converged = delta < config.tolerance  # never, at tolerance 0
        frozen = converged | (iteration == config.max_iterations)
        if not frozen.any():
            continue
        beliefs = _beliefs(store)
        starts = np.cumsum(variables) - variables
        for local in np.flatnonzero(frozen):
            rows = slice(starts[local], starts[local] + variables[local])
            out[active[local]] = Beliefs(
                beliefs[rows].copy(), iteration, bool(converged[local])
            )
        if frozen.all():
            break
        kept = ~frozen
        store = store.take(np.repeat(kept, variables), np.repeat(kept, factors))
        active, variables, factors = active[kept], variables[kept], factors[kept]
    return out


def lbp_map(
    graph: FactorGraph,
    config: LbpConfig | None = None,
    repair: bool = False,
    beliefs: Beliefs | None = None,
) -> AssignmentGraph:
    """Decode an approximate MAP assignment with loopy max-product.

    ``beliefs`` hands over the outcome of rounds already run on this graph
    by ``max_product_rounds``, which leaves only the read-out: labels,
    margins, score, audit and optional repair.  ``config`` is then unused.
    """
    if beliefs is None:
        [beliefs] = max_product_rounds([graph], config)
    values = beliefs.values
    labels = (values[:, 1] > values[:, 0]).astype(np.int64)
    margins = np.clip(values[:, 1] - values[:, 0], -abs(LOG_ZERO), abs(LOG_ZERO))
    score = joint_log_score(graph, labels)
    violations = violated_cliques(graph, labels)
    assignment = AssignmentGraph(
        kind=graph.kind,
        pairs=graph.pairs,
        labels=labels,
        log_score=score,
        violations=violations,
        iterations=beliefs.iterations,
        converged=beliefs.converged,
        margins=margins,
    )
    if repair and violations:
        repaired_labels, flips = greedy_repair(graph, labels, margins)
        assignment.pre_repair = {
            "log_score": score,
            "violations": len(violations),
            "flipped_variables": flips,
        }
        assignment.labels = repaired_labels
        assignment.log_score = joint_log_score(graph, repaired_labels)
        assignment.violations = violated_cliques(graph, repaired_labels)
        assignment.repaired = True
    return assignment


def lbp_map_batch(
    graphs: Sequence[FactorGraph],
    config: LbpConfig | None = None,
    repair: bool = False,
) -> list[AssignmentGraph]:
    """``lbp_map`` of each graph, bitwise, from one batched store of rounds."""
    return [
        lbp_map(graph, repair=repair, beliefs=beliefs)
        for graph, beliefs in zip(graphs, max_product_rounds(graphs, config))
    ]


def exact_map_oracle(graph: FactorGraph) -> AssignmentGraph:
    """Exhaustive MAP over all 2^m assignments.

    Tie scores resolve to the lexicographically smallest label vector, which
    the enumeration order makes automatic.  Refuses graphs beyond
    ORACLE_VARIABLE_CAP variables.
    """
    m = graph.num_variables
    if m > ORACLE_VARIABLE_CAP:
        raise ConfigurationError(
            f"exact oracle supports at most {ORACLE_VARIABLE_CAP} variables, got {m}"
        )
    u0 = graph.unary_log[:, 0]
    gain = graph.unary_log[:, 1] - u0
    base = float(u0.sum())
    shifts = (m - 1 - np.arange(m)).astype(np.uint64)  # variable 0 is the MSB
    triples = graph.triples
    log_table = graph.log_table
    best_code = 0
    best_score = -math.inf
    total = 1 << m
    for start in range(0, total, _ORACLE_CHUNK):
        codes = np.arange(start, min(start + _ORACLE_CHUNK, total), dtype=np.uint64)
        bits = ((codes[:, None] >> shifts[None, :]) & np.uint64(1)).astype(np.int64)
        scores = bits @ gain + base
        if triples.shape[0]:
            cfg = 4 * bits[:, triples[:, 0]] + 2 * bits[:, triples[:, 1]] + bits[:, triples[:, 2]]
            values = log_table[cfg]
            scores = np.where(
                (values <= LOG_ZERO_BOUND).any(axis=1), LOG_ZERO, scores + values.sum(axis=1)
            )
        pick = int(np.argmax(scores))
        if float(scores[pick]) > best_score:
            best_score = float(scores[pick])
            best_code = start + pick
    labels = ((best_code >> (m - 1 - np.arange(m))) & 1).astype(np.int64)
    return AssignmentGraph(
        kind=graph.kind,
        pairs=graph.pairs,
        labels=labels,
        log_score=joint_log_score(graph, labels),
        violations=violated_cliques(graph, labels),
        iterations=None,
        converged=None,
    )
