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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
    """Message state for one graph.

    Edges are laid out unary-first: edge e < m is the unary edge of variable
    e; edges m + 3f + s belong to ternary factor f, slot s, where slots
    follow the clique order (x_ij, x_jk, x_ik).
    """

    graph: FactorGraph
    var_to_factor: np.ndarray  # (E, 2)
    factor_to_var: np.ndarray  # (E, 2)
    edge_var: np.ndarray       # (E,)
    unary_message: np.ndarray  # (m, 2) normalized unary log-potentials
    live_log: np.ndarray       # (L,) log-potentials of the live configurations
    live_states: np.ndarray    # (L, 3) their slot states (x_ij, x_jk, x_ik)

    @classmethod
    def initial(cls, graph: FactorGraph) -> "MessageStore":
        m = graph.num_variables
        edges = graph.num_edges
        edge_var = np.concatenate([np.arange(m, dtype=np.int64), graph.triples.ravel()])
        live = np.flatnonzero(graph.potential.table)
        return cls(
            graph=graph,
            var_to_factor=np.zeros((edges, 2), dtype=np.float64),
            factor_to_var=np.zeros((edges, 2), dtype=np.float64),
            edge_var=edge_var,
            unary_message=_normalize_rows(graph.unary_log.copy()),
            live_log=graph.log_table[live],
            live_states=(live[:, None] >> np.array([2, 1, 0])) & 1,
        )


def _variable_round(store: MessageStore) -> np.ndarray:
    m = store.graph.num_variables
    sums, counts = _segment_saturating_sums(store.factor_to_var, store.edge_var, m)
    dead = store.factor_to_var <= LOG_ZERO_BOUND
    finite = np.where(dead, 0.0, store.factor_to_var)
    out = sums[store.edge_var] - finite
    out_counts = counts[store.edge_var] - dead
    computed = np.where(out_counts > 0.5, LOG_ZERO, out)
    return _normalize_rows(computed)


def _factor_round(store: MessageStore, fresh_v2f: np.ndarray) -> np.ndarray:
    """Ternary factor-to-variable messages, (3t, 2) rows in edge order."""
    q = fresh_v2f[store.graph.num_variables:].reshape(-1, 3, 2)
    states = store.live_states
    out = np.empty(q.shape, dtype=np.float64)
    # Each target slot maxes, per target state, over the live configurations
    # with that state, scored by the incoming messages of the other two slots.
    for target, (a, b) in enumerate(((1, 2), (0, 2), (0, 1))):
        scores = store.live_log + (q[:, a, states[:, a]] + q[:, b, states[:, b]])
        for state in (0, 1):
            out[:, target, state] = scores[:, states[:, target] == state].max(axis=1)
    return _normalize_rows(out.reshape(-1, 2))


def jacobi_round(store: MessageStore, damping: float) -> float:
    """Run one synchronous round in place; return the max message change."""
    m = store.graph.num_variables
    fresh_v2f = _damp(store.var_to_factor, _variable_round(store), damping)
    # Unary messages stay pinned and are never damped.
    fresh_f2v = np.concatenate([
        store.unary_message,
        _damp(store.factor_to_var[m:], _factor_round(store, fresh_v2f), damping),
    ])
    delta = 0.0
    if store.var_to_factor.size:
        delta = float(np.abs(fresh_v2f - store.var_to_factor).max())
        delta = max(delta, float(np.abs(fresh_f2v - store.factor_to_var).max()))
    store.var_to_factor = fresh_v2f
    store.factor_to_var = fresh_f2v
    return delta


def _beliefs(store: MessageStore) -> np.ndarray:
    m = store.graph.num_variables
    sums, counts = _segment_saturating_sums(store.factor_to_var, store.edge_var, m)
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


def lbp_map(
    graph: FactorGraph,
    config: LbpConfig | None = None,
    repair: bool = False,
) -> AssignmentGraph:
    """Decode an approximate MAP assignment with loopy max-product."""
    config = config or LbpConfig()
    store = MessageStore.initial(graph)
    iterations = 0
    converged = False
    for iteration in range(1, config.max_iterations + 1):
        delta = jacobi_round(store, config.damping)
        iterations = iteration
        if config.tolerance > 0.0 and delta < config.tolerance:
            converged = True
            break
    beliefs = _beliefs(store)
    labels = (beliefs[:, 1] > beliefs[:, 0]).astype(np.int64)
    margins = np.clip(beliefs[:, 1] - beliefs[:, 0], -abs(LOG_ZERO), abs(LOG_ZERO))
    score = joint_log_score(graph, labels)
    violations = violated_cliques(graph, labels)
    assignment = AssignmentGraph(
        kind=graph.kind,
        pairs=graph.pairs,
        labels=labels,
        log_score=score,
        violations=violations,
        iterations=iterations,
        converged=converged,
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
