"""Max-product inference over relationship factor graphs.

Messages live in the log domain (max-sum).  Every variable is binary, so a
max-normalized message is fully described by one number, its log-odds
d = m(1) - m(0), and the store keeps one float per edge and direction.  A
synchronous Jacobi round first recomputes every variable-to-factor message
from the previous round's factor-to-variable messages, then every
factor-to-variable message from the fresh batch.  Each new message is
clipped to +-MESSAGE_SPREAD_CAP and damped against the old one in place,
and the old arrays are overwritten with each edge's absolute change,
whose maximum drives the convergence test.

Messages carry no hard zeros.  Priors are clamped away from 0 and 1, every
free configuration of a ternary table is strictly positive, and each target
state of each clique slot has a free configuration, so every message is
finite.  A factor's message to one clique slot depends only on the states
of the other two slots, whose incoming log-odds are d_a and d_b.  So per
target state it is an elementwise max over at most four length-t vectors,
w, w + d_a, w + d_b or w + (d_a + d_b), one per live configuration with
log-potential w.  The live configurations are those the kind's
``forbidden`` table leaves free; the audit, the joint score and the oracle
read the same table, and a decode's ``violations`` are the concept triples
of its broken cliques, as ``audit_labels`` of its label map finds them.
One read-out of a labelling's clique codes gives both its score and its
broken cliques.

Unary factors have degree one, so their outgoing message is pinned to the
unary log-odds and is not damped; a graph without ternary factors therefore
converges in two rounds to the prior argmax.

Each round ends with one ``bincount`` of the fresh factor-to-variable
messages: the variables' beliefs.  They decide the labels (belief > 0) and
feed the next round's variable update, so watching the labels costs no
extra pass over the edges.  A graph stops at the first of three events:
its delta (the largest change over its edges) falls below the tolerance,
its labels have not changed for STABLE_ROUNDS rounds in a row, or it
reaches the round cap.  A decode returns labels, not messages: under a
table that keeps messages moving, the delta can plateau well above any
tolerance while the labels stay still, so the label stop ends such a
decode at its last label change plus STABLE_ROUNDS instead of running on
to the cap.  A tolerance of 0 turns both early stops off.

Several graphs under one potential decode as a batch: one message store
holds their disjoint union, and each round runs the same kernels over all
of it.  Every step is edge-wise except the variable-side sums, which add
each variable's edges in the same order as a store of its graph alone, so
each graph's messages match a lone decode bit for bit.  After a round each
graph takes its own delta and label test; a graph that stops is frozen,
its beliefs read off, and the store shrinks to the graphs still running.
A single graph is a batch of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import ConfigurationError
from .graph import FactorGraph, configuration_codes
from .model import CONFIGURATIONS, LOG_ZERO, AssignmentGraph, TernaryPotential

ORACLE_VARIABLE_CAP = 25
_ORACLE_CHUNK = 1 << 16

# On cyclic graphs a max-sum message's log-odds can drift toward +-inf at a
# constant rate per round, which keeps the convergence delta pinned at that
# rate forever.  Capping it at 50 (~e^50 to one) is decision-equivalent and
# lets saturated messages actually stop moving.
MESSAGE_SPREAD_CAP = 50.0

# Rounds in a row with unchanged labels after which a decode stops.  A
# decode whose delta converges within this window keeps its round count:
# the bench's dense graph converges at round 29 and the three-pair conflict
# instance after more than twenty, so windows of 10 or 20 cut those short.
STABLE_ROUNDS = 30

# 0-d float64 operands: a Python float costs every ufunc call a conversion.
_LOW, _HIGH = np.array(-MESSAGE_SPREAD_CAP), np.array(MESSAGE_SPREAD_CAP)


@dataclass(frozen=True)
class LbpConfig:
    """Knobs for loopy max-product.

    A positive tolerance stops a decode once no message's log-odds moved
    that much in a round, or once its labels have held for STABLE_ROUNDS
    rounds in a row, whichever comes first.  tolerance = 0 disables both
    early stops and forces the full iteration budget.  A decode reports
    ``converged`` when either early stop ended it before max_iterations.
    """

    max_iterations: int = 200
    damping: float = 0.5
    tolerance: float = 1e-6

    def __post_init__(self) -> None:
        if self.max_iterations < 1:
            raise ConfigurationError("max_iterations must be at least 1")
        if not 0.0 <= self.damping < 1.0:
            raise ConfigurationError("damping must lie in [0, 1)")
        if not 0.0 <= self.tolerance < math.inf:  # also rejects NaN
            raise ConfigurationError("tolerance must be finite and non-negative")


def _cap(log_odds: np.ndarray) -> np.ndarray:
    """Clip log-odds to +-MESSAGE_SPREAD_CAP in place and return them."""
    np.maximum(log_odds, _LOW, out=log_odds)
    return np.minimum(log_odds, _HIGH, out=log_odds)


@dataclass
class MessageStore:
    """Message log-odds over the variables and ternary cliques of one or more graphs.

    Each array holds one float64 per edge: the message's log-odds
    m(1) - m(0), within +-MESSAGE_SPREAD_CAP.  Edges are laid out
    unary-first: edge e < m is the unary edge of variable e; edges m + 3f + s
    belong to ternary factor f, slot s, where slots follow the clique order
    (x_ij, x_jk, x_ik).  A store over several graphs holds their disjoint
    union: each graph's variable and clique ids are offset past those of the
    graphs before it, so every variable meets its edges in the same order as
    in a store of its own graph, and each graph's messages evolve bit for
    bit as they would alone.  All graphs of a store share one potential.

    ``plan`` is that potential's factor-side update, read once from its log
    table: for each target slot and each target state (0, then 1), the
    live configurations as ``(code, w)`` with ``code = 2·s_a + s_b`` the
    states of the other two slots in clique order and ``w`` the
    configuration's log-potential as a 0-d float64 array.
    """

    var_to_factor: np.ndarray  # (E,)
    factor_to_var: np.ndarray  # (E,)
    edge_var: np.ndarray       # (E,)
    unary_message: np.ndarray  # (m,) unary log-odds
    plan: tuple                # [target slot][target state] -> ((code, w), ...)
    variables: np.ndarray      # (G,) variables of each graph, each at least one
    factors: np.ndarray        # (G,) ternary factors of each graph

    def __post_init__(self) -> None:
        # runs: the first edge of each graph's unary run, then of each nonempty
        # ternary run; ternary_run: a graph's ternary run there, else its unary.
        has_cliques = self.factors > 0
        starts = self.num_variables + 3 * (np.cumsum(self.factors) - self.factors)
        self.runs = np.concatenate([np.cumsum(self.variables) - self.variables, starts[has_cliques]])
        self.ternary_run = np.arange(len(self.variables))
        self.ternary_run[has_cliques] = len(self.variables) + np.arange(has_cliques.sum())

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
        unary_log = np.concatenate([g.unary_log for g in graphs])
        return cls(
            var_to_factor=np.zeros(edges, dtype=np.float64),
            factor_to_var=np.zeros(edges, dtype=np.float64),
            edge_var=np.concatenate([np.arange(m, dtype=np.int64), triples.ravel()]),
            unary_message=_cap(unary_log[:, 1] - unary_log[:, 0]),
            plan=_factor_plan(graphs[0].potential),
            variables=np.array(sizes),
            factors=np.array([g.num_ternary_factors for g in graphs]),
        )

    def take(self, kept: np.ndarray) -> "MessageStore":
        """The store restricted to the graphs that ``kept`` masks, in order."""
        variables = np.repeat(kept, self.variables)
        edges = np.concatenate([variables, np.repeat(kept, 3 * self.factors)])
        renumbered = np.cumsum(variables) - 1
        return replace(
            self,
            var_to_factor=self.var_to_factor[edges],
            factor_to_var=self.factor_to_var[edges],
            edge_var=renumbered[self.edge_var[edges]],
            unary_message=self.unary_message[variables],
            variables=self.variables[kept],
            factors=self.factors[kept],
        )

    def graph_deltas(self, change: np.ndarray) -> np.ndarray:
        """Each graph's largest change over its edges."""
        maxima = np.maximum.reduceat(change, self.runs)
        return np.maximum(maxima[:len(self.variables)], maxima[self.ternary_run])


# The other two slots of each target slot, in clique order.
_OTHER_SLOTS = ((1, 2), (0, 2), (0, 1))


def _factor_plan(potential: TernaryPotential) -> tuple:
    """Per target slot and target state, the live ``(code, w)`` configurations."""
    log_table = potential.log_table()
    forbidden = potential.kind.forbidden.tolist()
    plan = []
    for target, (a, b) in enumerate(_OTHER_SLOTS):
        by_state: tuple[list, list] = ([], [])
        for cfg, bits in enumerate(CONFIGURATIONS):
            if forbidden[cfg]:
                continue
            by_state[bits[target]].append((2 * bits[a] + bits[b], np.array(log_table[cfg])))
        plan.append(tuple(map(tuple, by_state)))
    return tuple(plan)


def _variable_round(store: MessageStore, beliefs: np.ndarray | None = None) -> np.ndarray:
    beliefs = _beliefs(store) if beliefs is None else beliefs
    fresh = beliefs.take(store.edge_var)
    fresh -= store.factor_to_var
    return _cap(fresh)


def _factor_round(
    store: MessageStore, fresh_v2f: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Ternary factor-to-variable log-odds, (3t,) in edge order, into ``out`` if given."""
    d = fresh_v2f[store.num_variables:].reshape(-1, 3)
    out = np.empty(d.size, dtype=np.float64) if out is None else out
    both, term, off, on = np.empty((4, len(d)))
    for target, (a, b) in enumerate(_OTHER_SLOTS):
        # A live configuration scores w plus the incoming log-odds of the
        # other slots in state 1; code 0 (both in state 0) scores w alone.
        # Each target state's scores fold by max, in plan order, into its buffer.
        d_a, d_b = d[:, a], d[:, b]
        added = (None, d_b, d_a, np.add(d_a, d_b, out=both))
        best = []
        for live, buffer in zip(store.plan[target], (off, on)):
            result = None
            for code, w in live:
                score = np.add(added[code], w, out=buffer if result is None else term) if code else w
                result = score if result is None else np.maximum(result, score, out=buffer)
            best.append(result)
        np.subtract(best[1], best[0], out=out.reshape(-1, 3)[:, target])
    return _cap(out)


def jacobi_round(
    store: MessageStore, damping: float, beliefs: np.ndarray | None = None
) -> np.ndarray:
    """Run one synchronous round in place; return each edge's change.

    An edge's change is the larger absolute move of its two messages'
    log-odds, so a graph's convergence delta is the max over its edges.
    The change overwrites the previous round's message arrays.
    ``beliefs`` are ``_beliefs(store)`` before the round, when the caller
    already holds them; otherwise the round computes them.
    """
    m = store.num_variables
    keep, damping = np.array(1.0 - damping), np.array(damping)
    old_v2f, old_f2v = store.var_to_factor, store.factor_to_var
    fresh_v2f = _variable_round(store, beliefs)
    fresh_v2f *= keep
    damped = np.multiply(old_v2f, damping)
    fresh_v2f += damped
    fresh_f2v = np.empty_like(old_f2v)
    fresh_f2v[:m] = store.unary_message  # pinned and never damped
    ternary = _factor_round(store, fresh_v2f, out=fresh_f2v[m:])
    ternary *= keep
    ternary += np.multiply(old_f2v[m:], damping, out=damped[m:])
    store.var_to_factor, store.factor_to_var = fresh_v2f, fresh_f2v
    old_v2f -= fresh_v2f
    old_f2v -= fresh_f2v
    moved = np.abs(old_v2f, out=old_v2f)
    return np.maximum(moved, np.abs(old_f2v, out=old_f2v), out=moved)


def _beliefs(store: MessageStore) -> np.ndarray:
    """Each variable's belief log-odds: the sum of its incoming messages."""
    return np.bincount(
        store.edge_var, weights=store.factor_to_var, minlength=store.num_variables
    )


def violated_cliques(graph: FactorGraph, labels: np.ndarray) -> list[int]:
    """Indices of ternary cliques whose configuration is forbidden."""
    if graph.num_ternary_factors == 0:
        return []
    codes = configuration_codes(np.asarray(labels, dtype=np.int64), graph.triples)
    return np.flatnonzero(graph.kind.forbidden[codes]).tolist()


def joint_log_score(graph: FactorGraph, labels: Sequence[int] | np.ndarray) -> float:
    """Sum of log unary and log ternary potentials; LOG_ZERO when invalid."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != (graph.num_variables,):
        raise ValueError(
            f"labels must have shape ({graph.num_variables},), got {labels.shape}"
        )
    if labels.size and not np.isin(labels, (0, 1)).all():
        raise ValueError("labels must be 0 or 1")
    return _read_out(graph, labels)[0]


def _read_out(graph: FactorGraph, labels: np.ndarray) -> tuple[float, list[tuple[int, int, int]]]:
    """Joint log score and broken concept triples (i, j, k), in clique order,
    of unchecked int64 0/1 labels that a decoder built: one pass of
    configuration codes serves both, and a broken clique scores LOG_ZERO."""
    score = float(np.where(labels, graph.unary_log[:, 1], graph.unary_log[:, 0]).sum())
    if not graph.num_ternary_factors:
        return score, []
    codes = configuration_codes(labels, graph.triples)
    broken = graph.kind.forbidden[codes]
    if broken.any():
        return LOG_ZERO, list(map(tuple, graph.triple_concepts[broken].tolist()))
    return score + float(graph.log_table[codes].sum()), []


def prior_flips(graph: FactorGraph, labels: np.ndarray) -> list[int]:
    """Variables whose decoded label disagrees with the prior argmax."""
    prior_argmax = graph.unary_log[:, 1] > graph.unary_log[:, 0]
    return np.flatnonzero(np.asarray(labels, dtype=bool) != prior_argmax).tolist()


def greedy_repair(
    graph: FactorGraph,
    labels: np.ndarray,
    margins: np.ndarray,
) -> tuple[np.ndarray, list[int]]:
    """Flip labels until no ternary clique is violated.

    Greedy phase: flip the lowest-margin variable appearing in a violated
    clique, each variable at most once.  Once every variable of the violated
    cliques has been flipped, a demotion phase flips positive labels to 0
    only; every forbidden configuration contains a positive label and
    demotions strictly shrink the positive set, so termination at a valid
    assignment is guaranteed (the all-zero assignment is always valid).
    """
    labels = np.array(labels, dtype=np.int64, copy=True)
    m = graph.num_variables
    flipped_order: list[int] = []
    flipped: set[int] = set()
    for _ in range(4 * m + 8):
        violations = violated_cliques(graph, labels)
        if not violations:
            return labels, flipped_order
        candidates = np.unique(graph.triples[violations].ravel())
        fresh = [int(v) for v in candidates if v not in flipped]
        if fresh:
            target = min(fresh, key=lambda v: (abs(float(margins[v])), v))
            labels[target] ^= 1
        else:
            positives = [int(v) for v in candidates if labels[v] == 1]
            target = min(positives, key=lambda v: (abs(float(margins[v])), v))
            labels[target] = 0
        flipped.add(target)
        flipped_order.append(target)
    raise RuntimeError("repair failed to terminate")  # unreachable by construction


@dataclass(frozen=True)
class Beliefs:
    """A graph's max-marginal belief log-odds where its message rounds stopped.

    ``converged`` is True when an early stop, on the delta or on stable
    labels, ended the rounds, and False when they ran out the round cap.
    ``last_label_change`` is the round whose labels the decode returns: the
    last round whose labels differed from the round before, or 1.
    """

    values: np.ndarray  # (m,)
    iterations: int
    converged: bool
    last_label_change: int | None = None


def max_product_rounds(
    graphs: Sequence[FactorGraph], config: LbpConfig | None = None
) -> list[Beliefs]:
    """Run message rounds on several graphs in one store over their union.

    The graphs must share one potential.  After each round every graph
    takes its own delta, the largest change over its edges, and compares
    its labels with the round before.  A graph stops when its delta fell
    below the tolerance, when its labels have held for STABLE_ROUNDS
    rounds, or at the round cap: its beliefs are read off and its rows
    leave the store.  Each graph's beliefs, round count and flags are
    bitwise those of running it alone.
    """
    config = config or LbpConfig()
    if not graphs:
        raise ConfigurationError("no graphs to decode")
    for index, graph in enumerate(graphs):
        if not graph.num_variables:
            raise ConfigurationError(f"graph {index} has no variables")
        if graph.potential != graphs[0].potential:
            raise ConfigurationError(
                f"graph {index} has a different potential from graph 0; "
                "a batch decodes under one shared potential"
            )
    store = MessageStore.initial(*graphs)
    active = np.arange(len(graphs))  # each graph still in the store, in store order
    out: list[Beliefs | None] = [None] * len(graphs)
    beliefs = _beliefs(store)
    labels = beliefs > 0
    settled = np.ones(len(graphs), dtype=np.int64)  # each graph's last label change
    # Labels must hold this many rounds past their last change.  Since the
    # first change is at round 1 or later, a window of the whole budget is
    # never reached: at tolerance 0 both early stops are off.
    window = STABLE_ROUNDS if config.tolerance > 0 else config.max_iterations
    for iteration in range(1, config.max_iterations + 1):
        delta = store.graph_deltas(jacobi_round(store, config.damping, beliefs))
        beliefs = _beliefs(store)
        fresh = beliefs > 0
        # A graph's variables start where its unary edges do.
        settled[np.logical_or.reduceat(fresh != labels, store.runs[:len(delta)])] = iteration
        labels = fresh
        converged = (delta < config.tolerance) | (settled <= iteration - window)
        last = iteration == config.max_iterations
        if not last and not converged.any():
            continue  # no graph froze
        frozen = converged | last
        for local in np.flatnonzero(frozen):
            start = store.runs[local]
            values = beliefs[start:start + store.variables[local]].copy()
            out[active[local]] = Beliefs(
                values, iteration, bool(converged[local]), int(settled[local])
            )
        if frozen.all():
            break
        kept = ~frozen
        variables = np.repeat(kept, store.variables)
        store = store.take(kept)
        beliefs, labels = beliefs[variables], labels[variables]
        active, settled = active[kept], settled[kept]
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
    ``violations`` are the concept triples of the broken cliques.
    """
    if beliefs is None:
        [beliefs] = max_product_rounds([graph], config)
    margins = beliefs.values
    labels = (margins > 0).astype(np.int64)
    score, violations = _read_out(graph, labels)
    pre_repair = None
    if repair and violations:
        labels, flips = greedy_repair(graph, labels, margins)
        pre_repair = dict(log_score=score, violations=len(violations), flipped_variables=flips)
        score, violations = _read_out(graph, labels)
    return AssignmentGraph(
        kind=graph.kind,
        pairs=graph.pairs,
        labels=labels,
        log_score=score,
        violations=violations,
        iterations=beliefs.iterations,
        converged=beliefs.converged,
        last_label_change=beliefs.last_label_change,
        margins=margins,
        repaired=pre_repair is not None,
        pre_repair=pre_repair,
    )


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
    forbidden = graph.kind.forbidden
    best_code = 0
    best_score = -math.inf
    total = 1 << m
    for start in range(0, total, _ORACLE_CHUNK):
        codes = np.arange(start, min(start + _ORACLE_CHUNK, total), dtype=np.uint64)
        bits = ((codes[:, None] >> shifts[None, :]) & np.uint64(1)).astype(np.int64)
        scores = bits @ gain + base
        if triples.shape[0]:
            cfg = configuration_codes(bits, triples)
            scores = np.where(
                forbidden[cfg].any(axis=1), LOG_ZERO, scores + log_table[cfg].sum(axis=1)
            )
        pick = int(np.argmax(scores))
        if float(scores[pick]) > best_score:
            best_score = float(scores[pick])
            best_code = start + pick
    labels = ((best_code >> (m - 1 - np.arange(m))) & 1).astype(np.int64)
    score, violations = _read_out(graph, labels)
    return AssignmentGraph(graph.kind, graph.pairs, labels, score, violations)
