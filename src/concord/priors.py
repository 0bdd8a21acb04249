"""Per-pair prior beliefs: string features, a logistic model, calibration.

Features only look at the two concepts, never at graph structure, so the
prior for a pair is independent of every other pair.  All features are
symmetric in their arguments.  What a feature reads from one concept (its
lowered name, tokens, q-grams, edit-distance bitmasks and lowered values)
is ``Concept.signals``: computed once per concept and shared by all of its
pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from .errors import ConfigurationError, InputFormatError
from .fileio import PRIORS_HEADER, parse_float, read_pair_rows
# QGRAM_SIZE and qgrams live in model, beside the Concept signals built from
# them, and are re-exported here.
from .model import QGRAM_SIZE, Concept, PriorBelief, RelationshipKind, char_masks, qgrams  # noqa: F401

FEATURE_NAMES = (
    "qgram_similarity",
    "token_jaccard",
    "edit_similarity",
    "word_count_ratio",
    "char_count_ratio",
    "value_jaccard",
    "embedding_cosine",
)

# Temperatures calibrate_temperature tries by default.
TEMPERATURE_GRID = (0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0)


@dataclass(frozen=True)
class FeatureVector:
    """Similarity features for one concept pair.

    value_jaccard and embedding_cosine are None when the underlying signal
    is absent; as_array imputes 0.0 for missing components.
    """

    qgram_similarity: float
    token_jaccard: float
    edit_similarity: float
    word_count_ratio: float
    char_count_ratio: float
    value_jaccard: float | None
    embedding_cosine: float | None

    def as_array(self) -> np.ndarray:
        return np.array(
            [
                self.qgram_similarity,
                self.token_jaccard,
                self.edit_similarity,
                self.word_count_ratio,
                self.char_count_ratio,
                0.0 if self.value_jaccard is None else self.value_jaccard,
                0.0 if self.embedding_cosine is None else self.embedding_cosine,
            ],
            dtype=np.float64,
        )


def _jaccard(a: frozenset, b: frozenset) -> float:
    if not a and not b:
        return 1.0
    if not a or not b:
        return 0.0
    shared = len(a & b)
    return shared / (len(a) + len(b) - shared)


def _edit_distance(text: str, peq: Mapping[str, int], mask: int) -> int:
    """Edit distance between ``text`` and the string whose ``char_masks``
    are ``peq`` and ``mask``, by the bit-parallel algorithm of Myers (1999)
    in the form Hyyrö (2001) gives for Levenshtein distance.

    Bit i of pv/mv says the DP column steps up/down by one at row i of the
    masked string; one pass over ``text`` updates all rows at once, and the
    last column, read off at the end, holds the distance.  Python ints are
    unbounded, so names of any length take the same path.  Masking the
    shorter of the two strings keeps the ints smallest.
    """
    pv, mv = mask, 0
    for c in text:
        eq = peq.get(c, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | ~(xh | pv)
        mh = pv & xh
        ph = (ph << 1) | 1
        pv = ((mh << 1) | ~(xv | ph)) & mask
        mv = ph & xv
    # The top cell of the last column is len(text); add its vertical steps.
    return len(text) + pv.bit_count() - mv.bit_count()


def _levenshtein(a: str, b: str) -> int:
    """Edit distance between two strings; equal to the two-row DP reference
    in the tests for every input."""
    if len(a) < len(b):
        a, b = b, a
    return _edit_distance(a, *char_masks(b))


def _ratio(x: int, y: int) -> float:
    if x == 0 and y == 0:
        return 1.0
    if x == 0 or y == 0:
        return 0.0
    return min(x, y) / max(x, y)


def _cosine(u: np.ndarray, v: np.ndarray) -> float:
    nu = np.linalg.norm(u)
    nv = np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        return 0.0
    return float(np.clip(np.dot(u, v) / (nu * nv), -1.0, 1.0))


def extract_features(
    a: Concept,
    b: Concept,
    embeddings: Mapping[int, np.ndarray] | None = None,
) -> FeatureVector:
    """Symmetric similarity features between two concepts."""
    sa, sb = a.signals, b.signals
    if len(sa.name) < len(sb.name):
        sa, sb = sb, sa
    max_len = len(sa.name)
    edit_sim = 1.0 - _edit_distance(sa.name, sb.peq, sb.mask) / max_len if max_len else 1.0

    value_jaccard = None
    if sa.values and sb.values:
        value_jaccard = _jaccard(sa.values, sb.values)

    embedding_cosine = None
    if embeddings is not None and a.id in embeddings and b.id in embeddings:
        embedding_cosine = _cosine(embeddings[a.id], embeddings[b.id])

    return FeatureVector(
        qgram_similarity=_jaccard(sa.grams, sb.grams),
        token_jaccard=_jaccard(sa.tokens, sb.tokens),
        edit_similarity=edit_sim,
        word_count_ratio=_ratio(sa.words, sb.words),
        char_count_ratio=_ratio(len(sa.name), len(sb.name)),
        value_jaccard=value_jaccard,
        embedding_cosine=embedding_cosine,
    )


@dataclass(frozen=True)
class LinearPriorModel:
    """Logistic scorer p(label=1) = sigmoid((w . x + bias) / temperature)."""

    weights: tuple[float, ...]
    bias: float
    temperature: float = 1.0

    def __post_init__(self) -> None:
        if len(self.weights) != len(FEATURE_NAMES):
            raise ValueError(f"expected {len(FEATURE_NAMES)} weights")
        if not (math.isfinite(self.temperature) and self.temperature > 0):
            raise ValueError(f"temperature must be positive and finite, got {self.temperature}")

    @cached_property
    def _weight_array(self) -> np.ndarray:
        weights = np.asarray(self.weights)
        weights.flags.writeable = False
        return weights

    def logit(self, features: FeatureVector | np.ndarray) -> float:
        x = features.as_array() if isinstance(features, FeatureVector) else np.asarray(features)
        return float(np.dot(self._weight_array, x) + self.bias)

    def with_temperature(self, temperature: float) -> "LinearPriorModel":
        return replace(self, temperature=float(temperature))

    def to_dict(self) -> dict:
        return {
            "feature_names": list(FEATURE_NAMES),
            "weights": list(self.weights),
            "bias": self.bias,
            "temperature": self.temperature,
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "LinearPriorModel":
        return cls(
            weights=tuple(float(w) for w in payload["weights"]),
            bias=float(payload["bias"]),
            temperature=float(payload.get("temperature", 1.0)),
        )


def predict_prior(model: LinearPriorModel, features: FeatureVector | np.ndarray) -> PriorBelief:
    z = model.logit(features) / model.temperature
    # PriorBelief clamps into [eps, 1 - eps], so capping exp's argument
    # below its overflow point changes no result.
    return PriorBelief(1.0 / (1.0 + math.exp(min(-z, 700.0))))


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1.0
    epochs: int = 500
    class_weighted: bool = True

    def __post_init__(self) -> None:
        # Any of these leaves the all-zero starting model untouched.
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ConfigurationError(
                f"learning rate must be positive and finite, got {self.learning_rate}"
            )
        if self.epochs < 1:
            raise ConfigurationError(f"epochs must be at least 1, got {self.epochs}")


def _weighted_loss_grad(
    params: np.ndarray, X: np.ndarray, y: np.ndarray, sample_w: np.ndarray
) -> tuple[float, np.ndarray]:
    # Stable weighted log-loss: softplus(z) - y*z, averaged under sample_w.
    z = X @ params[:-1] + params[-1]
    softplus = np.where(z > 30, z, np.log1p(np.exp(np.minimum(z, 30))))
    loss = float(np.sum(sample_w * (softplus - y * z)) / np.sum(sample_w))
    residual = sample_w * (1.0 / (1.0 + np.exp(np.minimum(-z, 700.0))) - y)
    grad = np.concatenate([X.T @ residual, [np.sum(residual)]]) / np.sum(sample_w)
    return loss, grad


def train_linear_prior(
    examples: Sequence[tuple[FeatureVector | np.ndarray, int]],
    config: TrainConfig = TrainConfig(),
) -> LinearPriorModel:
    """Fit the logistic model by full-batch gradient descent.

    Deterministic: weights start at zero and the batch order never matters.
    Class weights are inversely proportional to class frequency so the rare
    positive class is not drowned out.  A halving line search keeps the loss
    non-increasing even for aggressive learning rates.
    """
    if not examples:
        raise ConfigurationError("training set is empty")
    X = np.stack(
        [f.as_array() if isinstance(f, FeatureVector) else np.asarray(f, dtype=np.float64) for f, _ in examples]
    )
    y = np.array([label for _, label in examples], dtype=np.float64)
    if set(np.unique(y)) != {0.0, 1.0}:
        raise ConfigurationError("training set must contain both classes")

    if config.class_weighted:
        n = y.size
        n_pos = float(y.sum())
        class_w = {0.0: n / (2.0 * (n - n_pos)), 1.0: n / (2.0 * n_pos)}
        sample_w = np.array([class_w[v] for v in y])
    else:
        sample_w = np.ones_like(y)

    params = np.zeros(X.shape[1] + 1, dtype=np.float64)
    loss, grad = _weighted_loss_grad(params, X, y, sample_w)
    for _ in range(config.epochs):
        step = config.learning_rate
        for _ in range(40):
            candidate = params - step * grad
            new_loss, new_grad = _weighted_loss_grad(candidate, X, y, sample_w)
            if new_loss <= loss:
                break
            step *= 0.5
        else:
            break  # no step length improves the loss: converged
        params, improvement = candidate, loss - new_loss
        loss, grad = new_loss, new_grad
        if improvement < 1e-12:
            break
    return LinearPriorModel(weights=tuple(params[:-1]), bias=float(params[-1]))


def _nll(logits: np.ndarray, y: np.ndarray, temperature: float) -> float:
    z = logits / temperature
    softplus = np.where(z > 30, z, np.log1p(np.exp(np.minimum(z, 30))))
    return float(np.mean(softplus - y * z))


def calibrate_temperature(
    model: LinearPriorModel,
    validation: Sequence[tuple[FeatureVector | np.ndarray, int]],
    grid: Sequence[float] = TEMPERATURE_GRID,
) -> LinearPriorModel:
    """Pick the grid temperature with the lowest validation NLL.

    Temperature rescales logits, so the argmax of every prediction is
    preserved.  Ties keep the earliest grid entry.
    """
    if not validation:
        raise ConfigurationError("validation set is empty")
    if not grid:
        raise ConfigurationError("temperature grid is empty")
    for t in grid:
        if not (math.isfinite(t) and t > 0):
            raise ConfigurationError(f"temperatures must be positive and finite, got {t}")
    logits = np.array([model.logit(f) for f, _ in validation])
    y = np.array([label for _, label in validation], dtype=np.float64)
    best_t, best_nll = None, math.inf
    for t in grid:
        nll = _nll(logits, y, t)
        if nll < best_nll:
            best_t, best_nll = t, nll
    return model.with_temperature(best_t)


def load_external_priors(
    path: str, n_concepts: int, kind: RelationshipKind
) -> dict[tuple[int, int], PriorBelief]:
    """Read a priors CSV into a pair-keyed belief map.

    Pairs are canonicalized for symmetric relationships, so listing both
    (i, j) and (j, i) is reported as a duplicate.
    """
    priors: dict[tuple[int, int], PriorBelief] = {}
    for line, pair, row in read_pair_rows(path, PRIORS_HEADER, n_concepts, kind):
        p_one = parse_float(path, line, row[2], "p_one")
        if not 0.0 <= p_one <= 1.0:  # also rejects NaN
            raise InputFormatError(path, line, f"p_one must lie in [0, 1], got {p_one}")
        priors[pair] = PriorBelief(p_one)
    return priors
