"""Binary logistic regression with full-batch gradient descent, plus the
confusion-matrix and ranking metrics used to report classifier quality.

The trainer minimizes mean negative log-likelihood plus an L2 penalty on
the weights (bias unregularized), with zero initialization and backtracking
halving of the step whenever a step would increase the loss. This keeps
training deterministic and the loss non-increasing, which the test suite
checks directly. One step costs one ``X @ w`` per trial point and one
``X.T @ r``: the logits of an accepted trial point give the next residual,
and ``X.T`` is built once per fit as a CSR matrix.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np
import scipy.sparse as sp

from ._checks import check_field_types

LOGISTIC_FORMAT_VERSION = 1

# Give up on a gradient step once backtracking has shrunk it below this.
_MIN_STEP = 1e-18


@dataclass(frozen=True)
class TrainConfig:
    """Full-batch gradient-descent settings."""

    l2_lambda: float = 1e-4
    max_iterations: int = 500
    learning_rate: float = 1.0
    tolerance: float = 1e-6

    def __post_init__(self) -> None:
        check_field_types(self)
        if self.l2_lambda < 0:
            raise ValueError(f"l2_lambda must be >= 0, got {self.l2_lambda}")
        if self.max_iterations < 0:
            raise ValueError(f"max_iterations must be >= 0, got {self.max_iterations}")
        if self.learning_rate <= 0:
            raise ValueError(f"learning_rate must be > 0, got {self.learning_rate}")
        if self.tolerance <= 0:
            raise ValueError(f"tolerance must be > 0, got {self.tolerance}")


@dataclass(frozen=True, eq=False)
class LogisticModel:
    """Trained linear classifier: dense weights and a scalar bias."""

    weights: np.ndarray
    bias: float

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=np.float64)
        object.__setattr__(self, "weights", w)
        if not (np.all(np.isfinite(w)) and np.isfinite(self.bias)):
            raise ValueError("model parameters must be finite")

    @property
    def dimension(self) -> int:
        return int(self.weights.size)

    def predict_proba(self, X: sp.csr_matrix) -> np.ndarray:
        """P(label = 1 | row) for each row of ``X``, via a numerically
        stable sigmoid."""
        if X.shape[1] != self.dimension:
            raise ValueError(
                f"feature dimension {X.shape[1]} does not match model "
                f"dimension {self.dimension}"
            )
        return _sigmoid(X @ self.weights + self.bias)


@dataclass(frozen=True)
class EvalReport:
    """Held-out metrics: confusion counts plus the derived rates and AUC.

    Precision/recall are reported as 0.0 with the matching ``*_defined``
    flag cleared when their denominator is empty.
    """

    accuracy: float
    precision: float
    recall: float
    f1: float
    auc: float
    tp: int
    fp: int
    tn: int
    fn: int
    precision_defined: bool = True
    recall_defined: bool = True


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # exp of -|z| never overflows; for z < 0 it is exactly exp(z).
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _objective(z: np.ndarray, weights: np.ndarray, y: np.ndarray, l2_lambda: float) -> float:
    # log(1 + e^z) - y*z without overflow. Keep logaddexp: another formula
    # can move the loss by an ulp and flip the trainer's `new <= cur` test.
    nll = np.mean(np.logaddexp(0.0, z) - y * z)
    return float(nll + 0.5 * l2_lambda * np.dot(weights, weights))


def _gradient_at(
    z: np.ndarray, weights: np.ndarray, Xt: sp.spmatrix, y: np.ndarray, l2_lambda: float
) -> tuple[np.ndarray, float]:
    # Xt is X transposed; the trainer passes a CSR copy, whose row gather
    # adds the same products in the same order as the CSC view's scatter.
    residual = (_sigmoid(z) - y) / y.size
    return Xt @ residual + l2_lambda * weights, float(residual.sum())


def loss(
    weights: np.ndarray, bias: float, X: sp.csr_matrix, y: np.ndarray, l2_lambda: float
) -> float:
    """Mean negative log-likelihood plus (l2_lambda / 2) * ||w||^2."""
    return _objective(X @ weights + bias, weights, y, l2_lambda)


def gradient(
    weights: np.ndarray, bias: float, X: sp.csr_matrix, y: np.ndarray, l2_lambda: float
) -> tuple[np.ndarray, float]:
    """Analytic gradient of :func:`loss` w.r.t. weights and bias."""
    return _gradient_at(X @ weights + bias, weights, X.T, y, l2_lambda)


def fit_with_history(
    X: sp.csr_matrix, y: Sequence[bool], config: TrainConfig | None = None
) -> tuple[LogisticModel, list[float]]:
    """Train and also return the loss at each accepted iterate.

    The history starts with the loss at the zero initialization, so entry i
    is the loss after i accepted steps.
    """
    if config is None:
        config = TrainConfig()
    if X.shape[0] != len(y):
        raise ValueError(f"got {X.shape[0]} feature rows but {len(y)} labels")
    if X.shape[0] < 2:
        raise ValueError("training requires at least 2 examples")
    yv = np.array([1.0 if label else 0.0 for label in y])
    if yv.min() == yv.max():
        raise ValueError("training labels contain a single class")

    Xt = X.T.tocsr()
    w = np.zeros(X.shape[1])
    b = 0.0
    z = X @ w + b  # logits of the current iterate, reused by its gradient
    cur = _objective(z, w, yv, config.l2_lambda)
    history = [cur]

    for _ in range(config.max_iterations):
        if not np.isfinite(cur):
            raise ValueError("training loss is not finite")
        grad_w, grad_b = _gradient_at(z, w, Xt, yv, config.l2_lambda)
        if max(np.max(np.abs(grad_w), initial=0.0), abs(grad_b)) < config.tolerance:
            break
        step = config.learning_rate
        while step >= _MIN_STEP:
            w_new = w - step * grad_w
            b_new = b - step * grad_b
            z_new = X @ w_new + b_new
            new = _objective(z_new, w_new, yv, config.l2_lambda)
            if new <= cur:
                break
            step *= 0.5
        else:
            break  # no step improves the loss; we are at numerical precision
        w, b, z, cur = w_new, b_new, z_new, new
        history.append(cur)

    return LogisticModel(weights=w, bias=b), history


def train_logistic(
    X: sp.csr_matrix, y: Sequence[bool], config: TrainConfig | None = None
) -> LogisticModel:
    """Train a binary logistic regression model on sparse features."""
    model, _ = fit_with_history(X, y, config)
    return model


def roc_auc(scores: Sequence[float], labels: Sequence[bool]) -> float:
    """Area under the ROC curve via average ranks (ties count one half).

    Equals the fraction of (positive, negative) pairs ranked correctly,
    which the test suite verifies against brute-force pair counting.
    """
    s = np.asarray(scores, dtype=np.float64)
    lab = np.asarray(labels, dtype=bool)
    if s.shape != lab.shape or s.ndim != 1:
        raise ValueError("scores and labels must be 1-D and the same length")
    n_pos = int(lab.sum())
    n_neg = int(lab.size - n_pos)
    if n_pos == 0 or n_neg == 0:
        raise ValueError("ROC AUC requires both classes to be present")

    order = np.argsort(s, kind="mergesort")
    ranks = np.empty(s.size, dtype=np.float64)
    i = 0
    while i < s.size:
        j = i
        while j + 1 < s.size and s[order[j + 1]] == s[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0  # average 1-based rank
        i = j + 1

    pos_rank_sum = float(ranks[lab].sum())
    return (pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def evaluate(
    model: LogisticModel,
    X: sp.csr_matrix,
    y: Sequence[bool],
    threshold: float = 0.5,
) -> EvalReport:
    """Score a test set: confusion counts, rates, and ROC AUC."""
    if X.shape[0] != len(y):
        raise ValueError(f"got {X.shape[0]} feature rows but {len(y)} labels")
    truth = np.asarray(y, dtype=bool)
    probs = model.predict_proba(X)
    preds = probs > threshold

    tp = int(np.sum(preds & truth))
    fp = int(np.sum(preds & ~truth))
    tn = int(np.sum(~preds & ~truth))
    fn = int(np.sum(~preds & truth))

    precision_defined = (tp + fp) > 0
    recall_defined = (tp + fn) > 0
    precision = tp / (tp + fp) if precision_defined else 0.0
    recall = tp / (tp + fn) if recall_defined else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0

    return EvalReport(
        accuracy=(tp + tn) / truth.size,
        precision=precision,
        recall=recall,
        f1=f1,
        auc=roc_auc(probs, truth),
        tp=tp,
        fp=fp,
        tn=tn,
        fn=fn,
        precision_defined=precision_defined,
        recall_defined=recall_defined,
    )


def save_logistic(model: LogisticModel, path: str | Path) -> None:
    """Write a model as versioned JSON with sparse [index, value] weights."""
    nz = np.nonzero(model.weights)[0]
    payload = {
        "format_version": LOGISTIC_FORMAT_VERSION,
        "dimension": model.dimension,
        "bias": model.bias,
        "weights": [[int(i), float(model.weights[i])] for i in nz],
    }
    Path(path).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def load_logistic(path: str | Path) -> LogisticModel:
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    version = payload.get("format_version")
    if version != LOGISTIC_FORMAT_VERSION:
        raise ValueError(f"unsupported logistic model format version: {version!r}")
    w = np.zeros(payload["dimension"])
    for i, v in payload["weights"]:
        w[i] = v
    return LogisticModel(weights=w, bias=float(payload["bias"]))
