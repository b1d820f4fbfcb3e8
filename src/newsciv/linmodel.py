"""Binary logistic regression trained by L-BFGS, plus the confusion-matrix
and ranking metrics used to report classifier quality.

The trainer minimizes mean negative log-likelihood plus an L2 penalty on
the weights (bias unregularized) over [w, b] from zero initialization, by
L-BFGS (Liu & Nocedal 1989) with an Armijo backtracking line search that
starts at step 1. Training is deterministic and every accepted step lowers
the loss. Each evaluation costs one ``X @ w`` and one ``X.T @ r``, with
``X.T`` built once per fit as a CSR matrix.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from ._checks import check_field_types, check_object, is_finite_number, is_nonnegative_int

if TYPE_CHECKING:
    import scipy.sparse as sp

DECISION_THRESHOLD = 0.5  # ``evaluate`` predicts positive strictly above this

_MEMORY = 10  # curvature pairs kept by L-BFGS
_ARMIJO = 1e-4  # sufficient-decrease constant of the line search
_MAX_HALVINGS = 40  # steps below 2**-40 count as a failed line search


@dataclass(frozen=True)
class TrainConfig:
    """L2 strength and the L-BFGS stopping rules."""

    l2_lambda: float = 1e-3
    max_iterations: int = 500
    tolerance: float = 1e-6

    def __post_init__(self) -> None:
        check_field_types(self)
        if self.l2_lambda < 0:
            raise ValueError(f"l2_lambda must be >= 0, got {self.l2_lambda}")
        if self.max_iterations < 0:
            raise ValueError(f"max_iterations must be >= 0, got {self.max_iterations}")
        if self.tolerance <= 0:
            raise ValueError(f"tolerance must be > 0, got {self.tolerance}")


@dataclass(frozen=True)
class Convergence:
    """How a fit ended: accepted steps, max |gradient| at the returned
    point, and the stop reason (``gradient``, ``max_iterations`` or
    ``line_search``)."""

    iterations: int
    grad_max: float
    stop: str


@dataclass(frozen=True, eq=False)
class LogisticModel:
    """Trained linear classifier: dense weights and a scalar bias, plus the
    fit's convergence record (None for a model loaded from disk)."""

    weights: np.ndarray
    bias: float
    convergence: Convergence | None = None

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
        return _sigmoid(*_logits(X, self.weights, self.bias))


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


def _logits(X: sp.csr_matrix, weights: np.ndarray, bias: float) -> tuple[np.ndarray, np.ndarray]:
    """Logits z = X @ w + b and e = exp(-|z|), which never overflows and
    serves both the loss and the sigmoid."""
    z = X @ weights + bias
    return z, np.exp(-np.abs(z))


def _sigmoid(z: np.ndarray, e: np.ndarray) -> np.ndarray:
    # For z < 0, e is exactly exp(z).
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def _objective(
    z: np.ndarray, e: np.ndarray, weights: np.ndarray, y: np.ndarray, l2_lambda: float
) -> float:
    # log(1 + e^z) - y*z = max(z, 0) + log1p(exp(-|z|)) - y*z, without overflow.
    nll = np.mean(np.maximum(z, 0.0) + np.log1p(e) - y * z)
    return float(nll + 0.5 * l2_lambda * np.dot(weights, weights))


def _gradient_at(
    z: np.ndarray, e: np.ndarray, weights: np.ndarray, Xt: sp.spmatrix, y: np.ndarray,
    l2_lambda: float,
) -> tuple[np.ndarray, float]:
    residual = (_sigmoid(z, e) - y) / y.size
    return Xt @ residual + l2_lambda * weights, float(residual.sum())


def loss(
    weights: np.ndarray, bias: float, X: sp.csr_matrix, y: np.ndarray, l2_lambda: float
) -> float:
    """Mean negative log-likelihood plus (l2_lambda / 2) * ||w||^2."""
    return _objective(*_logits(X, weights, bias), weights, y, l2_lambda)


def gradient(
    weights: np.ndarray, bias: float, X: sp.csr_matrix, y: np.ndarray, l2_lambda: float
) -> tuple[np.ndarray, float]:
    """Analytic gradient of :func:`loss` w.r.t. weights and bias."""
    return _gradient_at(*_logits(X, weights, bias), weights, X.T, y, l2_lambda)


def _lbfgs_direction(g: np.ndarray, memory: deque) -> np.ndarray:
    """-H g, where H is the L-BFGS inverse-Hessian estimate built from the
    stored (s, y, 1 / s.y) pairs, oldest first: the two-loop recursion of
    Liu & Nocedal (1989), scaled by s.y / y.y of the newest pair."""
    q = g.copy()
    alphas = []
    for s, yk, rho in reversed(memory):
        alphas.append(rho * np.dot(s, q))
        q -= alphas[-1] * yk
    if memory:
        s, yk, _ = memory[-1]
        q *= np.dot(s, yk) / np.dot(yk, yk)
    for (s, yk, rho), alpha in zip(memory, reversed(alphas)):
        q += (alpha - rho * np.dot(yk, q)) * s
    return -q


def fit_with_history(
    X: sp.csr_matrix, y: Sequence[bool], config: TrainConfig | None = None
) -> tuple[LogisticModel, list[float]]:
    """Train and also return the loss at each accepted iterate.

    The history starts with the loss at the zero initialization, so entry i
    is the loss after i accepted steps. The model's ``convergence`` says
    how the fit ended.
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

    def evaluate_at(x: np.ndarray) -> tuple[float, np.ndarray]:
        # x is [w, b]; one X @ w and one Xt @ r per evaluation.
        z, e = _logits(X, x[:-1], x[-1])
        grad_w, grad_b = _gradient_at(z, e, x[:-1], Xt, yv, config.l2_lambda)
        return _objective(z, e, x[:-1], yv, config.l2_lambda), np.append(grad_w, grad_b)

    x = np.zeros(X.shape[1] + 1)
    cur, g = evaluate_at(x)
    if not np.isfinite(cur):
        raise ValueError("training loss is not finite")
    history = [cur]
    memory: deque = deque(maxlen=_MEMORY)
    while True:
        grad_max = float(np.max(np.abs(g)))
        if grad_max < config.tolerance:
            stop = "gradient"
            break
        if len(history) > config.max_iterations:
            stop = "max_iterations"
            break
        p = _lbfgs_direction(g, memory)
        slope = float(np.dot(g, p))
        if slope >= 0:  # H is positive definite, but rounding can still break it
            memory.clear()
            p, slope = -g, -float(np.dot(g, g))
        # Armijo backtracking from step 1. A non-finite trial loss fails the
        # test, so an overflowing step is halved like any other.
        step = 1.0
        for _ in range(_MAX_HALVINGS):
            x_new = x + step * p
            new, g_new = evaluate_at(x_new)
            if new < cur + _ARMIJO * step * slope:
                break
            step *= 0.5
        else:
            stop = "line_search"
            break
        s, yk = x_new - x, g_new - g
        sy = float(np.dot(s, yk))
        if sy > 1e-10 * float(np.dot(yk, yk)):  # keep H positive definite
            memory.append((s, yk, 1.0 / sy))
        x, cur, g = x_new, new, g_new
        history.append(cur)

    convergence = Convergence(iterations=len(history) - 1, grad_max=grad_max, stop=stop)
    model = LogisticModel(weights=x[:-1].copy(), bias=float(x[-1]), convergence=convergence)
    return model, history


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
    ordered = s[order]
    # A tie group is a run of equal neighbours (NaN ties nothing); each of its
    # members gets the group's average 1-based rank.
    start = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    end = np.r_[start[1:], s.size] - 1
    ranks = np.empty(s.size, dtype=np.float64)
    ranks[order] = np.repeat(0.5 * (start + end) + 1.0, end - start + 1)

    pos_rank_sum = float(ranks[lab].sum())
    return (pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def evaluate(
    model: LogisticModel,
    X: sp.csr_matrix,
    y: Sequence[bool],
) -> EvalReport:
    """Score a test set: confusion counts, rates, and ROC AUC."""
    if X.shape[0] != len(y):
        raise ValueError(f"got {X.shape[0]} feature rows but {len(y)} labels")
    if not len(y):
        raise ValueError("cannot evaluate on zero examples")
    truth = np.asarray(y, dtype=bool)
    probs = model.predict_proba(X)
    preds = probs > DECISION_THRESHOLD

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


def save_logistic(model: LogisticModel) -> dict:
    """A model as a JSON-ready part of a model file, with its nonzero
    weights as sparse [index, value] pairs."""
    nz = np.nonzero(model.weights)[0]
    return {"bias": model.bias, "weights": [[int(i), float(model.weights[i])] for i in nz]}


def load_logistic(part, dimension: int, where: str) -> LogisticModel:
    """The ``dimension``-wide model in a part written by :func:`save_logistic`;
    a damaged part raises ValueError naming ``where``."""
    check_object(part, ("bias", "weights"), where)
    pairs = part["weights"]
    if not is_finite_number(part["bias"]):
        raise ValueError(f"{where}: bias must be a finite number")
    if not (isinstance(pairs, list) and all(
        isinstance(pair, list) and len(pair) == 2
        and is_nonnegative_int(pair[0], dimension) and is_finite_number(pair[1])
        for pair in pairs
    )):
        raise ValueError(
            f"{where}: weights must be [index, finite value] pairs with index < {dimension}"
        )
    if len({i for i, _ in pairs}) < len(pairs):
        raise ValueError(f"{where}: weights repeat an index")
    w = np.zeros(dimension)
    for i, v in pairs:
        w[i] = v
    return LogisticModel(weights=w, bias=float(part["bias"]))
