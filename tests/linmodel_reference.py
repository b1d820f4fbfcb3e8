"""Reference logistic trainer for tests: the full-batch descent loop that
``newsciv.linmodel.fit_with_history`` ran before each step reused its
logits. Every trial point is scored by a fresh ``loss`` call, the gradient
recomputes ``X @ w + b`` and forms ``X.T @ residual`` through the CSC view
of ``X``, and the sigmoid splits its input with boolean masks.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
import scipy.sparse as sp

from newsciv.linmodel import TrainConfig

_MIN_STEP = 1e-18


def masked_sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def loss(weights, bias, X, y, l2_lambda) -> float:
    z = X @ weights + bias
    nll = np.mean(np.logaddexp(0.0, z) - y * z)
    return float(nll + 0.5 * l2_lambda * np.dot(weights, weights))


def gradient(weights, bias, X, y, l2_lambda) -> tuple[np.ndarray, float]:
    z = X @ weights + bias
    residual = (masked_sigmoid(z) - y) / y.size
    grad_w = X.T @ residual + l2_lambda * weights
    return grad_w, float(residual.sum())


def fit_with_history(
    X: sp.csr_matrix, y: Sequence[bool], config: TrainConfig
) -> tuple[np.ndarray, float, list[float]]:
    """Weights, bias and loss history, as the old loop produced them."""
    yv = np.array([1.0 if label else 0.0 for label in y])

    w = np.zeros(X.shape[1])
    b = 0.0
    cur = loss(w, b, X, yv, config.l2_lambda)
    history = [cur]

    for _ in range(config.max_iterations):
        if not np.isfinite(cur):
            raise ValueError("training loss is not finite")
        grad_w, grad_b = gradient(w, b, X, yv, config.l2_lambda)
        if max(np.max(np.abs(grad_w), initial=0.0), abs(grad_b)) < config.tolerance:
            break
        step = config.learning_rate
        while step >= _MIN_STEP:
            w_new = w - step * grad_w
            b_new = b - step * grad_b
            new = loss(w_new, b_new, X, yv, config.l2_lambda)
            if new <= cur:
                break
            step *= 0.5
        else:
            break  # no step improves the loss; we are at numerical precision
        w, b, cur = w_new, b_new, new
        history.append(cur)

    return w, b, history
