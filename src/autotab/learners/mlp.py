"""Small fully connected network trained with Adam on logistic loss.

The per-batch gradient comes from `mlp_loss_gradient`, which is also exposed
directly so the analytic backward pass can be checked against finite
differences.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .boosting import logistic_loss, sigmoid
from .features import LearnerError


@dataclass
class MlpModel:
    hidden: Tuple[int, ...]
    weights: List[np.ndarray]
    biases: List[np.ndarray]


def init_params(
    n_features: int, hidden: Sequence[int], rng: np.random.Generator
) -> Tuple[List[np.ndarray], List[np.ndarray]]:
    sizes = [n_features, *hidden, 1]
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        weights.append(rng.normal(0.0, np.sqrt(2.0 / fan_in), size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return weights, biases


def _forward(weights, biases, X):
    acts = [X]
    pre = []
    a = X
    for i, (W, b) in enumerate(zip(weights, biases)):
        z = a @ W + b
        pre.append(z)
        a = np.maximum(z, 0.0) if i < len(weights) - 1 else z
        acts.append(a)
    return acts, pre


def mlp_loss_gradient(
    weights: List[np.ndarray],
    biases: List[np.ndarray],
    X: np.ndarray,
    y: np.ndarray,
) -> Tuple[float, List[np.ndarray], List[np.ndarray]]:
    """Mean logistic loss over a batch and its exact parameter gradient."""
    n = len(X)
    acts, pre = _forward(weights, biases, X)
    raw = acts[-1].ravel()
    loss = logistic_loss(raw, y)
    delta = ((sigmoid(raw) - y) / n)[:, None]
    grad_w: List[np.ndarray] = [None] * len(weights)
    grad_b: List[np.ndarray] = [None] * len(weights)
    for i in range(len(weights) - 1, -1, -1):
        grad_w[i] = acts[i].T @ delta
        grad_b[i] = delta.sum(axis=0)
        if i > 0:
            delta = (delta @ weights[i].T) * (pre[i - 1] > 0.0)
    return loss, grad_w, grad_b


def fit_mlp(X: np.ndarray, y: np.ndarray, params: dict, seed_key: Tuple[int, ...]) -> MlpModel:
    n, _ = X.shape
    if n == 0:
        raise LearnerError("cannot fit a network on zero rows")
    hidden = tuple(int(h) for h in params["hidden"])
    lr = float(params.get("learning_rate", 1e-3))
    epochs = int(params.get("epochs", 150))
    batch_size = int(params.get("batch_size", 32))
    rng = np.random.default_rng(np.random.SeedSequence(seed_key))
    weights, biases = init_params(X.shape[1], hidden, rng)
    yf = y.astype(np.float64)

    beta1, beta2, eps = 0.9, 0.999, 1e-8
    m_w = [np.zeros_like(w) for w in weights]
    v_w = [np.zeros_like(w) for w in weights]
    m_b = [np.zeros_like(b) for b in biases]
    v_b = [np.zeros_like(b) for b in biases]
    step = 0
    for _ in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            batch = order[start : start + batch_size]
            loss, gw, gb = mlp_loss_gradient(weights, biases, X[batch], yf[batch])
            if not np.isfinite(loss):
                raise LearnerError("network training diverged to a non-finite loss")
            step += 1
            c1 = 1.0 - beta1**step
            c2 = 1.0 - beta2**step
            for i in range(len(weights)):
                m_w[i] = beta1 * m_w[i] + (1 - beta1) * gw[i]
                v_w[i] = beta2 * v_w[i] + (1 - beta2) * gw[i] ** 2
                weights[i] -= lr * (m_w[i] / c1) / (np.sqrt(v_w[i] / c2) + eps)
                m_b[i] = beta1 * m_b[i] + (1 - beta1) * gb[i]
                v_b[i] = beta2 * v_b[i] + (1 - beta2) * gb[i] ** 2
                biases[i] -= lr * (m_b[i] / c1) / (np.sqrt(v_b[i] / c2) + eps)
    return MlpModel(weights=weights, biases=biases, hidden=hidden)


def mlp_proba(model: MlpModel, X: np.ndarray) -> np.ndarray:
    if X.shape[1] != model.weights[0].shape[0]:
        raise LearnerError(
            f"network was fit on {model.weights[0].shape[0]} features, got {X.shape[1]}"
        )
    acts, _ = _forward(model.weights, model.biases, X)
    return sigmoid(acts[-1].ravel())
