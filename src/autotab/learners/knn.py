"""k-nearest-neighbour classification on a featurized matrix.

Distances are exact squared euclidean computed by direct broadcasting so that
identical feature vectors tie at exactly zero. Rows tied with the k-th
distance are included fractionally (each gets (k - closer) / tied of a full
vote), which makes predictions independent of training-row order: everything
is derived from the sorted distance sequence and per-group label counts.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .features import LearnerError


@dataclass
class KnnModel:
    k: int
    weighted: bool
    X: np.ndarray
    y: np.ndarray


def fit_knn(X: np.ndarray, y: np.ndarray, params: dict) -> KnnModel:
    if len(X) == 0:
        raise LearnerError("cannot fit nearest neighbours on zero rows")
    k = int(params["k"])
    if k < 1:
        raise LearnerError(f"k must be positive, got {k}")
    return KnnModel(X=X, y=y.astype(np.float64), k=k, weighted=bool(params.get("weighted", False)))


def _gather(cum: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """cum[i, counts[i]-1] with zero for counts of zero."""
    idx = np.maximum(counts - 1, 0)
    vals = np.take_along_axis(cum, idx[:, None], axis=1).ravel()
    return np.where(counts > 0, vals, 0.0)


def knn_proba(model: KnnModel, Xq: np.ndarray, chunk: int = 256) -> np.ndarray:
    if Xq.shape[1] != model.X.shape[1]:
        raise LearnerError(
            f"neighbour model was fit on {model.X.shape[1]} features, got {Xq.shape[1]}"
        )
    n_train = len(model.X)
    k = min(model.k, n_train)
    out = np.empty(len(Xq), dtype=np.float64)
    for start in range(0, len(Xq), chunk):
        q = Xq[start : start + chunk]
        diff = q[:, None, :] - model.X[None, :, :]
        d2 = np.einsum("ijk,ijk->ij", diff, diff)
        order = np.argsort(d2, axis=1, kind="stable")
        ds = np.take_along_axis(d2, order, axis=1)
        ys = model.y[order]
        dk = ds[:, k - 1]
        closer = (ds < dk[:, None]).sum(axis=1)
        tied = (ds == dk[:, None]).sum(axis=1)
        frac = (k - closer) / tied
        cum_y = np.cumsum(ys, axis=1)
        y_closer = _gather(cum_y, closer)
        y_tied = _gather(cum_y, closer + tied) - y_closer

        if model.weighted:
            zeros = (ds == 0.0).sum(axis=1)
            w = np.divide(1.0, np.sqrt(ds), out=np.zeros_like(ds), where=ds > 0)
            cum_w = np.cumsum(w, axis=1)
            cum_wy = np.cumsum(w * ys, axis=1)
            w_closer = _gather(cum_w, closer)
            wy_closer = _gather(cum_wy, closer)
            wk = np.divide(1.0, np.sqrt(dk), out=np.zeros_like(dk), where=dk > 0)
            W = w_closer + frac * tied * wk
            WY = wy_closer + frac * wk * y_tied
            weighted_p = np.divide(WY, W, out=np.zeros_like(W), where=W > 0)
            # exact matches dominate: average over every zero-distance row
            zero_p = _gather(cum_y, zeros) / np.maximum(zeros, 1)
            out[start : start + chunk] = np.where(zeros > 0, zero_p, weighted_p)
        else:
            out[start : start + chunk] = (y_closer + frac * y_tied) / k
    return out
