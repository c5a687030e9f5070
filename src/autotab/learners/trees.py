"""Level-wise histogram tree growing shared by forests and boosting.

Columns are encoded once per fit into integer buckets: every distinct value
for forests (exact split search expressed over rank codes) or up to 32
quantile buckets for boosting. Each bucket code is offset by its feature's
start in one flat bucket layout. A tree grows one level at a time; a single
offset-flattened bincount per statistic yields every (node, feature, cut)
histogram of the level, so split search is a handful of vectorized scans
regardless of node count. Nodes are written level by level as whole arrays,
and rows are routed to children on the same offset codes. Stored thresholds
are real data values (or value boundaries), and prediction routes on
`x <= threshold`, so predictions depend only on value order.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .features import LearnerError

_BIG = np.iinfo(np.int64).max


@dataclass(frozen=True)
class ColumnCodes:
    """Bucketized view of a feature matrix plus the candidate-cut layout."""

    flat: np.ndarray  # (n, F) int64: bucket index + per-feature bucket offset
    offsets: np.ndarray  # (F+1,) int64 cumulative bucket counts
    nbuckets: np.ndarray  # (F,) int64
    cut_cols: np.ndarray  # (C,) int64 bucket-layout column of each candidate cut
    cut_feature: np.ndarray  # (C,) int64
    cut_threshold: np.ndarray  # (C,) float64 split value (route left iff x <= t)
    coffsets: np.ndarray  # (F+1,) int64 cumulative cut counts
    pos_in_segment: np.ndarray  # (total_buckets,) int64

    @property
    def total_buckets(self) -> int:
        return int(self.offsets[-1])


def _assemble(X: np.ndarray, boundaries: List[np.ndarray]) -> ColumnCodes:
    F = X.shape[1]
    nbuckets = np.array([len(b) + 1 for b in boundaries], dtype=np.int64)
    offsets = np.concatenate([[0], np.cumsum(nbuckets)])
    flat = np.empty(X.shape, dtype=np.int64)
    for f in range(F):
        flat[:, f] = offsets[f] + np.searchsorted(boundaries[f], X[:, f], side="left")
    ncuts = nbuckets - 1
    coffsets = np.concatenate([[0], np.cumsum(ncuts)])
    cut_feature = np.repeat(np.arange(F, dtype=np.int64), ncuts)
    # feature f has one more bucket than cuts, so its buckets start f columns after its cuts
    cut_cols = np.arange(len(cut_feature), dtype=np.int64) + cut_feature
    cut_threshold = (
        np.concatenate([b for b in boundaries]) if any(len(b) for b in boundaries) else np.zeros(0)
    )
    pos = np.arange(int(offsets[-1]), dtype=np.int64) - np.repeat(offsets[:-1], nbuckets)
    return ColumnCodes(
        flat=flat,
        offsets=offsets,
        nbuckets=nbuckets,
        cut_cols=cut_cols,
        cut_feature=cut_feature,
        cut_threshold=cut_threshold.astype(np.float64),
        coffsets=coffsets,
        pos_in_segment=pos,
    )


def exact_codes(X: np.ndarray) -> ColumnCodes:
    """One bucket per distinct value; cuts at every adjacent-value boundary."""
    boundaries = []
    for f in range(X.shape[1]):
        uniq = np.unique(X[:, f])
        boundaries.append(uniq[:-1])
    return _assemble(X, boundaries)


def quantile_codes(X: np.ndarray, max_buckets: int = 32) -> ColumnCodes:
    """At most `max_buckets` buckets per column, edges at data-valued quantiles."""
    boundaries = []
    probs = np.linspace(0.0, 1.0, max_buckets + 1)[1:-1]
    for f in range(X.shape[1]):
        col = X[:, f]
        edges = np.unique(np.quantile(col, probs, method="lower"))
        boundaries.append(edges[edges < col.max()])
    return _assemble(X, boundaries)


_TREE_DTYPES = {
    "feature": np.int32,
    "threshold": np.float64,
    "left": np.int32,
    "right": np.int32,
    "value": np.float64,
}


@dataclass
class TreeArrays:
    """Flat node storage; feature == -1 marks a leaf. Array dtypes are `dtypes`."""

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray  # tree-local child index
    right: np.ndarray
    value: np.ndarray  # leaf payload
    dtypes: ClassVar[Dict[str, type]] = _TREE_DTYPES

    @property
    def n_nodes(self) -> int:
        return len(self.feature)


def _xlogx(c: np.ndarray) -> np.ndarray:
    out = np.zeros_like(c, dtype=np.float64)
    np.log(c, out=out, where=c > 0)
    return out * c


def _add_leaves(tree: TreeArrays, count: int) -> TreeArrays:
    """`tree` with `count` unlinked leaves appended: feature/left/right -1, threshold/value 0."""
    return TreeArrays(
        **{
            name: np.concatenate([getattr(tree, name), np.full(count, -1 if dt is np.int32 else 0, dt)])
            for name, dt in _TREE_DTYPES.items()
        }
    )


def grow_tree(
    codes: ColumnCodes,
    row_flat: np.ndarray,  # (k, F) int64 offset codes of the fit rows
    channels: Tuple[np.ndarray, ...],  # per-row stat arrays (y, or g, or g and h)
    mode: str,  # gini | entropy | sse | newton
    max_depth: int,
    min_leaf: int,
    rng: Optional[np.random.Generator] = None,
    n_sample_features: Optional[int] = None,
    random_cuts: bool = False,
    oblivious: bool = False,
    lam: float = 1.0,
    eps: float = 1e-12,
) -> Tuple[TreeArrays, np.ndarray]:
    """Grow one tree; returns its arrays and the leaf value assigned to each fit row."""
    k, F = row_flat.shape
    if k == 0:
        raise LearnerError("cannot grow a tree on zero rows")
    total = codes.total_buckets
    tree = _add_leaves(TreeArrays(**{name: np.zeros(0, dt) for name, dt in _TREE_DTYPES.items()}), 1)
    leaf_of_row = np.zeros(k, dtype=np.float64)

    # active level state: one slot per open node
    node_ids = np.zeros(1, dtype=np.int64)
    counts = np.array([k], dtype=np.int64)
    sums = np.stack([np.array([ch.sum()]) for ch in channels])  # (n_ch, A)
    rows_live = np.arange(k, dtype=np.int64)
    slot_live = np.zeros(k, dtype=np.int64)

    def make_leaves(leaf: np.ndarray) -> np.ndarray:
        """Write leaf values for the `leaf` slots and their rows; return the live-row mask."""
        if mode == "newton":
            vals = sums[0] / (sums[1] + lam)
        else:
            vals = np.where(counts > 0, sums[0] / np.maximum(counts, 1.0), 0.0)
        tree.value[node_ids[leaf]] = vals[leaf]
        row_leaf = leaf[slot_live]
        leaf_of_row[rows_live[row_leaf]] = vals[slot_live[row_leaf]]
        return ~row_leaf

    depth = 0
    while True:
        # finalize nodes that cannot or must not split; this comes before the
        # split search, whose random draws are sized by the open slots
        if oblivious:
            done = np.full(len(node_ids), depth >= max_depth)
        else:
            done = (counts < 2 * min_leaf) | (depth >= max_depth)
            if mode in ("gini", "entropy"):
                done |= (sums[0] == 0) | (sums[0] == counts)
        if done.any():
            live = make_leaves(done)
            keep = ~done
            rows_live, slot_live = rows_live[live], (np.cumsum(keep) - 1)[slot_live[live]]
            node_ids, counts, sums = node_ids[keep], counts[keep], sums[:, keep]
        A = len(node_ids)
        if A == 0:
            break

        # one histogram per statistic for the whole level
        key = (slot_live[:, None] * total + row_flat[rows_live]).ravel()
        length = A * total
        hist_cnt = np.bincount(key, minlength=length).reshape(A, total)
        hist_ch = [
            np.bincount(key, weights=np.repeat(ch[rows_live], F), minlength=length).reshape(A, total)
            for ch in channels
        ]

        cum_cnt = np.cumsum(hist_cnt, axis=1)
        cum_ch = [np.cumsum(h, axis=1) for h in hist_ch]
        bases_cnt = np.zeros((A, F), dtype=np.int64)
        bases_ch = [np.zeros((A, F)) for _ in channels]
        if F > 1:
            seg = codes.offsets[1:-1] - 1
            bases_cnt[:, 1:] = cum_cnt[:, seg]
            for b, c in zip(bases_ch, cum_ch):
                b[:, 1:] = c[:, seg]
        ncuts = codes.nbuckets - 1
        left_cnt = cum_cnt[:, codes.cut_cols] - np.repeat(bases_cnt, ncuts, axis=1)
        left_ch = [
            c[:, codes.cut_cols] - np.repeat(b, ncuts, axis=1) for c, b in zip(cum_ch, bases_ch)
        ]
        right_cnt = counts[:, None] - left_cnt

        tot_cnt = counts[:, None].astype(np.float64)
        lc = left_cnt.astype(np.float64)
        rc = right_cnt.astype(np.float64)
        if mode == "gini":
            l1, t1 = left_ch[0], sums[0][:, None]
            r1 = t1 - l1
            child = np.zeros_like(lc)
            np.divide(2.0 * l1 * (lc - l1), lc, out=child, where=lc > 0)
            rpart = np.zeros_like(rc)
            np.divide(2.0 * r1 * (rc - r1), rc, out=rpart, where=rc > 0)
            child += rpart
            parent = 2.0 * t1 * (tot_cnt - t1) / tot_cnt
            gains = parent - child
        elif mode == "entropy":
            l1, t1 = left_ch[0], sums[0][:, None]
            r1 = t1 - l1
            nH = lambda c1, n: _xlogx(n) - _xlogx(c1) - _xlogx(n - c1)
            gains = nH(t1, tot_cnt) - nH(l1, lc) - nH(r1, rc)
        elif mode == "sse":
            lg, tg = left_ch[0], sums[0][:, None]
            rg = tg - lg
            gains = np.zeros_like(lc)
            np.divide(lg * lg, lc, out=gains, where=lc > 0)
            rterm = np.zeros_like(rc)
            np.divide(rg * rg, rc, out=rterm, where=rc > 0)
            gains += rterm - tg * tg / tot_cnt
        elif mode == "newton":
            lg, tg = left_ch[0], sums[0][:, None]
            lh, th = left_ch[1], sums[1][:, None]
            rg, rh = tg - lg, th - lh
            gains = lg * lg / (lh + lam) + rg * rg / (rh + lam) - tg * tg / (th + lam)
        else:
            raise LearnerError(f"unknown split mode {mode!r}")

        valid = (left_cnt >= min_leaf) & (right_cnt >= min_leaf)
        if n_sample_features is not None:
            order = np.argsort(rng.random((A, F)), axis=1)[:, :n_sample_features]
            featmask = np.zeros((A, F), dtype=bool)
            np.put_along_axis(featmask, order, True, axis=1)
            valid &= np.repeat(featmask, ncuts, axis=1)

        if random_cuts:
            occ = hist_cnt > 0
            pos = codes.pos_in_segment[None, :]
            first = np.minimum.reduceat(np.where(occ, pos, _BIG), codes.offsets[:-1], axis=1)
            last = np.maximum.reduceat(np.where(occ, pos, -1), codes.offsets[:-1], axis=1)
            span = np.maximum(last - first, 0)
            draw = rng.random((A, F))
            cut_in_f = first + np.minimum((draw * span).astype(np.int64), np.maximum(span - 1, 0))
            col = codes.coffsets[:-1][None, :] + cut_in_f
            col = np.clip(col, 0, max(len(codes.cut_cols) - 1, 0))
            gsel = np.take_along_axis(gains, col, axis=1)
            vsel = np.take_along_axis(valid, col, axis=1) & (span > 0)
            gsel = np.where(vsel, gsel, -np.inf)
            fbest = np.argmax(gsel, axis=1)
            best_col = np.take_along_axis(col, fbest[:, None], axis=1).ravel()
            split = np.take_along_axis(gsel, fbest[:, None], axis=1).ravel() > eps
        elif oblivious:
            # one shared cut per level: every node splits on it, or none does
            total_gain = np.where(valid, np.maximum(gains, 0.0), 0.0).sum(axis=0)
            col = int(np.argmax(total_gain))
            best_col = np.full(A, col, dtype=np.int64)
            split = np.full(A, total_gain[col] > eps)
        else:
            masked = np.where(valid, gains, -np.inf)
            best_col = np.argmax(masked, axis=1)
            split = np.take_along_axis(masked, best_col[:, None], axis=1).ravel() > eps

        if not split.all():
            live = make_leaves(~split)
            if not split.any():
                break
            rows_live, slot_live = rows_live[live], slot_live[live]

        split_slots = np.flatnonzero(split)
        chosen_col = best_col[split_slots]
        feats = codes.cut_feature[chosen_col]
        parents = node_ids[split_slots]
        node_ids = np.arange(tree.n_nodes, tree.n_nodes + 2 * len(split_slots))
        tree = _add_leaves(tree, len(node_ids))
        tree.feature[parents] = feats
        tree.threshold[parents] = codes.cut_threshold[chosen_col]
        tree.left[parents] = node_ids[0::2]
        tree.right[parents] = node_ids[1::2]

        # children stats come straight from the scan, left and right interleaved
        lcnt = left_cnt[split_slots, chosen_col]
        counts = np.column_stack([lcnt, counts[split_slots] - lcnt]).ravel()
        lsum = np.stack([lch[split_slots, chosen_col] for lch in left_ch])
        sums = np.stack([lsum, sums[:, split_slots] - lsum], axis=2).reshape(len(channels), -1)

        # route the remaining rows: an offset code at or below the cut's column goes left
        srow = (np.cumsum(split) - 1)[slot_live]
        go_left = row_flat[rows_live, feats[srow]] <= codes.cut_cols[chosen_col][srow]
        slot_live = 2 * srow + np.where(go_left, 0, 1)
        depth += 1

    return tree, leaf_of_row


def predict_leaf_matrix(trees: Sequence[TreeArrays], X: np.ndarray) -> np.ndarray:
    """Leaf value of every row under every tree: shape (n_rows, n_trees)."""
    n = X.shape[0]
    T = len(trees)
    sizes = np.array([t.n_nodes for t in trees], dtype=np.int64)
    offs = np.concatenate([[0], np.cumsum(sizes)])
    feature = np.concatenate([t.feature for t in trees])
    threshold = np.concatenate([t.threshold for t in trees])
    left = np.concatenate([t.left + offs[i] for i, t in enumerate(trees)]).astype(np.int64)
    right = np.concatenate([t.right + offs[i] for i, t in enumerate(trees)]).astype(np.int64)
    value = np.concatenate([t.value for t in trees])

    cur = np.broadcast_to(offs[:-1][None, :], (n, T)).copy()
    row_of = np.broadcast_to(np.arange(n)[:, None], (n, T))
    while True:
        f = feature[cur]
        live = f >= 0
        if not live.any():
            break
        nodes = cur[live]
        xv = X[row_of[live], f[live]]
        cur[live] = np.where(xv <= threshold[nodes], left[nodes], right[nodes])
    return value[cur]
