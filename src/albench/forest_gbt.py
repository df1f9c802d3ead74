"""From-scratch regression tree ensembles: random forest and boosted trees.

Both models grow array-backed CART trees with exhaustive split search (all
features, all thresholds between adjacent distinct sorted values).
Equal-score splits break to the lowest feature index, then the lowest
threshold, so fits are deterministic.

The forest grows a batch of bootstrap trees together, one depth level at a
time, with SLIQ-style presorting and the exact greedy search of XGBoost:
each tree's sample is argsorted once per feature, every live node keeps its
rows in each feature's order, and a split stably partitions those orders
into its children. A level scores every candidate node of the batch in a
few numpy passes over a zero-padded (position, node, feature) block; nodes
are chunked by size, so padding at most doubles the work. Scores,
thresholds and leaf means use the same floating-point operations in the
same order as growing each node on its own, so every tree is identical,
split for split, to node-by-node growth. Working memory is bounded by
_GROW_BUDGET and _CHUNK. The booster grows each round's small tree node
by node.

Uncertainty: the forest reports the population std of per-tree
predictions; the booster reports the population std of a "virtual
ensemble" of staged predictions over the second half of its rounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigError, FitError, ShapeError
from .types import Prediction, as_matrix


@dataclass(frozen=True)
class ForestConfig:
    n_trees: int = 400
    bootstrap: bool = True
    max_depth: Optional[int] = None
    min_samples_split: int = 2
    min_samples_leaf: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.n_trees < 1:
            raise ConfigError(f"n_trees must be >= 1, got {self.n_trees}")
        if self.min_samples_split < 2 or self.min_samples_leaf < 1:
            raise ConfigError("min_samples_split >= 2 and min_samples_leaf >= 1 required")


@dataclass(frozen=True)
class GBTConfig:
    n_rounds: int = 400
    learning_rate: float = 0.3
    max_depth: int = 6
    lambda_l2: float = 1.0
    gamma_min_gain: float = 0.0
    min_child_weight: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.n_rounds < 1:
            raise ConfigError(f"n_rounds must be >= 1, got {self.n_rounds}")
        if not 0.0 < self.learning_rate <= 1.0:
            raise ConfigError(f"learning_rate must be in (0, 1], got {self.learning_rate}")


@dataclass
class Tree:
    """Flat node arrays; feature[i] == -1 marks a leaf."""

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray

    def predict(self, X: np.ndarray) -> np.ndarray:
        node = np.zeros(X.shape[0], dtype=np.int64)
        active = self.feature[node] >= 0
        while active.any():
            rows = np.nonzero(active)[0]
            cur = node[rows]
            go_left = X[rows, self.feature[cur]] <= self.threshold[cur]
            node[rows] = np.where(go_left, self.left[cur], self.right[cur])
            active = self.feature[node] >= 0
        return self.value[node]

    def to_dict(self, node: int = 0) -> dict:
        if self.feature[node] < 0:
            return {"leaf": float(self.value[node])}
        return {
            "feature": int(self.feature[node]),
            "threshold": float(self.threshold[node]),
            "left": self.to_dict(int(self.left[node])),
            "right": self.to_dict(int(self.right[node])),
        }


def _pack(nodes: list) -> Tree:
    arr = np.array(nodes, dtype=float)
    return Tree(
        feature=arr[:, 0].astype(np.int64),
        threshold=arr[:, 1],
        left=arr[:, 2].astype(np.int64),
        right=arr[:, 3].astype(np.int64),
        value=arr[:, 4],
    )


def _best_gain_split(X: np.ndarray, g: np.ndarray, lam: float, gamma: float, min_child: float):
    """Second-order split gain with unit hessians; None unless gain > 0."""
    m = X.shape[0]
    if m < 2:
        return None
    order = np.argsort(X, axis=0, kind="stable")
    xs = np.take_along_axis(X, order, axis=0)
    cs = np.cumsum(g[order], axis=0)
    hl = np.arange(1, m, dtype=float)[:, None]
    hr = m - hl
    gl = cs[:-1]
    gt = cs[-1]
    gain = 0.5 * (gl * gl / (hl + lam) + (gt - gl) ** 2 / (hr + lam) - gt * gt / (m + lam)) - gamma
    valid = (xs[:-1] < xs[1:]) & (hl >= min_child) & (hr >= min_child)
    scores = np.where(valid, gain, -np.inf).T
    flat = int(np.argmax(scores))
    if not (scores.flat[flat] > 0.0):
        return None
    f, k = divmod(flat, m - 1)
    return int(f), float(0.5 * (xs[k, f] + xs[k + 1, f]))


# Working-memory budgets of the batched forest grower, in array elements.
# A batch takes as many trees as fit (sample row, feature) entries in
# _GROW_BUDGET, and a scoring chunk or partition step at most _CHUNK
# (position, node, feature) entries; either takes at least one tree, node
# or feature row. Working arrays cost 1 to 8 bytes per entry.
_GROW_BUDGET = 1 << 16
_CHUNK = 1 << 14


def _segments(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Concatenated ranges starts[i] .. starts[i] + lengths[i] - 1."""
    ends = np.cumsum(lengths)
    return np.arange(ends[-1]) + np.repeat(starts - ends + lengths, lengths)


def _best_splits(cells, xv, yv, off, m, min_leaf: int):
    """Best SSE split of each node, scored for all nodes together.

    Node i owns columns off[i] .. off[i] + m[i] - 1 of `cells`, whose row
    f lists the node's cells of feature f in sorted order. Nodes are
    padded to the largest with the last column of `cells`, whose sentinel
    cells hold x = +inf and y = 0. Returns the feature (-1 where no split
    is valid) and the split's position in that feature's order; ties go
    to the lowest feature, then position.
    """
    end = cells.shape[1] - 1
    width = int(m.max())
    j = np.arange(width)[:, None]
    block = cells.T[np.where(j < m, off + j, end)]  # (position, node, feature)
    cs = yv[block]
    css = cs * cs
    np.cumsum(cs, axis=0, out=cs)
    np.cumsum(css, axis=0, out=css)
    xs = xv[block]
    del block
    invalid = np.less(xs[:-1], xs[1:])
    np.logical_not(invalid, out=invalid)
    del xs
    nl = np.arange(1, width, dtype=float)[:, None, None]
    nr = m[:, None] - nl
    invalid |= (nl < min_leaf) | (nr < min_leaf)
    st, sst = cs[-1], css[-1]
    sl, ssl = cs[:-1], css[:-1]
    # (ssl - sl*sl/nl) + ((sst - ssl) - (st - sl)**2/nr), operation for
    # operation, so each score is bit-identical to a one-node evaluation
    with np.errstate(divide="ignore", invalid="ignore"):
        sse = sl * sl
        sse /= nl
        np.subtract(ssl, sse, out=sse)
        np.subtract(sst, ssl, out=ssl)
        np.subtract(st, sl, out=sl)
        sl *= sl
        sl /= nr
        ssl -= sl
        sse += ssl
    np.putmask(sse, invalid, np.inf)
    best = sse.min(axis=0)  # (node, feature)
    f = best.argmin(axis=1)
    node = np.arange(len(m))
    score = best[node, f]
    k = (sse[:, node, f] == score).argmax(axis=0)
    f[~np.isfinite(score)] = -1
    return f, k


def _level_splits(cells, xv, yv, off, m, depth: int, config: ForestConfig):
    """(feature, position) of every live node's split; feature -1 makes a leaf."""
    feature = np.full(len(m), -1)
    k = np.zeros(len(m), dtype=np.int64)
    if config.max_depth is not None and depth >= config.max_depth:
        return feature, k
    cand = np.flatnonzero(m >= config.min_samples_split)
    if not len(cand):
        return feature, k
    # nodes whose targets are all equal stay leaves
    y = yv[cells[0, _segments(off[cand], m[cand])]]
    starts = np.cumsum(m[cand]) - m[cand]
    cand = cand[np.logical_or.reduceat(y != np.repeat(y[starts], m[cand]), starts)]
    # score in chunks of nodes within 2x of the chunk's largest, under the budget
    cand = cand[np.argsort(-m[cand], kind="stable")]
    neg_sizes = -m[cand]
    d = len(cells)
    i = 0
    while i < len(cand):
        width = m[cand[i]]
        stop = min(np.searchsorted(neg_sizes, -(width // 2)), i + max(1, _CHUNK // (d * width)))
        chunk = cand[i:stop]
        feature[chunk], k[chunk] = _best_splits(cells, xv, yv, off[chunk], m[chunk], config.min_samples_leaf)
        i = stop
    return feature, k


def _leaf_values(cells, yv, off, m) -> np.ndarray:
    """Each leaf's float(y[rows].mean()) over its rows in ascending order.

    A sum of one or two values is the same in any order, so those leaves
    take one row-wise .mean() per size; from three values numpy's
    association matters, and each such leaf calls .mean() on its rows.
    """
    value = np.full(len(m), np.nan)  # an empty child, as np.mean of no rows
    for size in (1, 2):
        at = np.flatnonzero(m == size)
        value[at] = yv[cells[0, off[at, None] + np.arange(size)]].mean(axis=1)
    for i in np.flatnonzero(m >= 3):
        value[i] = yv[np.sort(cells[0, off[i] : off[i] + m[i]])].mean()
    return value


def _partition(cells, side, kept: int):
    """Stable partition of every row of `cells` by the side of each cell.

    Cells of side 1 (left children) come first, then those of side 2;
    side 0 (rows of nodes that became leaves) is dropped. Every row holds
    `kept` cells of sides 1 and 2 together. The sentinel column stays last.
    """
    d, live = cells.shape[0], cells.shape[1] - 1
    out = np.empty((d, kept + 1), dtype=cells.dtype)
    out[:, -1] = cells[:, -1]
    step = max(1, _CHUNK // max(live, 1))
    for r in range(0, d, step):
        part = cells[r : r + step, :live]
        order = np.argsort(side[part], axis=1, kind="stable")[:, live - kept :]
        out[r : r + step, :-1] = np.take_along_axis(part, order, axis=1)
    return out


def _grow_variance_batch(X, y, samples: np.ndarray, config: ForestConfig) -> list[Tree]:
    """Grow one tree per row of `samples` (indices into X), level by level.

    Batch row g is sample row g % n of tree g // n. Cell f * (rows + 1) + g
    of the value tables xv and yv holds feature f and the target of row g;
    cell f * (rows + 1) + rows is a sentinel. Row f of `cells` lists the
    cells of every live node sorted by feature f (ties by row), nodes one
    after another; a split stably partitions every row, so children
    inherit their sorted orders and nothing is sorted after the start.
    """
    n_trees, n = samples.shape
    d = X.shape[1]
    rows = n_trees * n
    stride = rows + 1
    sample = samples.ravel()
    yv = np.tile(np.append(y[sample], 0.0), d)
    xv = np.empty((d, stride))
    xv[:, rows] = np.inf
    cells = np.empty((d, stride), dtype=np.int32)
    cells[:, rows] = np.arange(d) * stride + rows
    tree_start = np.arange(0, rows, n)
    for f in range(d):
        xv[f, :rows] = X[sample, f]
        order = np.argsort(xv[f, :rows].reshape(n_trees, n), axis=1, kind="stable")
        cells[f, :rows] = (order + (tree_start + f * stride)[:, None]).ravel()
    xv = xv.ravel()
    side = np.empty((d, stride), dtype=np.int8)

    node_id, tree, off, m = np.arange(n_trees), np.arange(n_trees), tree_start, np.full(n_trees, n)
    levels: list = []
    depth = 0
    while len(m):
        feature, k = _level_splits(cells, xv, yv, off, m, depth, config)
        split = np.flatnonzero(feature >= 0)
        threshold = np.zeros(len(m))
        left = np.full(len(m), -1)
        right = np.full(len(m), -1)
        value = np.zeros(len(m))
        leaf = feature < 0
        value[leaf] = _leaf_values(cells, yv, off[leaf], m[leaf])
        levels.append((node_id, tree, feature, threshold, left, right, value))  # splits filled below
        if not len(split):
            break
        next_id = node_id[-1] + 1
        left[split] = next_id + np.arange(len(split))
        right[split] = left[split] + len(split)
        fs, ms = feature[split], m[split]
        pos = off[split] + k[split]
        thr = threshold[split] = 0.5 * (xv[cells[fs, pos]] + xv[cells[fs, pos + 1]])
        # the left child is the prefix of the split feature's order with x <= thr
        seg = _segments(off[split], ms)
        cut = cells[np.repeat(fs, ms), seg]
        goes_left = xv[cut] <= np.repeat(thr, ms)
        nleft = np.add.reduceat(goes_left, np.cumsum(ms) - ms, dtype=np.int64)

        side[:] = 0
        side[:, cells[0, seg]] = 2
        side[:, cut[goes_left] % stride] = 1
        cells = _partition(cells, side.ravel(), len(seg))
        m = np.concatenate([nleft, ms - nleft])
        off = np.cumsum(m) - m
        node_id = np.arange(next_id, next_id + len(m))
        tree = np.concatenate([tree[split], tree[split]])
        depth += 1
    return _unpack_levels(levels, n_trees)


def _unpack_levels(levels: list, n_trees: int) -> list[Tree]:
    """Per-tree node arrays, each tree in growth order from its root."""
    node_id, tree, feature, threshold, left, right, value = (np.concatenate(c) for c in zip(*levels))
    order = np.lexsort((node_id, tree))
    counts = np.bincount(tree, minlength=n_trees)
    local = np.empty(len(order), dtype=np.int64)
    local[node_id[order]] = np.arange(len(order)) - np.repeat(np.cumsum(counts) - counts, counts)
    left, right = left[order], right[order]
    inner = left >= 0
    left[inner] = local[left[inner]]
    right[inner] = local[right[inner]]
    bounds = np.cumsum(counts)[:-1]
    return [
        Tree(feature=f, threshold=t, left=lo, right=r, value=v)
        for f, t, lo, r, v in zip(
            *(np.split(a, bounds) for a in (feature[order], threshold[order], left, right, value[order]))
        )
    ]


def _grow_gbt_tree(X, g, config: GBTConfig) -> Tree:
    lam = config.lambda_l2
    nodes: list = []
    nodes.append(None)
    stack = [(0, np.arange(X.shape[0]), 0)]
    while stack:
        ni, idx, depth = stack.pop()
        sub_g = g[idx]
        split = None
        if depth < config.max_depth:
            split = _best_gain_split(
                X[idx], sub_g, lam, config.gamma_min_gain, config.min_child_weight
            )
        if split is None:
            weight = -sub_g.sum() / (len(idx) + lam)
            nodes[ni] = (-1, 0.0, -1, -1, config.learning_rate * weight)
            continue
        f, thr = split
        go_left = X[idx, f] <= thr
        li, ri = len(nodes), len(nodes) + 1
        nodes.extend([None, None])
        nodes[ni] = (f, thr, li, ri, 0.0)
        stack.append((li, idx[go_left], depth + 1))
        stack.append((ri, idx[~go_left], depth + 1))
    return _pack(nodes)


@dataclass
class ForestModel:
    trees: list[Tree]
    config: ForestConfig
    n_features: int

    def to_json_dict(self) -> dict:
        return {"kind": "forest", "trees": [t.to_dict() for t in self.trees]}


@dataclass
class GBTModel:
    base_score: float
    trees: list[Tree]
    config: GBTConfig
    n_features: int

    def to_json_dict(self) -> dict:
        return {
            "kind": "gbt",
            "base_score": self.base_score,
            "trees": [t.to_dict() for t in self.trees],
        }


def _check_xy(X, y):
    X = as_matrix(X)
    y = np.asarray(y, dtype=float)
    if X.shape[0] == 0:
        raise FitError("empty training set")
    if X.shape[0] != y.shape[0]:
        raise ShapeError(f"|X| = {X.shape[0]} but |y| = {y.shape[0]}")
    return X, y


def fit_forest(X, y, config: ForestConfig = ForestConfig()) -> ForestModel:
    """Grow the bootstrap ensemble; deterministic given config.seed.

    Each tree draws its resample from its own spawned PRNG substream, so
    fitting order (or parallel scheduling) cannot change the result.
    """
    X, y = _check_xy(X, y)
    n, d = X.shape
    children = np.random.SeedSequence(config.seed).spawn(config.n_trees)
    per_batch = max(1, _GROW_BUDGET // (n * d))
    trees: list[Tree] = []
    for start in range(0, config.n_trees, per_batch):
        batch = children[start : start + per_batch]
        if config.bootstrap:
            samples = np.stack([np.random.default_rng(c).integers(0, n, size=n) for c in batch])
        else:
            samples = np.tile(np.arange(n), (len(batch), 1))
        trees.extend(_grow_variance_batch(X, y, samples, config))
    return ForestModel(trees=trees, config=config, n_features=X.shape[1])


def predict_forest(model: ForestModel, X) -> list[Prediction]:
    """Ensemble mean and population std of the per-tree predictions."""
    X = as_matrix(X)
    if X.shape[1] != model.n_features:
        raise ShapeError(f"query has {X.shape[1]} features, model expects {model.n_features}")
    per_tree = np.stack([t.predict(X) for t in model.trees])
    mean = per_tree.mean(axis=0)
    std = per_tree.std(axis=0)
    return [Prediction(float(m), float(s)) for m, s in zip(mean, std)]


def fit_gbt(X, y, config: GBTConfig = GBTConfig()) -> GBTModel:
    """Boost squared-error residuals; base prediction is mean(y)."""
    X, y = _check_xy(X, y)
    base = float(y.mean())
    pred = np.full(y.shape[0], base)
    trees = []
    for _ in range(config.n_rounds):
        g = pred - y
        tree = _grow_gbt_tree(X, g, config)
        pred += tree.predict(X)
        trees.append(tree)
    return GBTModel(base_score=base, trees=trees, config=config, n_features=X.shape[1])


def stage_rounds(n_rounds: int, members: int = 10) -> list[int]:
    """Virtual-ensemble checkpoints: ~evenly spaced over rounds n/2..n."""
    marks = np.linspace(n_rounds / 2.0, n_rounds, members)
    return sorted({int(round(v)) for v in marks})


def staged_predictions(model: GBTModel, X, rounds: list[int]) -> np.ndarray:
    """(len(rounds), n_queries) matrix of predictions after each checkpoint."""
    X = as_matrix(X)
    wanted = set(rounds)
    out = []
    cum = np.full(X.shape[0], model.base_score)
    if 0 in wanted:
        out.append(cum.copy())
    for r, tree in enumerate(model.trees, start=1):
        cum += tree.predict(X)
        if r in wanted:
            out.append(cum.copy())
    return np.stack(out)


def predict_gbt(model: GBTModel, X) -> list[Prediction]:
    """Full-ensemble mean; std from the staged virtual ensemble."""
    X = as_matrix(X)
    if X.shape[1] != model.n_features:
        raise ShapeError(f"query has {X.shape[1]} features, model expects {model.n_features}")
    stages = staged_predictions(model, X, stage_rounds(model.config.n_rounds))
    mean = stages[-1]  # last checkpoint is always round n
    std = stages.std(axis=0)
    return [Prediction(float(m), float(s)) for m, s in zip(mean, std)]
