"""From-scratch regression tree ensembles: random forest and boosted trees.

Both models grow array-backed CART trees with exhaustive split search (all
features, all thresholds between adjacent distinct sorted values).
Equal-score splits break to the lowest feature index, then the lowest
threshold, so fits are deterministic.

Both grow trees one depth level at a time, with SLIQ-style presorting and
the exact greedy search of XGBoost. The forest grows a batch of bootstrap
trees together: each tree's sample is argsorted once per feature, every
live node keeps its rows in each feature's order, and a split stably
partitions those orders into its children. A level scores every candidate
node of the batch in a few numpy passes over a zero-padded (position,
node, feature) block; nodes are chunked by size, so padding at most
doubles the work. The booster sorts each feature's rows once per fit;
each round's tree groups those orders by node with one stable sort per
level, takes per-node prefix sums down a zero-padded (feature, position,
node) block and scores every node of the level on the compact (feature,
position) layout. Scores, thresholds and leaf values use the same
floating-point operations in the same order as growing each node on its
own, so every tree is identical, split for split, to node-by-node growth.
Working memory is bounded by _GROW_BUDGET and _CHUNK.

Prediction packs a model's trees into one node array and moves every
(tree, query) pair down a level per numpy pass.

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
        if self.max_depth is not None and self.max_depth < 0:
            raise ConfigError(f"max_depth must be None or >= 0, got {self.max_depth}")


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
        for name in ("max_depth", "lambda_l2", "gamma_min_gain", "min_child_weight"):
            if not getattr(self, name) >= 0:
                raise ConfigError(f"{name} must be >= 0, got {getattr(self, name)}")


@dataclass
class Tree:
    """Flat node arrays; feature[i] == -1 marks a leaf."""

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray

    def predict(self, X: np.ndarray) -> np.ndarray:
        return _predict_trees([self], X)[0]

    def to_dict(self, node: int = 0) -> dict:
        if self.feature[node] < 0:
            return {"leaf": float(self.value[node])}
        return {
            "feature": int(self.feature[node]),
            "threshold": float(self.threshold[node]),
            "left": self.to_dict(int(self.left[node])),
            "right": self.to_dict(int(self.right[node])),
        }


# Working-memory budgets, in array elements. A forest batch takes as many
# trees as fit (sample row, feature) entries in _GROW_BUDGET, and a scoring
# chunk or partition step at most _CHUNK (position, node, feature) entries;
# a booster prefix-sum block at most _GROW_BUDGET (feature, position, node)
# entries; a prediction pass about _CHUNK (tree, query) pairs. Each takes
# at least one tree, node or feature row. Working arrays cost 1 to 8 bytes
# per entry.
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


def _best_gain_splits(xs, gs, m, off, config: GBTConfig):
    """Best second-order gain split of each node, scored for all nodes together.

    Node i owns columns off[i] .. off[i] + m[i] - 1 (m[i] >= 2) of the
    (feature, position) tables xs and gs, which list its x values and
    gradients in each feature's sorted order. Returns the feature (-1
    unless the best gain is > 0) and the split's position in that
    feature's order; ties go to the lowest feature, then position.
    """
    d, total = xs.shape
    count = len(m)
    node = np.repeat(np.arange(count), m)
    j = np.arange(total) - off[node]  # position within the node
    # prefix sums run down zero-padded (feature, position, node) blocks, so
    # each starts at its node's first row, as a one-node cumsum does
    gl = np.empty((d, total))
    gt = np.empty((d, count))
    per = max(1, _GROW_BUDGET // (d * int(m.max())))
    for a in range(0, count, per):
        b = min(a + per, count)
        cols = slice(off[a], off[b - 1] + m[b - 1])
        cell = j[cols] * (b - a) + node[cols] - a
        block = np.zeros((d, int(m[a:b].max()), b - a))
        flat = block.reshape(d, -1)
        flat[:, cell] = gs[:, cols]
        np.cumsum(block, axis=1, out=block)
        gl[:, cols] = flat[:, cell]
        gt[:, a:b] = flat[:, (m[a:b] - 1) * (b - a) + np.arange(b - a)]
    # the one-node expression 0.5 * (gl*gl/(hl+lam) + (gt-gl)**2/(hr+lam)
    # - gt*gt/(m+lam)) - gamma, operation for operation
    lam = config.lambda_l2
    hl = j + 1.0
    hr = m[node] - hl  # 0 at a node's last position, which is no split
    with np.errstate(divide="ignore", invalid="ignore"):  # a node's last position, masked below
        gain = gl * gl
        gain /= hl + lam
        gr = gt[:, node] - gl
        gr *= gr
        gr /= hr + lam
        gain += gr
        gt *= gt
        gt /= m + lam
        gain -= gt[:, node]
    gain *= 0.5
    gain -= config.gamma_min_gain
    valid = np.zeros((d, total), dtype=bool)
    np.less(xs[:, :-1], xs[:, 1:], out=valid[:, :-1])
    valid &= (hr > 0.0) & (hl >= config.min_child_weight) & (hr >= config.min_child_weight)
    gain = np.where(valid, gain, -np.inf)
    # the first maximum in (feature, position) order; any NaN makes a leaf
    by_feature = np.maximum.reduceat(gain, off, axis=1)
    best = by_feature.max(axis=0)
    f = (by_feature == best).argmax(axis=0)
    hit = gain[f[node], np.arange(total)] == best[node]
    k = np.minimum.reduceat(np.where(hit, j, total), off)
    f[~(best > 0.0)] = -1
    return f, k


def _grow_gbt_round(X, order, xsorted, g, config: GBTConfig) -> tuple[Tree, np.ndarray]:
    """One round's tree, grown one depth level at a time, and its value at each row.

    Row f of `order` lists the rows sorted by feature f (ties by row) and
    the same row of `xsorted` their x values. Each level stably sorts
    those orders by node, so every node sees its rows in each feature's
    order, and routes rows by x <= threshold. Nodes are numbered level by
    level, left children before right ones.
    """
    n, d = X.shape
    gsorted = g[order]
    row_start = np.arange(0, d * n, n)[:, None]
    node = np.zeros(n, dtype=np.intp)  # each row's node, finally its leaf
    # each row's node within its level, -1 once in a leaf; per-level tables
    # have one more entry, for those rows
    live = np.zeros(n, dtype=np.intp)
    m = np.array([n])
    levels = []
    first = depth = 0
    while True:
        count = len(m)
        feature = np.full(count, -1)
        threshold = np.zeros(count)
        cand = np.flatnonzero(m >= 2) if depth < config.max_depth else ()
        if len(cand):
            mc = m[cand]
            off = np.cumsum(mc) - mc
            if depth == 0:
                xs, gs = xsorted, gsorted
            else:
                key = np.full(count + 1, len(cand), dtype=np.min_scalar_type(len(cand)))
                key[cand] = np.arange(len(cand))
                by_node = np.argsort(key[live][order], axis=1, kind="stable")[:, : off[-1] + mc[-1]]
                by_node += row_start
                xs, gs = xsorted.ravel()[by_node], gsorted.ravel()[by_node]
            f, k = _best_gain_splits(xs, gs, mc, off, config)
            ok = f >= 0
            f, pos, at = f[ok], off[ok] + k[ok], cand[ok]
            feature[at] = f
            threshold[at] = 0.5 * (xs[f, pos] + xs[f, pos + 1])
        split = np.flatnonzero(feature >= 0)
        left = np.full(count, -1)
        left[split] = np.arange(len(split)) + (first + count)
        right = np.where(feature >= 0, left + len(split), -1)
        levels.append((feature, threshold, left, right))
        if not len(split):
            break
        # rows of split nodes move to their children, the next level's nodes
        rank = np.full(count + 1, -1)
        rank[split] = np.arange(len(split))
        moving = np.flatnonzero(rank[live] >= 0)
        at = live[moving]
        child = rank[at]
        child[~(X[moving, feature[at]] <= threshold[at])] += len(split)
        live.fill(-1)
        live[moving] = child
        node[moving] = child + (first + count)
        m = np.bincount(child, minlength=2 * len(split))
        first += count
        depth += 1
    feature, threshold, left, right = (np.concatenate(c) for c in zip(*levels))
    # each leaf's weight -g.sum() / (m + lambda), its g in ascending row order
    leaves = np.flatnonzero(feature < 0)
    size = np.bincount(node, minlength=len(feature))[leaves]
    by_leaf = g[np.argsort(node, kind="stable")]
    ends = np.cumsum(size).tolist()
    sums = np.array([by_leaf[a:b].sum() for a, b in zip([0] + ends[:-1], ends)])
    value = np.zeros(len(feature))
    value[leaves] = config.learning_rate * (-sums / (size + config.lambda_l2))
    tree = Tree(feature=feature, threshold=threshold, left=left, right=right, value=value)
    return tree, value[node]


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


def _predict_trees(trees: list[Tree], X: np.ndarray) -> np.ndarray:
    """(len(trees), n_queries) matrix of every tree's predictions.

    Trees are packed into one node array, in chunks of about _CHUNK
    (tree, query) pairs, and traversed together: each pass moves every
    pair not yet at a leaf one level down.
    """
    n, d = X.shape
    x = X.ravel()
    out = np.empty((len(trees), n))
    per = max(1, _CHUNK // max(n, 1))
    for a in range(0, len(trees), per):
        chunk = trees[a : a + per]
        sizes = np.array([len(t.feature) for t in chunk])
        root = np.cumsum(sizes) - sizes
        shift = np.repeat(root, sizes)
        feature = np.concatenate([t.feature for t in chunk])
        threshold = np.concatenate([t.threshold for t in chunk])
        left = np.concatenate([t.left for t in chunk]) + shift
        right = np.concatenate([t.right for t in chunk]) + shift
        node = np.repeat(root, n)
        pair = np.flatnonzero(feature[node] >= 0)
        while len(pair):
            cur = node[pair]
            go_left = x[pair % n * d + feature[cur]] <= threshold[cur]
            node[pair] = cur = np.where(go_left, left[cur], right[cur])
            pair = pair[feature[cur] >= 0]
        out[a : a + per] = np.concatenate([t.value for t in chunk])[node].reshape(len(chunk), n)
    return out


def predict_forest(model: ForestModel, X) -> list[Prediction]:
    """Ensemble mean and population std of the per-tree predictions."""
    X = as_matrix(X)
    if X.shape[1] != model.n_features:
        raise ShapeError(f"query has {X.shape[1]} features, model expects {model.n_features}")
    per_tree = _predict_trees(model.trees, X)
    mean = per_tree.mean(axis=0)
    std = per_tree.std(axis=0)
    return [Prediction(float(m), float(s)) for m, s in zip(mean, std)]


def fit_gbt(X, y, config: GBTConfig = GBTConfig()) -> GBTModel:
    """Boost squared-error residuals; base prediction is mean(y).

    Each feature's rows are sorted once per fit; every round's tree reuses
    those orders, and the training predictions take each row's leaf value.
    """
    X, y = _check_xy(X, y)
    base = float(y.mean())
    pred = np.full(y.shape[0], base)
    order = np.argsort(X, axis=0, kind="stable").T
    xsorted = np.take_along_axis(X.T, order, axis=1)
    trees = []
    for _ in range(config.n_rounds):
        tree, step = _grow_gbt_round(X, order, xsorted, pred - y, config)
        pred += step
        trees.append(tree)
    return GBTModel(base_score=base, trees=trees, config=config, n_features=X.shape[1])


def stage_rounds(n_rounds: int, members: int = 10) -> list[int]:
    """Virtual-ensemble checkpoints: ~evenly spaced over rounds n/2..n."""
    marks = np.linspace(n_rounds / 2.0, n_rounds, members)
    return sorted({int(round(v)) for v in marks})


def staged_predictions(model: GBTModel, X, rounds: list[int]) -> np.ndarray:
    """(len(rounds), n_queries) matrix of predictions after each checkpoint.

    Checkpoints are taken in ascending order, once each; rounds run from
    0 (the base score) to len(model.trees), and others are ignored.
    """
    X = as_matrix(X)
    stages = np.concatenate([np.full((1, X.shape[0]), model.base_score), _predict_trees(model.trees, X)])
    np.cumsum(stages, axis=0, out=stages)  # round by round, in order
    return stages[sorted({r for r in rounds if 0 <= r <= len(model.trees)})]


def predict_gbt(model: GBTModel, X) -> list[Prediction]:
    """Full-ensemble mean; std from the staged virtual ensemble."""
    X = as_matrix(X)
    if X.shape[1] != model.n_features:
        raise ShapeError(f"query has {X.shape[1]} features, model expects {model.n_features}")
    stages = staged_predictions(model, X, stage_rounds(model.config.n_rounds))
    mean = stages[-1]  # last checkpoint is always round n
    std = stages.std(axis=0)
    return [Prediction(float(m), float(s)) for m, s in zip(mean, std)]
