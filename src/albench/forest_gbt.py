"""From-scratch regression tree ensembles: random forest and boosted trees.

Both models grow array-backed CART trees with exhaustive split search (all
features, all thresholds between adjacent distinct sorted values).
Equal-score splits break to the lowest feature index, then the lowest
threshold, so fits are deterministic.

One grower serves both, with SLIQ-style presorting and the exact greedy
search of XGBoost. It grows a batch of trees one depth level at a time
from per-feature row orders sorted once: a forest batch is many bootstrap
trees, and a booster round is a batch of one tree over orders sorted once
per fit. Every live node keeps its rows in each feature's order. A level
scores its nodes largest first, in chunks of a zero-padded (position,
node, feature) block, with sequential prefix sums down positions; routes
each split node's rows by x <= threshold; and stably partitions the orders
into the children. What the models grow differently is one internal split
rule: the per-row statistic, the score, the child-size floor, the accept
test and the leaf value. Scores, thresholds and leaf values use the same
floating-point operations in the same order as growing each node on its
own, so every tree is identical, split for split, to node-by-node growth.
Working memory is bounded by _GROW_BUDGET and _CHUNK: at 150 rows and 14
features a forest fit needs under 2 MB and a booster fit under 0.5 MB
besides the model.

At prediction time a model's trees are packed into one node array, and
every (tree, query) pair moves down a level per numpy pass.

Uncertainty: the forest reports the population std of per-tree
predictions; the booster reports the population std of a "virtual
ensemble" of staged predictions over the second half of its rounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigError
from .types import as_matrix, query_matrix, training_set


@dataclass(frozen=True)
class ForestConfig:
    n_trees: int = 400
    bootstrap: bool = True
    max_depth: Optional[int] = None
    min_samples_split: int = 2
    min_samples_leaf: int = 1

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


# Working-memory budgets, in array elements. A forest batch takes as many
# trees as fit (sample row, feature) entries in _GROW_BUDGET; a scoring
# chunk holds at most _CHUNK (position, node, feature) entries, a partition
# step _CHUNK (feature, row) entries and a prediction pass about _CHUNK
# (tree, query) pairs. Each takes at least one tree, node or feature row.
# Working arrays cost 1 to 8 bytes per entry.
_GROW_BUDGET = 1 << 16
_CHUNK = 1 << 14


class _VarianceRule:
    """The forest's split rule: least total child SSE, from y and y*y sums."""

    constant_leaves = True  # a node whose targets are all equal stays a leaf

    def __init__(self, config: ForestConfig):
        self.max_depth = config.max_depth
        self.min_split = config.min_samples_split
        self.floor = config.min_samples_leaf  # rows in each child

    def score(self, cs, nl, nr, m):
        """Negated SSE of every cut; cs holds the block's y values, overwritten."""
        css = cs * cs
        np.cumsum(cs, axis=0, out=cs)
        np.cumsum(css, axis=0, out=css)
        st, sst = cs[-1], css[-1]
        sl, ssl = cs[:-1], css[:-1]
        # (ssl - sl*sl/nl) + ((sst - ssl) - (st - sl)**2/nr), operation for
        # operation, so each score is bit-identical to a one-node evaluation
        sse = sl * sl
        sse /= nl
        np.subtract(ssl, sse, out=sse)
        np.subtract(sst, ssl, out=ssl)
        np.subtract(st, sl, out=sl)
        sl *= sl
        sl /= nr
        ssl -= sl
        sse += ssl
        return np.negative(sse, out=sse)

    def accept(self, best):
        return np.isfinite(best)

    def leaf(self, sums, counts):
        with np.errstate(invalid="ignore"):  # an empty child gets NaN, as np.mean of no rows
            return sums / counts


class _GainRule:
    """The booster's split rule: second-order gain, from gradient sums."""

    constant_leaves = False

    def __init__(self, config: GBTConfig):
        self.max_depth = config.max_depth
        self.min_split = 2
        self.floor = config.min_child_weight  # hessian, here rows, in each child
        self.config = config

    def score(self, gl, nl, nr, m):
        """Gain of every cut; gl holds the block's gradients, overwritten."""
        lam = self.config.lambda_l2
        np.cumsum(gl, axis=0, out=gl)
        gt, gl = gl[-1], gl[:-1]
        # the one-node expression 0.5 * (gl*gl/(hl+lam) + (gt-gl)**2/(hr+lam)
        # - gt*gt/(m+lam)) - gamma, operation for operation
        gr = gt - gl
        gain = np.multiply(gl, gl, out=gl)
        gain /= nl + lam
        gr *= gr
        gr /= nr + lam
        gain += gr
        gain -= gt * gt / (m[:, None] + lam)
        gain *= 0.5
        gain -= self.config.gamma_min_gain
        return gain

    def accept(self, best):
        return best > 0.0

    def leaf(self, sums, counts):
        c = self.config
        return c.learning_rate * (-sums / (counts + c.lambda_l2))


def _presort(X, samples: np.ndarray):
    """x table and per-feature row orders of a batch of row samples.

    Batch row r is row samples.flat[r] of X. Column r of the (d, rows + 1)
    x table holds its features, and the last column, the sentinel row, is
    -inf. Row f of the (d, rows + 1) order lists each sample's batch rows
    sorted by feature f (ties by row), sample after sample, and ends with
    the sentinel row.
    """
    n_trees, n = samples.shape
    d = X.shape[1]
    rows = n_trees * n
    sample = samples.ravel()
    xt = np.empty((d, rows + 1))
    xt[:, rows] = -np.inf
    order = np.empty((d, rows + 1), dtype=np.int32)
    order[:, rows] = rows
    tree_start = np.arange(0, rows, n)[:, None]
    for f in range(d):
        xt[f, :rows] = X[sample, f]
        order[f, :rows] = (np.argsort(xt[f, :rows].reshape(n_trees, n), axis=1, kind="stable") + tree_start).ravel()
    return xt, order


def _chunk_splits(order, xt, fo, vv, off, m, rule):
    """Best split of each node, scored for all nodes together.

    Node i owns columns off[i] .. off[i] + m[i] - 1 of `order`, and nodes
    come largest first. Each is padded to the first with the sentinel row,
    whose value is 0 and whose x of -inf makes every cut at or after a
    node's last row invalid. Returns the feature (-1 where the rule takes
    no split) and the threshold; ties go to the lowest feature, then
    position.
    """
    width = m[0]
    j = np.arange(width)[:, None]
    real = j < m
    block = order.T[np.where(real, off + j, -1)]  # (position, node, feature) rows
    xs = xt.take(block + fo)
    vals = vv.take(block)
    del block
    invalid = np.less(xs[:-1], xs[1:])
    np.logical_not(invalid, out=invalid)
    nl = np.arange(1.0, width)[:, None, None]  # rows left of each cut
    nr = m[:, None] - nl
    if rule.floor > 1:
        invalid |= (nl < rule.floor) | (nr < rule.floor)
    varies = ((vals[:, :, 0] != vals[0, :, 0]) & real).any(axis=0) if rule.constant_leaves else True
    score = rule.score(vals, nl, nr, m)
    np.putmask(score, invalid, -np.inf)
    # the first maximum in (feature, position) order; any NaN makes a leaf
    by_feature = score.max(axis=0)  # (node, feature)
    f = by_feature.argmax(axis=1)
    node = np.arange(len(m))
    best = by_feature[node, f]
    k = (score[:, node, f] == best).argmax(axis=0)
    ok = rule.accept(best) & varies
    lo, hi = xs[k, node, f], xs[k + 1, node, f]
    # the midpoint, or lo where it is not below hi (adjacent floats, an
    # infinite x, a sum past the float range): x <= threshold must send lo
    # left and hi right
    mid = 0.5 * (lo + hi)
    threshold = np.where(mid < hi, mid, lo)
    return np.where(ok, f, -1), np.where(ok, threshold, 0.0)


def _grow(xt, order, v, n_trees: int, rule) -> tuple[list[Tree], np.ndarray]:
    """Grow one tree per sample of a batch, one depth level at a time.

    xt and order come from _presort, and v holds each batch row's value.
    Every live node keeps its rows in each feature's order. A level scores
    its nodes largest first, in chunks of at most _CHUNK entries, routes
    each split node's rows by x <= threshold, and stably partitions the
    orders into the children, all left children before all right ones;
    nodes are numbered level by level in the same order. Returns the trees
    and each batch row's leaf value.
    """
    d, rows = len(order), len(v)
    vv = np.append(v, 0.0)
    fo = np.arange(0, xt.size, xt.shape[1])  # each feature's first entry in the flat x table
    n = rows // n_trees
    m = np.full(n_trees, n)
    tree = np.arange(n_trees)
    leaf_of = np.repeat(tree, n)  # each row's node, finally its leaf
    side = np.empty(rows, dtype=np.int8)  # 0: in a leaf, 1: left, 2: right
    levels = []
    first = depth = 0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):  # masked cuts and thresholds
        while True:
            count = len(m)
            off = np.cumsum(m) - m
            feature = np.full(count, -1)
            threshold = np.zeros(count)
            if rule.max_depth is None or depth < rule.max_depth:
                # candidates, largest first
                cand = np.argsort(-m, kind="stable")[: np.count_nonzero(m >= rule.min_split)]
                i = 0
                while i < len(cand):
                    chunk = cand[i : i + max(1, _CHUNK // (d * int(m[cand[i]])))]
                    feature[chunk], threshold[chunk] = _chunk_splits(order, xt, fo, vv, off[chunk], m[chunk], rule)
                    i += len(chunk)
            is_split = feature >= 0
            split = np.flatnonzero(is_split)
            p = len(split)
            left = np.where(is_split, np.cumsum(is_split) + (first + count - 1), -1)
            right = np.where(is_split, left + p, -1)
            levels.append((tree, feature, threshold, left, right))
            if not p:
                break
            # route each row through its node's split feature order
            live = int(off[-1] + m[-1])
            node = np.repeat(np.arange(count), m)
            fn = feature[node]  # -1 in leaves: those lookups wrap to the last feature, unused
            row = order.take(fn * order.shape[1] + np.arange(live))
            goes_left = xt.take(fo[fn] + row) <= threshold[node]
            inner = fn >= 0
            side[row] = np.where(inner, 2 - goes_left, 0)
            child = np.where(goes_left, left[node], right[node])[inner]
            leaf_of[row[inner]] = child
            m = np.bincount(child - (first + count), minlength=2 * p)
            depth += 1
            if (rule.max_depth is not None and depth >= rule.max_depth) or m.max() < rule.min_split:
                order = None  # no child will be scored
            else:
                kept, n_left = len(child), int(m[:p].sum())
                regrouped = np.empty((d, kept + 1), dtype=order.dtype)
                regrouped[:, kept] = rows
                step = max(1, _CHUNK // live)
                for a in range(0, d, step):
                    part = order[a : a + step, :live]
                    to = side.take(part)
                    regrouped[a : a + step, :n_left] = part[to == 1].reshape(len(part), n_left)
                    regrouped[a : a + step, n_left:kept] = part[to == 2].reshape(len(part), kept - n_left)
                order = regrouped
                del to
            del node, fn, row  # free before the next level's scoring
            tree = tree[np.concatenate((split, split))]
            first += count
    tree, feature, threshold, left, right = (np.concatenate(c) for c in zip(*levels))
    # leaf sums over rows in ascending order: a sum of one or two values is
    # the same in any order, so those take one row-wise sum per size; from
    # three values numpy's association matters, and each such leaf calls .sum()
    size = np.bincount(leaf_of, minlength=len(feature))
    by_leaf = vv[np.argsort(leaf_of, kind="stable")]
    end = np.cumsum(size)
    sums = np.zeros(len(feature))
    for s in (1, 2):
        at = np.flatnonzero(size == s)
        sums[at] = by_leaf[(end[at] - s)[:, None] + np.arange(s)].sum(axis=1)
    big = np.flatnonzero(size >= 3)
    sums[big] = [by_leaf[e - c : e].sum() for e, c in zip(end[big].tolist(), size[big].tolist())]
    value = np.zeros(len(feature))
    leaves = feature < 0
    value[leaves] = rule.leaf(sums[leaves], size[leaves])
    return _unpack(tree, feature, threshold, left, right, value, n_trees), value[leaf_of]


def _unpack(tree, feature, threshold, left, right, value, n_trees: int) -> list[Tree]:
    """Per-tree node arrays, each tree in growth order from its root."""
    order = np.argsort(tree, kind="stable")
    counts = np.bincount(tree, minlength=n_trees)
    start = np.cumsum(counts) - counts
    local = np.empty(len(order), dtype=np.int64)
    local[order] = np.arange(len(order)) - np.repeat(start, counts)
    inner = left >= 0
    left[inner] = local[left[inner]]
    right[inner] = local[right[inner]]
    return [
        Tree(*(a[order[s : s + c]] for a in (feature, threshold, left, right, value)))
        for s, c in zip(start, counts)
    ]


@dataclass
class ForestModel:
    trees: list[Tree]
    config: ForestConfig
    n_features: int


@dataclass
class GBTModel:
    base_score: float
    trees: list[Tree]
    config: GBTConfig
    n_features: int


def fit_forest(X, y, config: ForestConfig, seed: int) -> ForestModel:
    """Grow the bootstrap ensemble; deterministic given `seed`.

    Each tree draws its resample from its own spawned PRNG substream, so
    fitting order (or parallel scheduling) cannot change the result.
    """
    X, y = training_set(X, y)
    n, d = X.shape
    children = np.random.SeedSequence(seed).spawn(config.n_trees)
    per_batch = max(1, _GROW_BUDGET // (n * d))
    rule = _VarianceRule(config)
    trees: list[Tree] = []
    for start in range(0, config.n_trees, per_batch):
        batch = children[start : start + per_batch]
        if config.bootstrap:
            samples = np.stack([np.random.default_rng(c).integers(0, n, size=n) for c in batch])
        else:
            samples = np.tile(np.arange(n), (len(batch), 1))
        trees += _grow(*_presort(X, samples), y[samples.ravel()], len(batch), rule)[0]
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


def predict_forest(model: ForestModel, X) -> tuple[np.ndarray, np.ndarray]:
    """Ensemble mean and population std of the per-tree predictions, each of shape (n,)."""
    X = query_matrix(X, model.n_features)
    per_tree = _predict_trees(model.trees, X)
    return per_tree.mean(axis=0), per_tree.std(axis=0)


def fit_gbt(X, y, config: GBTConfig = GBTConfig()) -> GBTModel:
    """Boost squared-error residuals; base prediction is mean(y).

    Each feature's rows are sorted once per fit; every round's tree reuses
    those orders, and the training predictions take each row's leaf value.
    """
    X, y = training_set(X, y)
    base = float(y.mean())
    pred = np.full(y.shape[0], base)
    xt, order = _presort(X, np.arange(y.shape[0])[None])
    rule = _GainRule(config)
    trees = []
    for _ in range(config.n_rounds):
        (tree,), step = _grow(xt, order, pred - y, 1, rule)
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


def predict_gbt(model: GBTModel, X) -> tuple[np.ndarray, np.ndarray]:
    """Full-ensemble mean and the staged virtual ensemble's std, each of shape (n,)."""
    X = query_matrix(X, model.n_features)
    stages = staged_predictions(model, X, stage_rounds(model.config.n_rounds))
    return stages[-1], stages.std(axis=0)  # last checkpoint is always round n
