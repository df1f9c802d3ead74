"""Tree ensembles against brute-force split and boosting oracles."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from albench.errors import ConfigError, FitError, ShapeError
from albench.forest_gbt import (
    ForestConfig,
    ForestModel,
    GBTConfig,
    Tree,
    fit_forest,
    fit_gbt,
    predict_forest,
    predict_gbt,
    stage_rounds,
    staged_predictions,
)


def leaf_tree(value):
    return Tree(
        feature=np.array([-1]),
        threshold=np.array([0.0]),
        left=np.array([-1]),
        right=np.array([-1]),
        value=np.array([float(value)]),
    )


# --- independent oracles -----------------------------------------------------


def enumerate_best_sse_split(X, y):
    """Exhaustive (feature, midpoint) scan minimizing total child SSE."""
    best = None
    for f in range(X.shape[1]):
        xs = np.unique(X[:, f])
        for lo, hi in zip(xs, xs[1:]):
            thr = (lo + hi) / 2.0
            left = y[X[:, f] <= thr]
            right = y[X[:, f] > thr]
            sse = ((left - left.mean()) ** 2).sum() + ((right - right.mean()) ** 2).sum()
            if best is None or sse < best[0] - 1e-15:
                best = (sse, f, thr)
    return best


def reference_variance_tree(X, y, config):
    """One CART tree grown node by node, as the forest grew it before the
    level-synchronous grower: each node argsorts its own rows, scores every
    (feature, position) with the same expression, and takes the first
    minimum in (feature, position) order. Returns the tree's to_dict()."""

    def best_split(idx):
        m = len(idx)
        order = np.argsort(X[idx], axis=0, kind="stable")
        xs = np.take_along_axis(X[idx], order, axis=0)
        vs = y[idx][order]
        cs, css = np.cumsum(vs, axis=0), np.cumsum(vs * vs, axis=0)
        nl = np.arange(1, m, dtype=float)[:, None]
        nr = m - nl
        sl, ssl, st_, sst = cs[:-1], css[:-1], cs[-1], css[-1]
        sse = (ssl - sl * sl / nl) + ((sst - ssl) - (st_ - sl) ** 2 / nr)
        counts = np.arange(1, m)[:, None]
        valid = (xs[:-1] < xs[1:]) & (counts >= config.min_samples_leaf) & (m - counts >= config.min_samples_leaf)
        scores = np.where(valid, sse, np.inf).T
        flat = int(np.argmin(scores))
        if not np.isfinite(scores.flat[flat]):
            return None
        f, k = divmod(flat, m - 1)
        return int(f), float(0.5 * (xs[k, f] + xs[k + 1, f]))

    def grow(idx, depth):
        sub_y = y[idx]
        split = None
        if (
            (config.max_depth is None or depth < config.max_depth)
            and len(idx) >= config.min_samples_split
            and not np.all(sub_y == sub_y[0])
        ):
            split = best_split(idx)
        if split is None:
            return {"leaf": float(sub_y.mean())}
        f, thr = split
        go_left = X[idx, f] <= thr
        return {
            "feature": f,
            "threshold": thr,
            "left": grow(idx[go_left], depth + 1),
            "right": grow(idx[~go_left], depth + 1),
        }

    return grow(np.arange(X.shape[0]), 0)


def bootstrap_samples(n, config):
    """The row sample of each tree, drawn as fit_forest draws it."""
    for child in np.random.SeedSequence(config.seed).spawn(config.n_trees):
        if config.bootstrap:
            yield np.random.default_rng(child).integers(0, n, size=n)
        else:
            yield np.arange(n)


def reference_gbt_fit(X, y, config):
    """fit_gbt as the node-by-node grower did it before level-by-level
    growth: every node argsorts its own rows, scores every (feature,
    position) with the second-order gain, and takes the first maximum in
    (feature, position) order. Returns the base score and each round's
    tree as a to_dict()."""
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    y = np.asarray(y, dtype=float)
    lam = config.lambda_l2

    def best_split(idx, g):
        m = len(idx)
        if m < 2:
            return None
        order = np.argsort(X[idx], axis=0, kind="stable")
        xs = np.take_along_axis(X[idx], order, axis=0)
        cs = np.cumsum(g[idx][order], axis=0)
        hl = np.arange(1, m, dtype=float)[:, None]
        hr = m - hl
        gl = cs[:-1]
        gt = cs[-1]
        gain = 0.5 * (gl * gl / (hl + lam) + (gt - gl) ** 2 / (hr + lam) - gt * gt / (m + lam)) - config.gamma_min_gain
        valid = (xs[:-1] < xs[1:]) & (hl >= config.min_child_weight) & (hr >= config.min_child_weight)
        scores = np.where(valid, gain, -np.inf).T
        flat = int(np.argmax(scores))
        if not (scores.flat[flat] > 0.0):
            return None
        f, k = divmod(flat, m - 1)
        return int(f), float(0.5 * (xs[k, f] + xs[k + 1, f]))

    def grow(idx, g, depth, step):
        split = best_split(idx, g) if depth < config.max_depth else None
        if split is None:
            value = config.learning_rate * (-g[idx].sum() / (len(idx) + lam))
            step[idx] = value
            return {"leaf": float(value)}
        f, thr = split
        go_left = X[idx, f] <= thr
        return {
            "feature": f,
            "threshold": thr,
            "left": grow(idx[go_left], g, depth + 1, step),
            "right": grow(idx[~go_left], g, depth + 1, step),
        }

    base = float(y.mean())
    pred = np.full(len(y), base)
    trees = []
    for _ in range(config.n_rounds):
        step = np.empty(len(y))
        trees.append(grow(np.arange(len(y)), pred - y, 0, step))
        pred += step
    return base, trees


def reference_staged(base, trees, Q):
    """Predictions after rounds 0..len(trees), one dict tree at a time."""

    def leaf(node, q):
        while "leaf" not in node:
            node = node["left"] if q[node["feature"]] <= node["threshold"] else node["right"]
        return node["leaf"]

    cum = np.full(Q.shape[0], base)
    stages = [cum.copy()]
    for tree in trees:
        cum += np.array([leaf(tree, q) for q in Q])
        stages.append(cum.copy())
    return np.stack(stages)


class ReferenceBooster:
    """Plain recursive second-order booster, coded independently."""

    def __init__(self, lr, depth, lam):
        self.lr, self.depth, self.lam = lr, depth, lam

    def _gain(self, gl, nl, gr, nr):
        g = gl + gr
        return 0.5 * (
            gl**2 / (nl + self.lam) + gr**2 / (nr + self.lam) - g**2 / (nl + nr + self.lam)
        )

    def _grow(self, X, g, depth):
        if depth < self.depth and len(g) >= 2:
            best = None
            for f in range(X.shape[1]):
                xs = np.unique(X[:, f])
                for lo, hi in zip(xs, xs[1:]):
                    thr = (lo + hi) / 2.0
                    mask = X[:, f] <= thr
                    gain = self._gain(g[mask].sum(), mask.sum(), g[~mask].sum(), (~mask).sum())
                    if best is None or gain > best[0] + 1e-15:
                        best = (gain, f, thr, mask)
            if best is not None and best[0] > 0:
                _, f, thr, mask = best
                return {
                    "f": f,
                    "thr": thr,
                    "left": self._grow(X[mask], g[mask], depth + 1),
                    "right": self._grow(X[~mask], g[~mask], depth + 1),
                }
        return {"w": -g.sum() / (len(g) + self.lam)}

    def _eval(self, node, x):
        while "w" not in node:
            node = node["left"] if x[node["f"]] <= node["thr"] else node["right"]
        return node["w"]

    def staged_fit_predict(self, X, y, rounds):
        pred = np.full(len(y), y.mean())
        stages = [pred.copy()]
        for _ in range(rounds):
            g = pred - y
            tree = self._grow(X, g, 0)
            pred = pred + self.lr * np.array([self._eval(tree, x) for x in X])
            stages.append(pred.copy())
        return stages


# --- forest -------------------------------------------------------------------


class TestForest:
    def test_single_training_point_all_leaves(self):
        model = fit_forest([[1.0, 2.0]], [5.0], ForestConfig(n_trees=10, seed=0))
        mean, std = predict_forest(model, [[9.0, -3.0], [1.0, 2.0]])
        assert mean.tolist() == [5.0, 5.0] and std.tolist() == [0.0, 0.0]

    def test_memorization_without_bootstrap(self, rng):
        X = rng.normal(size=(12, 3))
        y = rng.normal(size=12)
        model = fit_forest(X, y, ForestConfig(n_trees=1, bootstrap=False, seed=0))
        mean, _ = predict_forest(model, X)
        assert np.allclose(mean, y)

    def test_root_split_matches_enumeration_oracle(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([1.0, 1.2, 5.0, 5.5])
        model = fit_forest(X, y, ForestConfig(n_trees=1, bootstrap=False, seed=0))
        tree = model.trees[0]
        _, f, thr = enumerate_best_sse_split(X, y)
        assert tree.feature[0] == f
        assert tree.threshold[0] == thr == 1.5

    def test_mean_and_std_arithmetic(self):
        model = ForestModel(trees=[leaf_tree(1.0), leaf_tree(3.0)], config=ForestConfig(n_trees=2), n_features=1)
        (mean,), (std,) = predict_forest(model, [[0.0]])
        assert mean == 2.0
        assert std == 1.0

    def test_mean_matches_per_tree_recomputation(self, rng):
        X = rng.normal(size=(20, 2))
        y = rng.normal(size=20)
        model = fit_forest(X, y, ForestConfig(n_trees=25, seed=4))
        Q = rng.normal(size=(7, 2))
        mean, _ = predict_forest(model, Q)
        manual = np.mean([t.predict(Q) for t in model.trees], axis=0)
        assert np.allclose(mean, manual)

    def test_tree_order_permutation_invariance(self, rng):
        X = rng.normal(size=(15, 2))
        y = rng.normal(size=15)
        model = fit_forest(X, y, ForestConfig(n_trees=8, seed=2))
        shuffled = ForestModel(
            trees=list(reversed(model.trees)), config=model.config, n_features=2
        )
        Q = rng.normal(size=(5, 2))
        a = predict_forest(model, Q)
        b = predict_forest(shuffled, Q)
        assert np.allclose(a[0], b[0])
        assert np.allclose(a[1], b[1])

    def test_predictions_within_target_range(self, rng):
        X = rng.normal(size=(30, 3))
        y = rng.normal(size=30)
        model = fit_forest(X, y, ForestConfig(n_trees=40, seed=7))
        mean, _ = predict_forest(model, rng.normal(size=(50, 3)) * 3)
        assert ((y.min() <= mean) & (mean <= y.max())).all()

    def test_deterministic_under_seed(self, rng):
        X = rng.normal(size=(10, 2))
        y = rng.normal(size=10)
        a = predict_forest(fit_forest(X, y, ForestConfig(n_trees=12, seed=5)), X)
        b = predict_forest(fit_forest(X, y, ForestConfig(n_trees=12, seed=5)), X)
        assert a[0].tolist() == b[0].tolist() and a[1].tolist() == b[1].tolist()

    def test_empty_training_set(self):
        with pytest.raises(FitError):
            fit_forest(np.empty((0, 2)), np.empty(0))

    def test_query_dimension_mismatch(self):
        model = fit_forest([[0.0, 1.0]], [1.0], ForestConfig(n_trees=1))
        with pytest.raises(ShapeError):
            predict_forest(model, [[1.0, 2.0, 3.0]])

    def test_min_samples_leaf_respected(self):
        X = np.arange(8, dtype=float)[:, None]
        y = np.array([0, 0, 0, 0, 1, 1, 1, 1], dtype=float)
        model = fit_forest(X, y, ForestConfig(n_trees=1, bootstrap=False, min_samples_leaf=3, seed=0))

        def leaf_sizes(tree, node, idx):
            if tree.feature[node] < 0:
                return [len(idx)]
            mask = X[idx, tree.feature[node]] <= tree.threshold[node]
            return leaf_sizes(tree, tree.left[node], idx[mask]) + leaf_sizes(
                tree, tree.right[node], idx[~mask]
            )

        assert all(s >= 3 for s in leaf_sizes(model.trees[0], 0, np.arange(8)))


@st.composite
def forest_problems(draw):
    """Small pools with tied values, duplicated rows and signed zeros."""
    n = draw(st.integers(1, 40))
    d = draw(st.integers(1, 4))
    levels = draw(st.sampled_from([2, 5, 1000]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.integers(0, levels, size=(n, d)) / 4.0
    y = rng.integers(-6, 7, size=n) / 3.0
    y[y == 0.0] = draw(st.sampled_from([0.0, -0.0]))
    config = ForestConfig(
        n_trees=draw(st.integers(1, 30)),
        bootstrap=draw(st.booleans()),
        max_depth=draw(st.sampled_from([None, 0, 1, 3])),
        min_samples_split=draw(st.sampled_from([2, 3, 6])),
        min_samples_leaf=draw(st.sampled_from([1, 2, 4])),
        seed=draw(st.integers(0, 1000)),
    )
    return X, y, config


class TestForestMatchesNodeByNodeGrower:
    @settings(max_examples=60, deadline=None)
    @given(forest_problems())
    def test_every_tree_matches_reference(self, problem):
        X, y, config = problem
        model = fit_forest(X, y, config)
        assert len(model.trees) == config.n_trees
        for tree, idx in zip(model.trees, bootstrap_samples(len(y), config)):
            expected = reference_variance_tree(X[idx], y[idx], config)
            # JSON text also tells -0.0 from 0.0
            assert json.dumps(tree.to_dict()) == json.dumps(expected)

    @pytest.mark.parametrize("n", [1, 2, 3, 9])
    def test_signed_zero_leaves_match_reference(self, n):
        X = np.zeros((n, 1))
        y = np.full(n, -0.0)
        config = ForestConfig(n_trees=3, seed=0)
        for tree, idx in zip(fit_forest(X, y, config).trees, bootstrap_samples(n, config)):
            assert json.dumps(tree.to_dict()) == json.dumps(reference_variance_tree(X[idx], y[idx], config))

    def test_tree_layout(self, rng):
        X = rng.normal(size=(25, 3))
        y = rng.normal(size=25)
        for tree in fit_forest(X, y, ForestConfig(n_trees=5, seed=1)).trees:
            inner = tree.feature >= 0
            assert tree.feature.dtype == tree.left.dtype == tree.right.dtype == np.int64
            assert np.all(tree.left[~inner] == -1) and np.all(tree.right[~inner] == -1)
            assert np.all(tree.threshold[~inner] == 0.0) and np.all(tree.value[inner] == 0.0)
            # every node but the root (index 0) is the child of exactly one node
            children = np.concatenate([tree.left[inner], tree.right[inner]])
            assert sorted(children) == list(range(1, len(tree.feature)))


# --- gbt ----------------------------------------------------------------------


class TestGBT:
    def test_constant_targets_zero_weight_rounds(self):
        X = np.arange(6, dtype=float)[:, None]
        y = np.full(6, 3.25)
        model = fit_gbt(X, y, GBTConfig(n_rounds=5))
        assert model.base_score == 3.25
        for tree in model.trees:
            assert np.all(tree.feature == -1)
            assert np.all(tree.value == 0.0)
        mean, std = predict_gbt(model, X)
        assert (mean == 3.25).all() and (std == 0.0).all()

    def test_single_round_memorization(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([4.0, -1.0, 2.5, 7.0])
        model = fit_gbt(X, y, GBTConfig(n_rounds=1, learning_rate=1.0, max_depth=3, lambda_l2=0.0))
        mean, _ = predict_gbt(model, X)
        assert np.allclose(mean, y)

    def test_staged_predictions_match_reference_booster(self, rng):
        X = rng.normal(size=(6, 2))
        y = rng.normal(size=6)
        lr, depth, lam, rounds = 0.5, 2, 1.0, 4
        model = fit_gbt(X, y, GBTConfig(n_rounds=rounds, learning_rate=lr, max_depth=depth, lambda_l2=lam))
        expected = ReferenceBooster(lr, depth, lam).staged_fit_predict(X, y, rounds)
        got = staged_predictions(model, X, list(range(rounds + 1)))
        assert np.allclose(got, np.stack(expected), atol=1e-10)

    def test_virtual_ensemble_std_matches_recomputation(self, rng):
        X = rng.normal(size=(10, 2))
        y = rng.normal(size=10)
        model = fit_gbt(X, y, GBTConfig(n_rounds=20, max_depth=2))
        Q = rng.normal(size=(4, 2))
        mean, std = predict_gbt(model, Q)
        stages = staged_predictions(model, Q, stage_rounds(20))
        assert np.allclose(std, stages.std(axis=0))
        assert np.allclose(mean, stages[-1])

    def test_stage_rounds_shape(self):
        stages = stage_rounds(400)
        assert len(stages) == 10
        assert stages[0] == 200 and stages[-1] == 400
        assert stage_rounds(1)[-1] == 1

    def test_converged_model_has_zero_std(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([4.0, -1.0, 2.5, 7.0])
        # high rounds with lr=1: residuals hit zero after round 1, later trees are no-ops
        model = fit_gbt(X, y, GBTConfig(n_rounds=30, learning_rate=1.0, max_depth=3, lambda_l2=0.0))
        _, std = predict_gbt(model, X)
        assert (std < 1e-12).all()

    def test_training_loss_non_increasing(self, rng):
        X = rng.normal(size=(15, 2))
        y = rng.normal(size=15)
        cfg = GBTConfig(n_rounds=25, max_depth=2, gamma_min_gain=0.0)
        model = fit_gbt(X, y, cfg)
        stages = staged_predictions(model, X, list(range(cfg.n_rounds + 1)))
        losses = ((stages - y) ** 2).sum(axis=1)
        assert np.all(np.diff(losses) <= 1e-9)

    def test_round_order_changes_staged_predictions(self, rng):
        from albench.forest_gbt import GBTModel

        X = rng.normal(size=(8, 1))
        y = rng.normal(size=8)
        model = fit_gbt(X, y, GBTConfig(n_rounds=3, max_depth=2))
        swapped = GBTModel(
            base_score=model.base_score,
            trees=[model.trees[1], model.trees[0], model.trees[2]],
            config=model.config,
            n_features=1,
        )
        assert not np.allclose(
            staged_predictions(model, X, [1]), staged_predictions(swapped, X, [1])
        )
        # only the intermediate stages are order-sensitive; full sums commute
        assert np.allclose(staged_predictions(model, X, [3]), staged_predictions(swapped, X, [3]))

    def test_determinism(self, rng):
        X = rng.normal(size=(9, 2))
        y = rng.normal(size=9)
        a = predict_gbt(fit_gbt(X, y, GBTConfig(n_rounds=10)), X)
        b = predict_gbt(fit_gbt(X, y, GBTConfig(n_rounds=10)), X)
        assert a[0].tolist() == b[0].tolist() and a[1].tolist() == b[1].tolist()

    def test_json_dump(self):
        model = fit_gbt([[0.0], [1.0]], [0.0, 1.0], GBTConfig(n_rounds=2, max_depth=1))
        d = model.to_json_dict()
        assert d["kind"] == "gbt"
        assert len(d["trees"]) == 2


@st.composite
def gbt_problems(draw):
    """Small pools with tied values, duplicated rows, signed zeros and every
    GBTConfig field drawn, plus query points off the training rows."""
    n = draw(st.integers(1, 30))
    d = draw(st.integers(1, 4))
    levels = draw(st.sampled_from([2, 5, 1000]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.integers(-levels, levels, size=(n, d)) / 4.0
    X[(X == 0.0) & (rng.random((n, d)) < 0.5)] = -0.0
    # integer targets give exactly tied gains; thirds round
    y = rng.integers(-6, 7, size=n) / draw(st.sampled_from([1.0, 3.0]))
    y[y == 0.0] = draw(st.sampled_from([0.0, -0.0]))
    if draw(st.booleans()):
        # mirror images of the rows with negated targets: cuts at mirrored
        # positions then gain the same
        X, y = np.vstack([X, (2 * levels + 2) / 4.0 - X]), np.concatenate([y, -y])
    if draw(st.booleans()):
        dup = rng.integers(0, n, size=draw(st.integers(1, 10)))
        X, y = np.vstack([X, X[dup]]), np.concatenate([y, y[dup]])
    config = GBTConfig(
        n_rounds=draw(st.integers(1, 12)),
        learning_rate=draw(st.sampled_from([0.05, 0.3, 1.0])),
        max_depth=draw(st.integers(0, 7)),
        lambda_l2=draw(st.sampled_from([0.0, 1.0])),
        gamma_min_gain=draw(st.sampled_from([0.0, 0.01, 0.5])),
        min_child_weight=draw(st.sampled_from([0.0, 1.0, 2.5])),
    )
    Q = np.vstack([X, rng.integers(-levels - 1, levels + 1, size=(5, d)) / 4.0])
    return X, y, config, Q


def bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.int64)


class TestGBTMatchesNodeByNodeGrower:
    @settings(max_examples=200, deadline=None)
    @given(gbt_problems())
    def test_fit_and_stages_match_reference(self, problem):
        X, y, config, Q = problem
        model = fit_gbt(X, y, config)
        base, trees = reference_gbt_fit(X, y, config)
        assert model.base_score == base
        # JSON text also tells -0.0 from 0.0
        assert [json.dumps(t.to_dict()) for t in model.trees] == [json.dumps(t) for t in trees]
        rounds = list(range(config.n_rounds + 1))
        assert np.array_equal(bits(staged_predictions(model, Q, rounds)), bits(reference_staged(base, trees, Q)))

    def test_equal_gains_break_to_lowest_feature_then_position(self):
        # g = [-1, 1, 1, -1] sums to 0, so cuts after the first and third row
        # of each feature gain the same, bit for bit; column 1 repeats column 0
        X = np.repeat(np.arange(4.0)[:, None], 2, axis=1)
        y = np.array([1.0, -1.0, -1.0, 1.0])
        config = GBTConfig(n_rounds=1, max_depth=1)
        tree = fit_gbt(X, y, config).trees[0]
        assert (tree.feature[0], tree.threshold[0]) == (0, 0.5)
        assert tree.to_dict() == reference_gbt_fit(X, y, config)[1][0]

    def test_node_tails_are_masked(self):
        # with lambda 0 a cut after a node's last row would score 0/0; its x
        # is below the next node's first x, so only the mask keeps it out
        X = np.arange(6.0)[:, None]
        y = np.array([0.0, 3.0, 0.5, 10.0, 11.0, 10.0])
        config = GBTConfig(n_rounds=1, max_depth=2, lambda_l2=0.0, min_child_weight=0.0)
        tree = fit_gbt(X, y, config).trees[0]
        assert tree.feature[tree.left[0]] >= 0 and tree.feature[tree.right[0]] >= 0
        assert tree.to_dict() == reference_gbt_fit(X, y, config)[1][0]

    def test_tree_layout(self, rng):
        X = rng.normal(size=(25, 3))
        y = rng.normal(size=25)
        for tree in fit_gbt(X, y, GBTConfig(n_rounds=5, max_depth=3)).trees:
            inner = tree.feature >= 0
            assert tree.feature.dtype == tree.left.dtype == tree.right.dtype == np.int64
            assert np.all(tree.left[~inner] == -1) and np.all(tree.right[~inner] == -1)
            assert np.all(tree.threshold[~inner] == 0.0) and np.all(tree.value[inner] == 0.0)
            children = np.concatenate([tree.left[inner], tree.right[inner]])
            assert sorted(children) == list(range(1, len(tree.feature)))


class TestPackedPrediction:
    def test_forest_matches_per_tree_traversal(self, rng):
        X = rng.normal(size=(30, 3))
        y = rng.normal(size=30)
        model = fit_forest(X, y, ForestConfig(n_trees=20, seed=3))
        Q = np.vstack([X, rng.normal(size=(40, 3))])

        def walk(tree, q, node=0):
            while tree.feature[node] >= 0:
                node = tree.left[node] if q[tree.feature[node]] <= tree.threshold[node] else tree.right[node]
            return tree.value[node]

        per_tree = np.array([[walk(t, q) for q in Q] for t in model.trees])
        mean, std = predict_forest(model, Q)
        assert np.array_equal(bits(mean), bits(per_tree.mean(axis=0)))
        assert np.array_equal(bits(std), bits(per_tree.std(axis=0)))
        for tree, row in zip(model.trees, per_tree):
            assert np.array_equal(bits(tree.predict(Q)), bits(row))

    def test_empty_query_set(self):
        model = fit_forest([[0.0], [1.0]], [0.0, 1.0], ForestConfig(n_trees=3))
        mean, std = predict_forest(model, np.empty((0, 1)))
        assert mean.shape == std.shape == (0,)
        gbt = fit_gbt([[0.0], [1.0]], [0.0, 1.0], GBTConfig(n_rounds=3))
        assert staged_predictions(gbt, np.empty((0, 1)), [0, 3]).shape == (2, 0)

    def test_staged_rounds_sorted_deduplicated_and_clipped(self, rng):
        X = rng.normal(size=(10, 2))
        model = fit_gbt(X, rng.normal(size=10), GBTConfig(n_rounds=4, max_depth=2))
        full = staged_predictions(model, X, [0, 1, 2, 3, 4])
        assert np.array_equal(staged_predictions(model, X, [3, 0, 3, 9, -1]), full[[0, 3]])


class TestConfigValidation:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("lambda_l2", -1.0),
            ("min_child_weight", -0.5),
            ("gamma_min_gain", -1e-9),
            ("max_depth", -1),
            ("lambda_l2", float("nan")),
        ],
    )
    def test_gbt_rejects_negative_fields(self, field, value):
        with pytest.raises(ConfigError):
            GBTConfig(**{field: value})

    def test_forest_rejects_negative_max_depth(self):
        with pytest.raises(ConfigError):
            ForestConfig(max_depth=-1)
        assert ForestConfig(max_depth=0).max_depth == 0

    def test_zero_is_allowed(self):
        config = GBTConfig(max_depth=0, lambda_l2=0.0, gamma_min_gain=0.0, min_child_weight=0.0)
        fit_gbt([[0.0], [1.0]], [0.0, 1.0], config)
