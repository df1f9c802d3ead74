"""Tree ensembles against brute-force split and boosting oracles."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from albench.errors import FitError, ShapeError
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
        preds = predict_forest(model, [[9.0, -3.0], [1.0, 2.0]])
        assert all(p.mean == 5.0 and p.std == 0.0 for p in preds)

    def test_memorization_without_bootstrap(self, rng):
        X = rng.normal(size=(12, 3))
        y = rng.normal(size=12)
        model = fit_forest(X, y, ForestConfig(n_trees=1, bootstrap=False, seed=0))
        preds = predict_forest(model, X)
        assert np.allclose([p.mean for p in preds], y)

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
        (pred,) = predict_forest(model, [[0.0]])
        assert pred.mean == 2.0
        assert pred.std == 1.0

    def test_mean_matches_per_tree_recomputation(self, rng):
        X = rng.normal(size=(20, 2))
        y = rng.normal(size=20)
        model = fit_forest(X, y, ForestConfig(n_trees=25, seed=4))
        Q = rng.normal(size=(7, 2))
        preds = predict_forest(model, Q)
        manual = np.mean([t.predict(Q) for t in model.trees], axis=0)
        assert np.allclose([p.mean for p in preds], manual)

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
        assert np.allclose([p.mean for p in a], [p.mean for p in b])
        assert np.allclose([p.std for p in a], [p.std for p in b])

    def test_predictions_within_target_range(self, rng):
        X = rng.normal(size=(30, 3))
        y = rng.normal(size=30)
        model = fit_forest(X, y, ForestConfig(n_trees=40, seed=7))
        preds = predict_forest(model, rng.normal(size=(50, 3)) * 3)
        assert all(y.min() <= p.mean <= y.max() for p in preds)

    def test_deterministic_under_seed(self, rng):
        X = rng.normal(size=(10, 2))
        y = rng.normal(size=10)
        a = predict_forest(fit_forest(X, y, ForestConfig(n_trees=12, seed=5)), X)
        b = predict_forest(fit_forest(X, y, ForestConfig(n_trees=12, seed=5)), X)
        assert [(p.mean, p.std) for p in a] == [(q.mean, q.std) for q in b]

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
        preds = predict_gbt(model, X)
        assert all(p.mean == 3.25 and p.std == 0.0 for p in preds)

    def test_single_round_memorization(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([4.0, -1.0, 2.5, 7.0])
        model = fit_gbt(X, y, GBTConfig(n_rounds=1, learning_rate=1.0, max_depth=3, lambda_l2=0.0))
        preds = predict_gbt(model, X)
        assert np.allclose([p.mean for p in preds], y)

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
        preds = predict_gbt(model, Q)
        stages = staged_predictions(model, Q, stage_rounds(20))
        assert np.allclose([p.std for p in preds], stages.std(axis=0))
        assert np.allclose([p.mean for p in preds], stages[-1])

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
        preds = predict_gbt(model, X)
        assert all(p.std < 1e-12 for p in preds)

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
        assert [(p.mean, p.std) for p in a] == [(q.mean, q.std) for q in b]

    def test_json_dump(self):
        model = fit_gbt([[0.0], [1.0]], [0.0, 1.0], GBTConfig(n_rounds=2, max_depth=1))
        d = model.to_json_dict()
        assert d["kind"] == "gbt"
        assert len(d["trees"]) == 2
