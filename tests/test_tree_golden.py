"""Golden pins for seeded tree-ensemble fits.

Each case stores the sha256 of the sorted-key JSON dump of a seeded
fit's ``conftest.model_dict`` and the total node count of its trees. Any change
to a split, a threshold, a leaf value or the tree structure changes the
hash. These pins were recorded on the per-node grower and are the
correctness gate for any faster grower: never re-record them to make a
change pass.

Inputs are built from integers divided by small constants, so they are
the same on every platform.
"""

import hashlib
import json

import numpy as np
import pytest

from albench.forest_gbt import ForestConfig, GBTConfig, fit_forest, fit_gbt, staged_predictions

from conftest import model_dict


def pool(n, d, seed):
    rng = np.random.default_rng(seed)
    X = rng.integers(-500, 500, size=(n, d)) / 7.0
    y = (X[:, 0] - 0.5 * X[:, -1]) ** 2 / 50.0 + rng.integers(-40, 40, size=n) / 3.0
    return X, y


def tied_pool():
    """Duplicated rows plus coarse features with many tied values."""
    rng = np.random.default_rng(11)
    X = rng.integers(0, 4, size=(30, 3)) / 2.0
    y = X[:, 0] * 3.0 - X[:, 1] + rng.integers(0, 3, size=30) / 4.0
    X = np.vstack([X, X[:10], X[3:6]])
    y = np.concatenate([y, y[:10], y[3:6]])
    return X, y


def digest(model) -> str:
    blob = json.dumps(model_dict(model), sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def node_count(model) -> int:
    return sum(len(t.feature) for t in model.trees)


X40, Y40 = pool(40, 3, 1)
X150, Y150 = pool(150, 14, 2)
XT, YT = tied_pool()

FOREST_CASES = {
    "default_bootstrap": (X40, Y40, ForestConfig(), 3),
    "bench_shape": (X150, Y150, ForestConfig(), 1),
    "no_bootstrap": (X40, Y40, ForestConfig(n_trees=20, bootstrap=False), 3),
    "max_depth_4": (X40, Y40, ForestConfig(n_trees=60, max_depth=4), 5),
    "min_samples_leaf_3": (X40, Y40, ForestConfig(n_trees=60, min_samples_leaf=3), 6),
    "min_samples_split_5": (X40, Y40, ForestConfig(n_trees=60, min_samples_split=5), 7),
    "ties_and_duplicates": (XT, YT, ForestConfig(n_trees=80), 8),
    "one_feature_1d": (X40[:, 0], Y40, ForestConfig(n_trees=60), 9),
    "single_row": (X40[:1], Y40[:1], ForestConfig(n_trees=5), 10),
}

FOREST_GOLDEN = {
    "bench_shape": ("8b62f79f4996ec54e07374941d046a9bc60a1ad622fbe0e0f88960d902228015", 75564),
    "default_bootstrap": ("80af2b8baa5f8084b999a745631fe37d53dd9c7ca6624494f6631d25b67a2236", 19792),
    "max_depth_4": ("47472629919cc89bbcf3cd8bb5c667a5546780988410d6d99eed05cf6ea87a79", 1280),
    "min_samples_leaf_3": ("6a939aee0cc13a587437773b05bc16e5a76b2f86317207c2f6296da5fae8ead0", 1212),
    "min_samples_split_5": ("595c0e9e3d52b7c81441084ad2f60f3ad3576ff5be0e9433fbc5e4ec2dc131a3", 1886),
    "no_bootstrap": ("c686952ed47fa72844dad7bba3f296836affe2481293746c562eeac2b41ae630", 1580),
    "one_feature_1d": ("5c6aa32726651cbad396fd80e44923aab33174d9b5d1f15057e4e2c4f6edf4ce", 3010),
    "single_row": ("0692bdc26718c96ec81554d55dadd0f5ba4f69a80edb8b25f4e6e4ae93185daf", 5),
    "ties_and_duplicates": ("02d1dc7f8b4fe2d4a5682c5a5c69a4347f8585af36d6c92dfe425a58768e0e4d", 2864),
}

GBT_GOLDEN = ("c7f110b8e20334fbde36461be1e815114e860a42a95edb0a5563a88b6a2968bf", 1104)

GBT_CASES = {
    "bench_shape": (X150, Y150, GBTConfig()),
    "ties_and_duplicates": (XT, YT, GBTConfig(n_rounds=60)),
    "max_depth_0": (X40, Y40, GBTConfig(n_rounds=20, max_depth=0)),
    "max_depth_2": (X40, Y40, GBTConfig(n_rounds=60, max_depth=2)),
    "lambda_l2_0": (X40, Y40, GBTConfig(n_rounds=60, lambda_l2=0.0)),
    "gamma_min_gain_0.5": (X40, Y40, GBTConfig(n_rounds=60, gamma_min_gain=0.5)),
    "min_child_weight_0": (X40, Y40, GBTConfig(n_rounds=60, min_child_weight=0.0)),
    "min_child_weight_3": (X40, Y40, GBTConfig(n_rounds=60, min_child_weight=3.0)),
    "learning_rate_1": (X40, Y40, GBTConfig(n_rounds=30, learning_rate=1.0)),
    "one_feature_1d": (X40[:, 0], Y40, GBTConfig(n_rounds=60)),
    "single_row": (X40[:1], Y40[:1], GBTConfig(n_rounds=5)),
}

GBT_CASE_GOLDEN = {
    "bench_shape": ("7f4d5b291f7f52421d9fd145dea30fde67fb46940132e77727460ead3e6af28d", 16872),
    "gamma_min_gain_0.5": ("7bbe9102791700d192a28d8bb2fb55b010f4255b989a58c613247d6807f1ca10", 632),
    "lambda_l2_0": ("050f196b57798b3acd5223ee854e69da73da5a03329ada9b8aef4ce9c234de00", 3062),
    "learning_rate_1": ("1783ff78c8832eb46dc499f8bc12d60d53504aaa71f00fdb53f99e019af218cc", 1024),
    "max_depth_0": ("4727252253d6d35696b295987d518079aa4e3dfadf46e062a2c1514c85f06069", 20),
    "max_depth_2": ("5db6280a0bac3d15aca6d083ab9e5a4bc7f859ed26f04d57d2ba0c2d8b43fc99", 398),
    "min_child_weight_0": ("2b2089477df5347a353522829db4a1bef032f9ca27486caa8be550821ca49af6", 1664),
    "min_child_weight_3": ("5c45516377ac4cc71c2b75c64377f079d2e6d84847ee313911cb4079bd6ae343", 992),
    "one_feature_1d": ("dd36a7a6862e9f48bba62a5ccb5bd35b60285dbd5f88b24e2c7fd0fb33cc32f1", 1896),
    "single_row": ("5bcc6429dcd9fbe16e9188152632b71dbc66c10b1f211f9a4ecda799d2392c9d", 5),
    "ties_and_duplicates": ("207d05fc2b239b88590191d90944b6d03ce0756d0b38453d1035a055c48905ad", 2358),
}

# sha256 of the float.hex of staged_predictions on the training rows after
# every round 0..n_rounds, row-major
GBT_STAGED_GOLDEN = {
    "bench_shape": "49301038a3de14b069990e8fad70c699336a854236b35f904f85a40937d216c7",
    "ties_and_duplicates": "cc2fbf40f1e1be214a4c544264ac1c5dc4b76a9707f0b1895ce3fa25bee7ea6c",
}


@pytest.mark.parametrize("name", sorted(FOREST_CASES))
def test_forest_fit_matches_golden(name):
    X, y, config, seed = FOREST_CASES[name]
    model = fit_forest(X, y, config, seed)
    assert (digest(model), node_count(model)) == FOREST_GOLDEN[name]


def test_gbt_fit_matches_golden():
    model = fit_gbt(X40, Y40, GBTConfig(n_rounds=40))
    assert (digest(model), node_count(model)) == GBT_GOLDEN


@pytest.mark.parametrize("name", sorted(GBT_CASES))
def test_gbt_case_matches_golden(name):
    X, y, config = GBT_CASES[name]
    model = fit_gbt(X, y, config)
    assert (digest(model), node_count(model)) == GBT_CASE_GOLDEN[name]


@pytest.mark.parametrize("name", sorted(GBT_STAGED_GOLDEN))
def test_gbt_staged_predictions_match_golden(name):
    X, y, config = GBT_CASES[name]
    stages = staged_predictions(fit_gbt(X, y, config), X, list(range(config.n_rounds + 1)))
    assert stages.shape == (config.n_rounds + 1, len(y))
    blob = " ".join(float(v).hex() for v in stages.ravel())
    assert hashlib.sha256(blob.encode("ascii")).hexdigest() == GBT_STAGED_GOLDEN[name]
