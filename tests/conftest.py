"""Shared test helpers: tiny pools, replay fixture files, and reference code
that only tests need (per-layer BNN noise, CSV writing, tree serialization)."""

import csv
import json

import numpy as np
import pytest

from albench import bnn
from albench.errors import ShapeError
from albench.types import Dataset, Goal


def make_pool(targets, features=None, goal=Goal.MAXIMIZE, name="pool", context=""):
    """Tiny pool from a target list; features default to 1-D ramp."""
    n = len(targets)
    if features is None:
        features = [(float(i),) for i in range(n)]
    return Dataset(
        name=name,
        feature_matrix=features,
        targets=targets,
        feature_names=[f"x{j + 1}" for j in range(len(features[0]))],
        target_name="y",
        goal=goal,
        context=context,
    )


def save_csv(dataset: Dataset, path) -> None:
    """Write a pool out as CSV; float cells use repr so reloads round-trip."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(dataset.feature_names) + [dataset.target_name])
        for row, target in zip(dataset.feature_matrix.tolist(), dataset.targets.tolist()):
            writer.writerow([repr(v) for v in row] + [repr(target)])


def save_fixtures(records, path) -> None:
    """Write replay fixtures as JSON lines, the format `clients.load_fixtures` reads."""
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(
                json.dumps(
                    {"request_digest": rec.request_digest, "response_text": rec.response_text},
                    sort_keys=True,
                )
                + "\n"
            )


def optimum_id(dataset: Dataset) -> int:
    """Lowest id among the candidates attaining the pool's optimal value."""
    return int(np.flatnonzero(dataset.targets == dataset.optimum_value)[0])


# --- stored runs the AL protocol could not have produced -----------------------
#
# Each edit takes the step dicts of a stored run (n_initial 2, capped at 8
# steps, which it took without reaching the optimum) and its pool, and
# returns edited step dicts; its regex matches the ConfigError that
# `engine.rebuild_trajectory` raises for the result.


def _with(steps: list[dict], i: int, **fields) -> list[dict]:
    return [{**s, **fields} if j == i else s for j, s in enumerate(steps)]


def _swap_initial(steps: list[dict], pool: Dataset) -> list[dict]:
    """The two initial lines swapped, with their iterations and running bests
    made consistent again."""
    first, second = steps[1], steps[0]
    return [{**first, "iteration": 0, "running_best": first["observed_value"]}, {**second, "iteration": 1}, *steps[2:]]


def append_step(steps: list[dict], pool: Dataset) -> list[dict]:
    """One more step, on the lowest unobserved id, with the iteration, value
    and running best that id gives."""
    seen = {s["candidate_id"] for s in steps}
    cid = next(i for i in range(len(pool)) if i not in seen)
    value = float(pool.targets[cid])
    best = pool.goal.best([steps[-1]["running_best"], value])
    return [*steps, {**steps[-1], "iteration": len(steps), "candidate_id": cid, "observed_value": value,
                     "running_best": best}]


STORED_RUN_EDITS = [
    pytest.param(lambda steps, pool: _with(steps, 3, observed_value=123.0),
                 r"^iteration 3: stored observed_value 123\.0 differs", id="value-no-row-holds"),
    pytest.param(_swap_initial, r"^iteration 0: candidate_id \d+ is not the seed's initial draw \d+$",
                 id="swapped-initial-ids"),
    pytest.param(lambda steps, pool: _with(steps, 5, iteration=40),
                 r"^iteration 5: stored iteration 40 differs from the pool's 5$", id="iteration-40-at-5"),
    pytest.param(lambda steps, pool: _with(steps, 2, running_best=-1e9),
                 r"^iteration 2: stored running_best -1000000000\.0 differs", id="running-best"),
    pytest.param(append_step, r"^iteration 8: the run is past its cap of 8 steps$", id="step-past-cap"),
]


NoiseDraw = list[tuple[np.ndarray, np.ndarray]]  # per layer: (eps_w, eps_b)


def draw_noise(network: bnn.BNNetwork, rng: np.random.Generator) -> NoiseDraw:
    """Per-layer standard normals, drawn in the order training and
    prediction fill their flat noise buffers."""
    return [
        (rng.standard_normal(l.mu_w.shape), rng.standard_normal(l.mu_b.shape))
        for l in network.layers
    ]


def flat_noise(noise: NoiseDraw) -> np.ndarray:
    """A NoiseDraw laid out like one half of `BNNetwork.params`."""
    return np.concatenate([np.ravel(e) for pair in noise for e in pair])


def forward_batch(network: bnn.BNNetwork, X: np.ndarray, noise: NoiseDraw) -> np.ndarray:
    return bnn._Workspace(network, len(X)).forward(X, flat_noise(noise))


def sample_forward(network: bnn.BNNetwork, x, noise: NoiseDraw) -> float:
    """One sampled forward pass for a single input vector."""
    x = np.asarray(x, dtype=float)
    n_inputs = network.layers[0].mu_w.shape[1]
    if x.ndim != 1 or x.shape[0] != n_inputs:
        raise ShapeError(f"input must be a vector of length {n_inputs}")
    for layer, (eps_w, eps_b) in zip(network.layers, noise):
        if eps_w.shape != layer.mu_w.shape or eps_b.shape != layer.mu_b.shape:
            raise ShapeError("noise shape does not match parameter shape")
    return float(forward_batch(network, x[None, :], noise)[0])


def elbo_loss(network: bnn.BNNetwork, X, y, noise: NoiseDraw) -> float:
    """Negative ELBO: half mean squared error plus the total KL term."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float)
    mse = float(np.mean((y - forward_batch(network, X, noise)) ** 2))
    return 0.5 * mse + sum(bnn.kl_layer(l) for l in network.layers)


def elbo_loss_and_grads(network: bnn.BNNetwork, X, y, noise: NoiseDraw):
    """Loss plus the hand-derived gradients that training steps on.

    Returns (loss, grads) where grads mirrors the layer list as tuples
    (d_mu_w, d_log_sigma_w, d_mu_b, d_log_sigma_b).
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float)
    eps = flat_noise(noise)
    grads = np.empty_like(network.params)
    loss = bnn._TrainingWorkspace(network, len(X)).loss_and_grads(X, y, eps, grads)
    half = eps.size
    d_mu, d_log_sigma = network.split(grads[:half]), network.split(grads[half:])
    return loss, [(mw, sw, mb, sb) for (mw, mb), (sw, sb) in zip(d_mu, d_log_sigma)]


def tree_dict(tree, node: int = 0) -> dict:
    """A fitted `forest_gbt.Tree` as nested dicts, from `node` down."""
    if tree.feature[node] < 0:
        return {"leaf": float(tree.value[node])}
    return {
        "feature": int(tree.feature[node]),
        "threshold": float(tree.threshold[node]),
        "left": tree_dict(tree, int(tree.left[node])),
        "right": tree_dict(tree, int(tree.right[node])),
    }


def model_dict(model) -> dict:
    """A fitted forest or booster as JSON-ready dicts, every tree in full."""
    trees = [tree_dict(t) for t in model.trees]
    if hasattr(model, "base_score"):
        return {"kind": "gbt", "base_score": model.base_score, "trees": trees}
    return {"kind": "forest", "trees": trees}


@pytest.fixture
def ramp_pool():
    return make_pool([1.0, 5.0, 3.0, 2.0, 4.0])


@pytest.fixture
def rng():
    return np.random.default_rng(0)
