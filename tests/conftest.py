import json

import numpy as np
import pytest

from albench import bnn
from albench.types import Candidate, Dataset, Goal


def make_pool(targets, features=None, goal=Goal.MAXIMIZE, name="pool", context=""):
    """Tiny pool from a target list; features default to 1-D ramp."""
    n = len(targets)
    if features is None:
        features = [(float(i),) for i in range(n)]
    candidates = [
        Candidate(id=i, features=tuple(float(v) for v in f), target=float(t))
        for i, (f, t) in enumerate(zip(features, targets))
    ]
    n_features = len(candidates[0].features)
    return Dataset(
        name=name,
        candidates=candidates,
        feature_names=[f"x{j + 1}" for j in range(n_features)],
        target_name="y",
        goal=goal,
        context=context,
    )


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


def elbo_loss_and_grads(network: bnn.BNNetwork, X, y, noise: bnn.NoiseDraw):
    """Loss plus the hand-derived gradients that training steps on.

    Returns (loss, grads) where grads mirrors the layer list as tuples
    (d_mu_w, d_log_sigma_w, d_mu_b, d_log_sigma_b).
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float)
    eps = bnn._flat_noise(noise)
    grads = np.empty_like(network.params)
    sigma = np.exp(network.halves()[1])
    loss = bnn._loss_and_grads(network, X, y, sigma, eps, np.empty_like(eps), grads)
    half = eps.size
    d_mu, d_log_sigma = network.split(grads[:half]), network.split(grads[half:])
    return loss, [(mw, sw, mb, sb) for (mw, mb), (sw, sb) in zip(d_mu, d_log_sigma)]


@pytest.fixture
def ramp_pool():
    return make_pool([1.0, 5.0, 3.0, 2.0, 4.0])


@pytest.fixture
def rng():
    return np.random.default_rng(0)
