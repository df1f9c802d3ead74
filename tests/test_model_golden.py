"""Golden pins for seeded GPR and BNN fits.

Each case stores the sha256 of the ``float.hex`` of every number a seeded
fit returns: the three GPR kernel parameters, every BNN posterior array
plus the loss history, and BNN predictive means and stds. A change in the
last bit of any of them changes the hash. These pins were recorded on the
per-array code, before per-fit constants were hoisted out of the inner
loops, and are the correctness gate for any faster implementation: never
re-record them to make a change pass.

Unlike the tree pins, these fits go through BLAS and LAPACK (matrix
products, Cholesky), so the bits belong to one numpy/scipy build (numpy
2.4, scipy 1.17, OpenBLAS) as well as to the code.
"""

import hashlib

import numpy as np
import pytest
from scipy.linalg import cholesky

from albench import gpr
from albench.bnn import BNNConfig, predict_bnn, train_bnn
from albench.gpr import fit_gpr


def digest(values) -> str:
    blob = "\n".join(float(v).hex() for v in values)
    return hashlib.sha256(blob.encode("ascii")).hexdigest()


def standardized_pool(n, d, seed):
    """Integer-valued features z-scored per column, as the engine feeds GPR."""
    rng = np.random.default_rng(seed)
    X = rng.integers(-500, 500, size=(n, d)) / 7.0
    y = (X[:, 0] - 0.5 * X[:, -1]) ** 2 / 50.0 + rng.integers(-40, 40, size=n) / 3.0
    return (X - X.mean(axis=0)) / X.std(axis=0), y


def offset_pool(seed):
    """Points far from the origin: the pairwise-distance round-off makes
    the kernel matrix indefinite at some hyperparameters, so Cholesky needs
    the jitter ladder."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 30))
    d = int(rng.integers(1, 3))
    X = 10.0 ** rng.uniform(4, 8) + rng.normal(size=(n, d)) * 10.0 ** rng.uniform(0, 4)
    y = rng.normal(size=n) * 10.0 ** rng.uniform(-2, 4)
    return X, y


XS, YS = standardized_pool(100, 5, 1)
X1, Y1 = standardized_pool(30, 1, 2)

GPR_CASES = {
    "bench_shape": (XS, YS, 1, 4),
    "one_feature": (X1, Y1, 2, 4),
    "no_restarts": (XS[:20], YS[:20], 3, 0),
    "single_point": (XS[:1], YS[:1], 4, 2),
    "jitter_1e-8": (*offset_pool(1389), 389, 4),
    "jitter_1e-6_noise_at_bound": (*offset_pool(1023), 23, 4),
    "scale_and_noise_at_bounds": (*offset_pool(1305), 305, 4),
}

GPR_GOLDEN = {
    "bench_shape": "de821214f7d1b4a992f2ecde053aca115de295304e1bfd2508342b621354bed2",
    "jitter_1e-6_noise_at_bound": "70d6811ee0b807b9330d61455c96e870419eeefc166d42996608b47a81b1f1db",
    "jitter_1e-8": "08bd92fa1f64cc5fdaa7eac1d58d0f1d0f45dac7706f2b5ae83ac482421ce4d6",
    "no_restarts": "51deb14fa82621d4ec0c770fe096f5d53eaa687b93cb8e863f5956f4c6f3ba24",
    "one_feature": "9d3b0984f993d6d63b4bb6bef4e043c5802d07d5b8af95ba302c0cfad7ec07d1",
    "scale_and_noise_at_bounds": "ed8fba81f9620c6dddd676b04351df86371cece1cc279c62e3b9c1d3228dbc41",
    "single_point": "d672ed1ca4f01d34024658f2ad4d57ac94f2e56c3ba9827a8dca81ba69966b53",
}


def gpr_values(params):
    return [params.scale_c, params.length_l, params.noise_n]


@pytest.mark.parametrize("name", sorted(GPR_CASES))
def test_gpr_fit_matches_golden(name):
    X, y, seed, restarts = GPR_CASES[name]
    assert digest(gpr_values(fit_gpr(X, y, seed, n_restarts=restarts))) == GPR_GOLDEN[name]


def test_jitter_cases_climb_the_ladder(monkeypatch):
    """The jitter cases really fail a plain Cholesky and recover on a rung."""
    failures = []

    def counting_cholesky(a, *args, **kwargs):
        try:
            return cholesky(a, *args, **kwargs)
        except np.linalg.LinAlgError:
            failures.append(1)
            raise

    monkeypatch.setattr(gpr, "cholesky", counting_cholesky)
    for name in ("jitter_1e-8", "jitter_1e-6_noise_at_bound"):
        X, y, seed, restarts = GPR_CASES[name]
        failures.clear()
        fit_gpr(X, y, seed, n_restarts=restarts)
        assert failures, name


@pytest.mark.parametrize(
    "name, field, bound",
    [
        ("scale_and_noise_at_bounds", "scale_c", gpr.SCALE_BOUNDS[1]),
        ("jitter_1e-6_noise_at_bound", "noise_n", gpr.NOISE_BOUNDS[0]),
    ],
)
def test_bound_cases_end_on_a_bound(name, field, bound):
    X, y, seed, restarts = GPR_CASES[name]
    params = fit_gpr(X, y, seed, n_restarts=restarts)
    assert getattr(params, field) == pytest.approx(bound, rel=1e-12)


def bnn_pool(n, d, seed):
    rng = np.random.default_rng(seed)
    X = rng.integers(-300, 300, size=(n, d)) / 100.0
    y = np.sin(X[:, 0]) + X[:, -1] ** 2 / 4.0 + rng.integers(-20, 20, size=n) / 100.0
    return X, y


XB, YB = bnn_pool(50, 3, 5)

BNN_CASES = {
    "small": (XB[:20], YB[:20], BNNConfig(hidden_layers=2, width=8, epochs=300), 3),
    "one_hidden_1d": (XB[:12, :1], YB[:12], BNNConfig(hidden_layers=1, width=5, epochs=200), 4),
    "default_shape": (XB, YB, BNNConfig(epochs=40), 1),
}

BNN_GOLDEN = {
    "default_shape": (
        "d8e870bd1f68700c4cf32bac487ef115b053787122f39efef4d6a8d055880da0",
        "f35590510d312215ee830c01a8a155ea18bc15cf607baae4b8f155f23e870ea1",
    ),
    "one_hidden_1d": (
        "d9a8e9b13578cdc0da2717438735ab6fb995dd52d428b841b72198a5432c5556",
        "8206c3bad0c3337a531df433356ae24c1257c451bdcce60eb120e3e1b7536963",
    ),
    "small": (
        "aec47d5c1cb5ab987842ccb2d70015c87cdef854fe1670ecbc004f788dde9955",
        "e2c576fc3d69418625b48802ac506ce6b8cec51bedd360e960466821c8bc8606",
    ),
}


def network_values(network):
    values = []
    for layer in network.layers:
        for arr in (layer.mu_w, layer.log_sigma_w, layer.mu_b, layer.log_sigma_b):
            values.extend(arr.ravel().tolist())
    return values + list(network.loss_history) + [network.final_loss]


def prediction_values(mean, std):
    return mean.tolist() + std.tolist()


@pytest.mark.parametrize("name", sorted(BNN_CASES))
def test_bnn_fit_and_predictions_match_golden(name):
    X, y, config, seed = BNN_CASES[name]
    network = train_bnn(X, y, config, seed)
    queries = np.vstack([X[:7], X[:7] * 1.5 - 0.25])
    mean, std = predict_bnn(network, queries, 60, np.random.default_rng(seed + 100))
    got = (digest(network_values(network)), digest(prediction_values(mean, std)))
    assert got == BNN_GOLDEN[name]
