"""Variational network: KL closed form, reparameterized forward, gradients."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from albench.bnn import (
    BayesianLinearLayer,
    BNNConfig,
    BNNetwork,
    draw_noise,
    elbo_loss,
    elbo_loss_and_grads,
    init_network,
    kl_layer,
    predict_bnn,
    sample_forward,
    train_bnn,
    zero_noise,
)
from albench.errors import ConfigError, FitError, ShapeError


def single_param_layer(mu, sigma):
    return BayesianLinearLayer(
        mu_w=np.array([[float(mu)]]),
        log_sigma_w=np.array([[math.log(sigma)]]),
        mu_b=np.zeros(0),
        log_sigma_b=np.zeros(0),
    )


def mc_kl_estimate(mu, sigma, n=10**6, seed=0):
    """Monte-Carlo E_q[log q - log p] for one Gaussian parameter."""
    gen = np.random.default_rng(seed)
    w = mu + sigma * gen.standard_normal(n)
    log_q = -math.log(sigma) - 0.5 * math.log(2 * math.pi) - (w - mu) ** 2 / (2 * sigma**2)
    log_p = -0.5 * math.log(2 * math.pi) - w**2 / 2
    diff = log_q - log_p
    return float(diff.mean()), float(diff.std(ddof=1) / math.sqrt(n))


class TestKlLayer:
    def test_posterior_equals_prior(self):
        assert kl_layer(single_param_layer(0.0, 1.0)) == 0.0

    def test_unit_shift(self):
        assert kl_layer(single_param_layer(1.0, 1.0)) == pytest.approx(0.5, abs=1e-12)

    def test_matches_monte_carlo_oracle(self):
        for mu, sigma in ((1.0, 1.0), (0.0, math.exp(-5)), (0.2, 0.5)):
            closed = kl_layer(single_param_layer(mu, sigma))
            est, se = mc_kl_estimate(mu, sigma)
            assert abs(closed - est) <= 3 * se

    def test_nonnegative_and_zero_only_at_prior(self, rng):
        for _ in range(50):
            mu = rng.normal()
            sigma = math.exp(rng.normal() * 0.7)
            value = kl_layer(single_param_layer(mu, sigma))
            assert value >= 0.0
            if abs(mu) > 1e-6 or abs(sigma - 1.0) > 1e-6:
                assert value > 0.0

    def test_sums_over_all_parameters(self):
        layer = BayesianLinearLayer(
            mu_w=np.array([[1.0, 0.0]]),
            log_sigma_w=np.zeros((1, 2)),
            mu_b=np.array([1.0]),
            log_sigma_b=np.zeros(1),
        )
        assert kl_layer(layer) == pytest.approx(1.0, abs=1e-12)


class TestSampleForward:
    def test_zero_noise_is_deterministic_mu_network(self, rng):
        net = init_network(3, BNNConfig(hidden_layers=2, width=5, seed=0), rng)
        x = rng.normal(size=3) + 0.2
        got = sample_forward(net, x, zero_noise(net))
        # independent mu-only forward pass
        a = x.copy()
        for i, layer in enumerate(net.layers):
            z = layer.mu_w @ a + layer.mu_b
            a = z if i == len(net.layers) - 1 else np.maximum(z, 0.0)
        assert got == pytest.approx(float(a[0]), abs=1e-12)

    def test_tiny_sigma_matches_mu_network(self, rng):
        net = init_network(2, BNNConfig(hidden_layers=1, width=4, seed=1), rng)
        for layer in net.layers:
            layer.log_sigma_w[:] = -40.0
            layer.log_sigma_b[:] = -40.0
        x = rng.normal(size=2)
        noisy = sample_forward(net, x, draw_noise(net, rng))
        clean = sample_forward(net, x, zero_noise(net))
        assert abs(noisy - clean) < 1e-9

    def test_hand_computed_two_layer_network(self):
        hidden = BayesianLinearLayer(
            mu_w=np.array([[1.0, -1.0], [0.5, 2.0]]),
            log_sigma_w=np.full((2, 2), -40.0),
            mu_b=np.array([0.25, -3.0]),
            log_sigma_b=np.full(2, -40.0),
        )
        head = BayesianLinearLayer(
            mu_w=np.array([[2.0, 4.0]]),
            log_sigma_w=np.full((1, 2), -40.0),
            mu_b=np.array([1.0]),
            log_sigma_b=np.full(1, -40.0),
        )
        net = BNNetwork(layers=[hidden, head])
        x = np.array([2.0, 1.0])
        # hidden pre-activations: (1*2 - 1*1 + 0.25, 0.5*2 + 2*1 - 3) = (1.25, -0.5)
        # relu -> (1.25, 0); head: 2*1.25 + 4*0 + 1 = 3.5
        assert sample_forward(net, x, zero_noise(net)) == pytest.approx(3.5, abs=1e-9)

    def test_shape_validation(self, rng):
        net = init_network(2, BNNConfig(hidden_layers=1, width=3, seed=0), rng)
        with pytest.raises(ShapeError):
            sample_forward(net, np.zeros(5), zero_noise(net))
        bad = zero_noise(net)
        bad[0] = (np.zeros((1, 1)), bad[0][1])
        with pytest.raises(ShapeError):
            sample_forward(net, np.zeros(2), bad)


class TestElboLoss:
    def _prior_network(self):
        hidden = BayesianLinearLayer(
            mu_w=np.zeros((2, 1)), log_sigma_w=np.zeros((2, 1)), mu_b=np.zeros(2), log_sigma_b=np.zeros(2)
        )
        head = BayesianLinearLayer(
            mu_w=np.zeros((1, 2)), log_sigma_w=np.zeros((1, 2)), mu_b=np.zeros(1), log_sigma_b=np.zeros(1)
        )
        return BNNetwork(layers=[hidden, head])

    def test_perfect_predictions_at_prior_give_zero(self):
        net = self._prior_network()
        X = np.array([[1.0], [2.0]])
        y = np.zeros(2)  # mu-network outputs 0 everywhere
        assert elbo_loss(net, X, y, zero_noise(net)) == 0.0

    def test_kl_only_contribution(self):
        net = self._prior_network()
        net.layers[1].mu_b[0] = 1.0  # single param at mu=1, sigma=1 -> KL 0.5
        X = np.array([[1.0], [2.0]])
        y = np.ones(2)  # output head bias 1 -> perfect predictions
        assert elbo_loss(net, X, y, zero_noise(net)) == pytest.approx(0.5, abs=1e-12)

    def test_loss_nonnegative(self, rng):
        net = init_network(2, BNNConfig(hidden_layers=2, width=4, seed=2), rng)
        for _ in range(10):
            X = rng.normal(size=(5, 2))
            y = rng.normal(size=5)
            assert elbo_loss(net, X, y, draw_noise(net, rng)) >= 0.0

    def test_gradients_match_finite_differences(self):
        gen = np.random.default_rng(7)
        net = init_network(2, BNNConfig(hidden_layers=1, width=4, seed=7), gen)
        X = gen.normal(size=(4, 2)) + 0.1  # nudged off ReLU kinks
        y = gen.normal(size=4)
        noise = draw_noise(net, gen)
        _, grads = elbo_loss_and_grads(net, X, y, noise)
        h = 1e-4
        for li, layer in enumerate(net.layers):
            for slot, name in enumerate(("mu_w", "log_sigma_w", "mu_b", "log_sigma_b")):
                arr = getattr(layer, name)
                analytic = grads[li][slot]
                it = np.nditer(arr, flags=["multi_index"])
                for _ in it:
                    ix = it.multi_index
                    orig = arr[ix]
                    arr[ix] = orig + h
                    lp = elbo_loss(net, X, y, noise)
                    arr[ix] = orig - h
                    lm = elbo_loss(net, X, y, noise)
                    arr[ix] = orig
                    fd = (lp - lm) / (2 * h)
                    rel = abs(fd - analytic[ix]) / max(abs(fd), abs(analytic[ix]), 1e-10)
                    assert rel < 1e-4, f"layer {li} {name}{ix}: fd={fd} analytic={analytic[ix]}"


class TestFlatParameters:
    """Layer arrays are views into one flat vector."""

    def test_layer_arrays_view_the_flat_vector(self, rng):
        net = init_network(3, BNNConfig(hidden_layers=2, width=4, seed=0), rng)
        mu, log_sigma = net.halves()
        for layer in net.layers:
            for arr in (layer.mu_w, layer.mu_b):
                assert np.shares_memory(arr, mu)
            for arr in (layer.log_sigma_w, layer.log_sigma_b):
                assert np.shares_memory(arr, log_sigma)
        net.layers[1].mu_b[2] = 7.0
        assert net.split(mu)[1][1][2] == 7.0

    def test_hand_built_layers_are_packed(self):
        hidden = BayesianLinearLayer(
            mu_w=np.ones((2, 1)), log_sigma_w=np.zeros((2, 1)), mu_b=np.zeros(2), log_sigma_b=np.zeros(2)
        )
        head = BayesianLinearLayer(
            mu_w=np.full((1, 2), 3.0), log_sigma_w=np.zeros((1, 2)), mu_b=np.ones(1), log_sigma_b=np.zeros(1)
        )
        net = BNNetwork(layers=[hidden, head])
        assert net.params.tolist() == [1.0, 1.0, 0.0, 0.0, 3.0, 3.0, 1.0] + [0.0] * 7

    def test_mismatched_log_sigma_shape(self):
        layer = BayesianLinearLayer(
            mu_w=np.zeros((2, 1)), log_sigma_w=np.zeros((1, 2)), mu_b=np.zeros(2), log_sigma_b=np.zeros(2)
        )
        with pytest.raises(ShapeError):
            BNNetwork(layers=[layer])



class TestTraining:
    def test_initialization_contract(self, rng):
        net = init_network(3, BNNConfig(hidden_layers=2, width=6, seed=0), rng)
        for layer in net.layers:
            assert np.all(np.abs(layer.mu_w) <= 0.2)
            assert np.all(np.abs(layer.mu_b) <= 0.2)
            assert np.all(layer.log_sigma_w == -5.0)
            assert np.all(layer.log_sigma_b == -5.0)
        dims = [(6, 3), (6, 6), (1, 6)]
        assert [l.mu_w.shape for l in net.layers] == dims

    def test_same_seed_identical_parameters(self, rng):
        X = rng.normal(size=(6, 2))
        y = rng.normal(size=6)
        cfg = BNNConfig(hidden_layers=1, width=4, epochs=50, seed=9)
        a = train_bnn(X, y, cfg)
        b = train_bnn(X, y, cfg)
        for la, lb in zip(a.layers, b.layers):
            assert np.array_equal(la.mu_w, lb.mu_w)
            assert np.array_equal(la.log_sigma_w, lb.log_sigma_w)

    def test_zero_targets_sanity_band(self, rng):
        X = np.linspace(-1, 1, 10)[:, None]
        y = np.zeros(10)
        net = train_bnn(X, y, BNNConfig(hidden_layers=2, width=8, epochs=400, seed=3))
        preds = predict_bnn(net, X, 500, np.random.default_rng(0))
        assert max(abs(p.mean) for p in preds) < 0.3

    def test_smoothed_loss_trace_mostly_decreasing(self, rng):
        X = rng.normal(size=(10, 2))
        y = rng.normal(size=10) * 0.5
        net = train_bnn(X, y, BNNConfig(hidden_layers=1, width=8, epochs=300, seed=4))
        trace = np.array(net.loss_history)
        window = 50
        smoothed = np.convolve(trace, np.ones(window) / window, mode="valid")
        decreasing = np.diff(smoothed) <= 1e-9
        assert decreasing.mean() >= 0.9

    def test_empty_training_set(self):
        with pytest.raises(FitError):
            train_bnn(np.empty((0, 2)), np.empty(0), BNNConfig(hidden_layers=1, width=2, epochs=1))

    def test_default_width_and_depth_path(self, rng):
        # the benchmark-size architecture (5 hidden layers of 64), short run
        X = rng.normal(size=(6, 3))
        y = rng.normal(size=6)
        net = train_bnn(X, y, BNNConfig(epochs=30, seed=1))
        assert [l.mu_w.shape for l in net.layers] == [
            (64, 3), (64, 64), (64, 64), (64, 64), (64, 64), (1, 64)
        ]
        preds = predict_bnn(net, X, 64, np.random.default_rng(0))
        assert len(preds) == 6
        assert all(np.isfinite(p.mean) and p.std >= 0 for p in preds)


class TestPredict:
    def test_tiny_sigma_gives_zero_std(self, rng):
        net = init_network(2, BNNConfig(hidden_layers=1, width=4, seed=5), rng)
        for layer in net.layers:
            layer.log_sigma_w[:] = -40.0
            layer.log_sigma_b[:] = -40.0
        preds = predict_bnn(net, rng.normal(size=(6, 2)), 64, np.random.default_rng(1))
        assert all(p.std < 1e-8 for p in preds)

    def test_mc_mean_converges_to_mu_output(self, rng):
        net = init_network(1, BNNConfig(hidden_layers=1, width=4, seed=6), rng)
        for layer in net.layers:
            layer.log_sigma_w[:] = -5.0
            layer.log_sigma_b[:] = -5.0
        x = np.array([[0.7]])
        clean = sample_forward(net, x[0], zero_noise(net))
        n_samples = 10**5
        (pred,) = predict_bnn(net, x, n_samples, np.random.default_rng(2))
        se = pred.std / math.sqrt(n_samples)
        # allow a floor for the (tiny) reparameterization nonlinearity bias
        assert abs(pred.mean - clean) <= 3 * se + 1e-6

    def test_matches_recomputation_from_sample_matrix(self, rng):
        net = init_network(2, BNNConfig(hidden_layers=1, width=3, seed=8), rng)
        X = rng.normal(size=(5, 2))
        seed_seq = np.random.default_rng(42)
        preds = predict_bnn(net, X, 100, seed_seq)
        # replay the identical stream to materialize the sample matrix
        replay = np.random.default_rng(42)
        samples = np.empty((100, 5))
        for s in range(100):
            noise = draw_noise(net, replay)
            samples[s] = [sample_forward(net, x, noise) for x in X]
        assert np.allclose([p.mean for p in preds], samples.mean(axis=0))
        assert np.allclose([p.std for p in preds], samples.std(axis=0))

    def test_seeded_determinism(self, rng):
        net = init_network(2, BNNConfig(hidden_layers=1, width=3, seed=8), rng)
        X = rng.normal(size=(4, 2))
        a = predict_bnn(net, X, 50, np.random.default_rng(3))
        b = predict_bnn(net, X, 50, np.random.default_rng(3))
        assert [(p.mean, p.std) for p in a] == [(q.mean, q.std) for q in b]

    def test_mc_samples_validation(self, rng):
        net = init_network(1, BNNConfig(hidden_layers=1, width=2, seed=0), rng)
        with pytest.raises(ConfigError):
            predict_bnn(net, [[0.0]], 1, rng)


# --- per-array reference ------------------------------------------------------
#
# Training and prediction as computed before the flat parameter vector: one
# noise array per layer and parameter, exp(log_sigma) recomputed where it is
# used, and Adam stepping array by array. The reference for bit-for-bit
# checks of train_bnn and predict_bnn.


def reference_forward(network, X, noise):
    A, caches = X, []
    last = len(network.layers) - 1
    for i, (layer, (eps_w, eps_b)) in enumerate(zip(network.layers, noise)):
        W = layer.mu_w + np.exp(layer.log_sigma_w) * eps_w
        b = layer.mu_b + np.exp(layer.log_sigma_b) * eps_b
        Z = A @ W.T + b
        caches.append((A, Z, W))
        A = Z if i == last else np.maximum(Z, 0.0)
    return A[:, 0], caches


def reference_loss_and_grads(network, X, y, noise):
    n = X.shape[0]
    yhat, caches = reference_forward(network, X, noise)
    loss = 0.5 * float(np.mean((y - yhat) ** 2)) + sum(kl_layer(l) for l in network.layers)
    grads = []
    delta = ((yhat - y) / n)[:, None]
    for i in reversed(range(len(network.layers))):
        layer = network.layers[i]
        eps_w, eps_b = noise[i]
        A_prev, _, W = caches[i]
        dW = delta.T @ A_prev
        db = delta.sum(axis=0)
        sigma_w = np.exp(layer.log_sigma_w)
        sigma_b = np.exp(layer.log_sigma_b)
        grads.append(
            (
                dW + layer.mu_w,
                dW * eps_w * sigma_w + (sigma_w**2 - 1.0),
                db + layer.mu_b,
                db * eps_b * sigma_b + (sigma_b**2 - 1.0),
            )
        )
        if i > 0:
            delta = (delta @ W) * (caches[i - 1][1] > 0.0)
    grads.reverse()
    return loss, grads


def reference_train(X, y, config):
    init_ss, noise_ss = np.random.SeedSequence(config.seed).spawn(2)
    network = init_network(X.shape[1], config, np.random.default_rng(init_ss))
    noise_rng = np.random.default_rng(noise_ss)
    params = [a for l in network.layers for a in (l.mu_w, l.log_sigma_w, l.mu_b, l.log_sigma_b)]
    m = [np.zeros(p.shape) for p in params]
    v = [np.zeros(p.shape) for p in params]
    beta1, beta2, lr = 0.9, 0.999, config.learning_rate
    history = []
    for t in range(1, config.epochs + 1):
        loss, layer_grads = reference_loss_and_grads(network, X, y, draw_noise(network, noise_rng))
        correct1, correct2 = 1.0 - beta1**t, 1.0 - beta2**t
        for p, g, mp, vp in zip(params, [g for layer in layer_grads for g in layer], m, v):
            mp *= beta1
            mp += (1.0 - beta1) * g
            vp *= beta2
            vp += (1.0 - beta2) * g * g
            p -= lr * (mp / correct1) / (np.sqrt(vp / correct2) + 1e-8)
        history.append(loss)
    return network, history


def reference_predict(network, X, mc_samples, rng):
    samples = np.array([reference_forward(network, X, draw_noise(network, rng))[0] for _ in range(mc_samples)])
    return samples.mean(axis=0), samples.std(axis=0)


class TestMatchesReference:
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 12),
        d=st.integers(1, 3),
        hidden_layers=st.integers(1, 3),
        width=st.integers(1, 9),
        epochs=st.integers(1, 30),
        learning_rate=st.sampled_from([1e-3, 0.05]),
    )
    def test_training_and_prediction_match_bit_for_bit(
        self, seed, n, d, hidden_layers, width, epochs, learning_rate
    ):
        gen = np.random.default_rng(seed)
        X = gen.normal(size=(n, d))
        y = gen.normal(size=n) * 2.0
        config = BNNConfig(
            hidden_layers=hidden_layers, width=width, epochs=epochs, learning_rate=learning_rate, seed=seed
        )
        net = train_bnn(X, y, config)
        ref, history = reference_train(X, y, config)
        assert net.loss_history == history
        for got, want in zip(net.layers, ref.layers):
            for name in ("mu_w", "log_sigma_w", "mu_b", "log_sigma_b"):
                assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
        Q = gen.normal(size=(4, d))
        preds = predict_bnn(net, Q, 8, np.random.default_rng(seed))
        mean, std = reference_predict(ref, Q, 8, np.random.default_rng(seed))
        assert [p.mean for p in preds] == mean.tolist()
        assert [p.std for p in preds] == std.tolist()

    def test_gradients_match_the_reference(self):
        gen = np.random.default_rng(11)
        net = init_network(3, BNNConfig(hidden_layers=2, width=5, seed=11), gen)
        # sigma near 1, where sigma**2 and exp(2 log_sigma) differ in the last bits
        _, log_sigma = net.halves()
        log_sigma[:] = gen.uniform(-1.0, 0.5, size=log_sigma.size)
        X = gen.normal(size=(7, 3))
        y = gen.normal(size=7)
        noise = draw_noise(net, gen)
        loss, grads = elbo_loss_and_grads(net, X, y, noise)
        ref_loss, ref_grads = reference_loss_and_grads(net, X, y, noise)
        assert loss == ref_loss
        for layer, ref_layer in zip(grads, ref_grads):
            assert [g.tobytes() for g in layer] == [g.tobytes() for g in ref_layer]
