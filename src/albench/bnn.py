"""Mean-field variational Bayesian neural network for regression.

Every linear layer keeps a factorized Gaussian posterior over weights and
biases, parameterized as (mu, log_sigma) and sampled by reparameterization
W = mu + exp(log_sigma) * eps. The training loss is

    0.5 * mean_i (y_i - yhat_i)^2  +  sum over parameters of
    log(1/sigma) + (sigma^2 + mu^2 - 1) / 2

with one weight draw per step shared across the batch (observation noise
fixed at 1, so the likelihood term is half the MSE). Gradients are
computed by hand, full batch, and driven by Adam. Predictive mean/std come
from Monte-Carlo forward passes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, FitError, ShapeError

INIT_MU_HALF_RANGE = 0.2
INIT_LOG_SIGMA = -5.0
OBSERVATION_SIGMA = 1.0  # fixed; the MSE term assumes unit observation noise


@dataclass
class BayesianLinearLayer:
    """Posterior means and log standard deviations for one affine map."""

    mu_w: np.ndarray  # (out, in)
    log_sigma_w: np.ndarray  # (out, in)
    mu_b: np.ndarray  # (out,)
    log_sigma_b: np.ndarray  # (out,)

    @classmethod
    def initialize(cls, n_in: int, n_out: int, rng: np.random.Generator) -> "BayesianLinearLayer":
        return cls(
            mu_w=rng.uniform(-INIT_MU_HALF_RANGE, INIT_MU_HALF_RANGE, size=(n_out, n_in)),
            log_sigma_w=np.full((n_out, n_in), INIT_LOG_SIGMA),
            mu_b=rng.uniform(-INIT_MU_HALF_RANGE, INIT_MU_HALF_RANGE, size=n_out),
            log_sigma_b=np.full(n_out, INIT_LOG_SIGMA),
        )


@dataclass(frozen=True)
class BNNConfig:
    hidden_layers: int = 5
    width: int = 64
    epochs: int = 1000
    learning_rate: float = 1e-3
    mc_samples: int = 1000
    seed: int = 0

    def __post_init__(self):
        if min(self.hidden_layers, self.width, self.epochs, self.mc_samples) < 1:
            raise ConfigError("hidden_layers, width, epochs, mc_samples must all be >= 1")
        if self.learning_rate <= 0:
            raise ConfigError(f"learning_rate must be positive, got {self.learning_rate}")


@dataclass
class BNNetwork:
    """Hidden ReLU layers plus a linear one-output head, all Bayesian.

    Every posterior parameter lives in one flat vector, `params`: all mu
    values, then all log_sigma values, each half laid out layer by layer,
    weights (row-major) before bias, the order `draw_noise` draws in. The
    layers' arrays are views into it, so change them in place
    (``layer.mu_w[...] = ...``), never by rebinding the attribute.
    """

    layers: list[BayesianLinearLayer]
    final_loss: float = math.nan
    loss_history: list[float] = field(default_factory=list)
    params: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for l in self.layers:
            if l.log_sigma_w.shape != l.mu_w.shape or l.log_sigma_b.shape != l.mu_b.shape:
                raise ShapeError("log_sigma shape does not match mu shape")
        mus = [a for l in self.layers for a in (l.mu_w, l.mu_b)]
        log_sigmas = [a for l in self.layers for a in (l.log_sigma_w, l.log_sigma_b)]
        self.params = np.concatenate([np.ravel(a) for a in mus + log_sigmas], dtype=float)
        mu, log_sigma = self.halves()
        for l, (mu_w, mu_b), (ls_w, ls_b) in zip(self.layers, self.split(mu), self.split(log_sigma)):
            l.mu_w, l.mu_b, l.log_sigma_w, l.log_sigma_b = mu_w, mu_b, ls_w, ls_b

    @property
    def n_inputs(self) -> int:
        return self.layers[0].mu_w.shape[1]

    def halves(self) -> tuple[np.ndarray, np.ndarray]:
        """Views of every mu and every log_sigma."""
        half = self.params.size // 2
        return self.params[:half], self.params[half:]

    def split(self, flat: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
        """Per-layer (weight, bias) views into a vector laid out like one half."""
        views, start = [], 0
        for l in self.layers:
            n_out, n_in = l.mu_w.shape
            stop = start + n_out * n_in
            views.append((flat[start:stop].reshape(n_out, n_in), flat[stop : stop + n_out]))
            start = stop + n_out
        return views


def init_network(n_inputs: int, config: BNNConfig, rng: np.random.Generator) -> BNNetwork:
    dims = [n_inputs] + [config.width] * config.hidden_layers + [1]
    layers = [
        BayesianLinearLayer.initialize(dims[i], dims[i + 1], rng) for i in range(len(dims) - 1)
    ]
    return BNNetwork(layers=layers)


NoiseDraw = list[tuple[np.ndarray, np.ndarray]]  # per layer: (eps_w, eps_b)


def draw_noise(network: BNNetwork, rng: np.random.Generator) -> NoiseDraw:
    return [
        (rng.standard_normal(l.mu_w.shape), rng.standard_normal(l.mu_b.shape))
        for l in network.layers
    ]


def _flat_noise(noise: NoiseDraw) -> np.ndarray:
    """A NoiseDraw laid out like one half of `BNNetwork.params`."""
    return np.concatenate([np.ravel(e) for pair in noise for e in pair])


def kl_layer(layer: BayesianLinearLayer) -> float:
    """Closed-form KL to the standard-normal prior, summed over parameters.

    Per parameter: log(1/sigma) + (sigma^2 + mu^2 - 1) / 2. Zero exactly
    when mu = 0 and sigma = 1, positive otherwise.
    """
    total = 0.0
    for mu, log_sigma in ((layer.mu_w, layer.log_sigma_w), (layer.mu_b, layer.log_sigma_b)):
        sigma_sq = np.exp(2.0 * log_sigma)
        total += float(np.sum(-log_sigma + 0.5 * (sigma_sq + mu * mu - 1.0)))
    return total


def _sample(network: BNNetwork, sigma: np.ndarray, eps: np.ndarray, out: np.ndarray):
    """mu + sigma * eps into `out`, returned as per-layer (W, b) views."""
    np.multiply(sigma, eps, out=out)
    out += network.halves()[0]
    return network.split(out)


def _forward(X: np.ndarray, weights):
    """Forward pass through per-layer (W, b); returns (yhat, caches), where
    caches[i] is (input of layer i, its pre-activation)."""
    A = X
    caches = []
    last = len(weights) - 1
    for i, (W, b) in enumerate(weights):
        Z = A @ W.T + b
        caches.append((A, Z))
        A = Z if i == last else np.maximum(Z, 0.0)
    return A[:, 0], caches


def _forward_batch(network: BNNetwork, X: np.ndarray, noise: NoiseDraw):
    eps = _flat_noise(noise)
    sigma = np.exp(network.halves()[1])
    return _forward(X, _sample(network, sigma, eps, np.empty_like(eps)))[0]


def sample_forward(network: BNNetwork, x, noise: NoiseDraw) -> float:
    """One sampled forward pass for a single input vector."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.shape[0] != network.n_inputs:
        raise ShapeError(f"input must be a vector of length {network.n_inputs}")
    for layer, (eps_w, eps_b) in zip(network.layers, noise):
        if eps_w.shape != layer.mu_w.shape or eps_b.shape != layer.mu_b.shape:
            raise ShapeError("noise shape does not match parameter shape")
    return float(_forward_batch(network, x[None, :], noise)[0])


def elbo_loss(network: BNNetwork, X, y, noise: NoiseDraw) -> float:
    """Negative ELBO: half mean squared error plus the total KL term."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float)
    yhat = _forward_batch(network, X, noise)
    mse = float(np.mean((y - yhat) ** 2))
    return 0.5 * mse + sum(kl_layer(l) for l in network.layers)


def _loss_and_grads(network: BNNetwork, X, y, sigma, eps, work, grads) -> float:
    """Negative ELBO at one noise draw; its gradient goes into `grads`.

    sigma = exp(log_sigma) and eps are laid out like one half of
    `network.params`, `grads` like all of it; `work` is scratch the size of
    one half.
    """
    n = X.shape[0]
    weights = _sample(network, sigma, eps, work)
    yhat, caches = _forward(X, weights)
    loss = 0.5 * float(np.mean((y - yhat) ** 2)) + sum(kl_layer(l) for l in network.layers)

    # gradients w.r.t. the sampled weights, written over them layer by
    # layer from the head down (a layer's W is read before it is replaced)
    delta = ((yhat - y) / n)[:, None]  # d loss / d output, (n, 1)
    for i in reversed(range(len(weights))):
        W, b = weights[i]
        A_prev, _ = caches[i]
        dW = delta.T @ A_prev
        db = delta.sum(axis=0)
        if i > 0:
            _, Z_prev = caches[i - 1]
            delta = (delta @ W) * (Z_prev > 0.0)
        W[...] = dW
        b[...] = db
    mu, _ = network.halves()
    half = mu.size
    np.add(work, mu, out=grads[:half])  # d mu: data term plus prior pull
    d_log_sigma = grads[half:]
    np.multiply(work, eps, out=d_log_sigma)
    d_log_sigma *= sigma
    d_log_sigma += sigma**2 - 1.0
    return loss


class _Adam:
    """Adam over one flat parameter vector, updated in place."""

    def __init__(self, size, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        self._step = np.empty(size)
        self._scale = np.empty(size)
        self.t = 0

    def step(self, params: np.ndarray, grads: np.ndarray) -> None:
        self.t += 1
        correct1 = 1.0 - self.beta1**self.t
        correct2 = 1.0 - self.beta2**self.t
        m, v, step, scale = self.m, self.v, self._step, self._scale
        # m = beta1 m + (1 - beta1) g;  v = beta2 v + ((1 - beta2) g) g
        m *= self.beta1
        np.multiply(grads, 1.0 - self.beta1, out=step)
        m += step
        v *= self.beta2
        np.multiply(grads, 1.0 - self.beta2, out=step)
        step *= grads
        v += step
        # params -= lr (m / correct1) / (sqrt(v / correct2) + eps)
        np.divide(m, correct1, out=step)
        step *= self.lr
        np.divide(v, correct2, out=scale)
        np.sqrt(scale, out=scale)
        scale += self.eps
        step /= scale
        params -= step


def train_bnn(X, y, config: BNNConfig) -> BNNetwork:
    """Full-batch Adam on the negative ELBO, fresh noise draw per step.

    Initialization and the per-step noise come from two independent
    substreams of config.seed, so training is exactly repeatable. Each
    step's noise is one fill of a buffer laid out like `draw_noise`'s
    draws, so it is the same stream.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float)
    if X.shape[0] < 1 or X.shape[0] != y.shape[0]:
        raise FitError(f"bad training set: |X|={X.shape[0]}, |y|={y.shape[0]}")
    init_ss, noise_ss = np.random.SeedSequence(config.seed).spawn(2)
    network = init_network(X.shape[1], config, np.random.default_rng(init_ss))
    noise_rng = np.random.default_rng(noise_ss)

    params = network.params
    _, log_sigma = network.halves()
    adam = _Adam(params.size, config.learning_rate)
    eps, sigma, work = (np.empty(log_sigma.size) for _ in range(3))
    grads = np.empty(params.size)
    history = []
    for epoch in range(config.epochs):
        noise_rng.standard_normal(out=eps)
        np.exp(log_sigma, out=sigma)
        loss = _loss_and_grads(network, X, y, sigma, eps, work, grads)
        if not math.isfinite(loss):
            raise FitError(f"training aborted: non-finite loss {loss} at epoch {epoch}")
        adam.step(params, grads)
        history.append(loss)
    network.final_loss = history[-1] if history else math.nan
    network.loss_history = history
    return network


def predict_bnn(
    network: BNNetwork, X_query, mc_samples: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Empirical mean and population std over MC sampled forward passes,
    each of shape (n,).

    Each pass draws its noise in `draw_noise` order, so the stream is the
    same as drawing a NoiseDraw per pass.
    """
    if mc_samples < 2:
        raise ConfigError(f"mc_samples must be >= 2, got {mc_samples}")
    X_query = np.atleast_2d(np.asarray(X_query, dtype=float))
    samples = np.empty((mc_samples, X_query.shape[0]))
    sigma = np.exp(network.halves()[1])
    eps, work = np.empty(sigma.size), np.empty(sigma.size)
    for s in range(mc_samples):
        rng.standard_normal(out=eps)
        samples[s] = _forward(X_query, _sample(network, sigma, eps, work))[0]
    return samples.mean(axis=0), samples.std(axis=0)
