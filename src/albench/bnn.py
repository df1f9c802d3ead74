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
from concurrent.futures import ThreadPoolExecutor
from contextlib import closing
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, FitError, ShapeError
from .types import query_matrix, training_set

_NOISE_BLOCK = 4  # rows a helper thread draws ahead of the caller
INIT_MU_HALF_RANGE = 0.2
INIT_LOG_SIGMA = -5.0


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

    def __post_init__(self):
        if min(self.hidden_layers, self.width, self.epochs) < 1 or self.mc_samples < 2:
            raise ConfigError("hidden_layers, width and epochs must be >= 1, and mc_samples >= 2")
        if self.learning_rate <= 0:
            raise ConfigError(f"learning_rate must be positive, got {self.learning_rate}")


@dataclass
class BNNetwork:
    """Hidden ReLU layers plus a linear one-output head, all Bayesian.

    Every posterior parameter lives in one flat vector, `params`: all mu
    values, then all log_sigma values, each half laid out layer by layer,
    weights (row-major) before bias. Training and prediction draw their
    noise in this layout, one standard normal per parameter. The layers'
    arrays are views into it, so change them in place
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


class _Workspace:
    """Every array that the passes of one `predict_bnn` call touch,
    allocated once for `n_rows` input rows.

    `flat` holds one sampled weight vector laid out like one half of
    `network.params`, and `weights` its per-layer (W, b) views. Layer i's
    pre-activation is `Z[i]` and, for a hidden layer, its ReLU output
    `A[i]`. A forward result is a view into `Z`, valid until the next pass.
    """

    def __init__(self, network: BNNetwork, n_rows: int):
        self.mu, self.log_sigma = network.halves()
        self.sigma = np.exp(self.log_sigma)
        self.flat = np.empty(self.mu.size)
        self.weights = network.split(self.flat)
        widths = [W.shape[0] for W, _ in self.weights]
        self.Z = [np.empty((n_rows, w)) for w in widths]
        self.A = [np.empty((n_rows, w)) for w in widths[:-1]]

    def forward(self, X: np.ndarray, eps: np.ndarray) -> np.ndarray:
        """The output at the weights mu + sigma * eps, shape (n_rows,)."""
        np.multiply(self.sigma, eps, out=self.flat)
        self.flat += self.mu
        A, last = X, len(self.weights) - 1
        for i, (W, b) in enumerate(self.weights):
            Z = self.Z[i]
            np.matmul(A, W.T, out=Z)
            Z += b
            if i < last:
                A = np.maximum(Z, 0.0, out=self.A[i])
        return self.Z[last][:, 0]


class _TrainingWorkspace(_Workspace):
    """A `_Workspace` plus what the epochs of one `train_bnn` call touch:
    the loss gradient `delta[i]` at layer i's pre-activation, each hidden
    layer's ReLU mask `Z[i] > 0`, and two half-length scratch vectors.
    `loss_and_grads` writes the gradient over the sampled weights."""

    def __init__(self, network: BNNetwork, n_rows: int):
        super().__init__(network, n_rows)
        self.scratch = np.empty(self.mu.size), np.empty(self.mu.size)
        self.kl_terms = network.split(self.scratch[1])
        self.delta = [np.empty_like(Z) for Z in self.Z]
        self.mask = [np.empty(A.shape, dtype=bool) for A in self.A]

    def kl(self) -> float:
        """`sum(kl_layer(l) for l in network.layers)`, the same bits, in one
        pass over the flat halves: kl_layer's operations in its order, and
        its sums per weight and bias array, added up as it and `sum` do."""
        work, terms = self.scratch
        np.multiply(self.log_sigma, 2.0, out=work)
        np.exp(work, out=work)
        np.multiply(self.mu, self.mu, out=terms)
        work += terms
        work -= 1.0
        work *= 0.5
        np.negative(self.log_sigma, out=terms)
        terms += work
        total = 0.0
        for w, b in self.kl_terms:
            total += (0.0 + float(w.sum())) + float(b.sum())
        return total

    def loss_and_grads(self, X: np.ndarray, y: np.ndarray, eps: np.ndarray, grads: np.ndarray) -> float:
        """Negative ELBO at one noise draw `eps`, laid out like one half of
        `network.params`; its gradient goes into `grads`, laid out like all
        of it."""
        n = X.shape[0]
        np.exp(self.log_sigma, out=self.sigma)
        yhat = self.forward(X, eps)
        residual = self.delta[-1][:, 0]
        np.subtract(yhat, y, out=residual)
        loss = 0.5 * float(np.mean(np.square(residual))) + self.kl()
        residual /= n  # d loss / d output

        # gradients w.r.t. the sampled weights, written over them layer by
        # layer from the head down (a layer's W is read before it is replaced)
        for i in reversed(range(len(self.weights))):
            W, b = self.weights[i]
            delta = self.delta[i]
            if i > 0:
                np.matmul(delta, W, out=self.delta[i - 1])
                np.greater(self.Z[i - 1], 0.0, out=self.mask[i - 1])
                self.delta[i - 1] *= self.mask[i - 1]
            np.matmul(delta.T, self.A[i - 1] if i > 0 else X, out=W)
            delta.sum(axis=0, out=b)
        half = self.mu.size
        np.add(self.flat, self.mu, out=grads[:half])  # d mu: data term plus prior pull
        d_log_sigma = grads[half:]
        np.multiply(self.flat, eps, out=d_log_sigma)
        d_log_sigma *= self.sigma
        square = self.scratch[0]
        np.multiply(self.sigma, self.sigma, out=square)
        square -= 1.0
        d_log_sigma += square
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


def _normal_rows(rng: np.random.Generator, size: int, count: int):
    """Yield `count` rows of `size` standard normals from `rng`, the same
    values as filling `count` such rows one after another.

    One helper thread fills the next block of rows while the caller uses
    the current one: a `(k, size)` fill consumes the stream exactly as k
    row fills do, and the helper never draws past `count`. A row stays
    valid until the next one is asked for. Close the generator (or run it
    to the end) to join the helper. The helper calls no albench function,
    so a tracer that wraps them sees only the caller's thread.
    """
    blocks = np.empty((2, _NOISE_BLOCK, size))
    starts = range(0, count, _NOISE_BLOCK)

    def fill(k: int) -> np.ndarray:
        block = blocks[k % 2, : min(_NOISE_BLOCK, count - starts[k])]
        rng.standard_normal(out=block)
        return block

    with ThreadPoolExecutor(max_workers=1) as helper:
        pending = helper.submit(fill, 0) if starts else None
        for k in range(len(starts)):
            block = pending.result()
            if k + 1 < len(starts):
                pending = helper.submit(fill, k + 1)
            yield from block


def train_bnn(X, y, config: BNNConfig, seed: int) -> BNNetwork:
    """Full-batch Adam on the negative ELBO, fresh noise draw per step.

    Initialization and the per-step noise come from two independent
    substreams of `seed`, so training is exactly repeatable. Each
    step's noise is one row of standard normals laid out like one half of
    `BNNetwork.params`, one per parameter. A helper thread draws the rows
    a few steps ahead (`_normal_rows`), with the same values as drawing
    them step by step; it is joined before this returns or raises.
    """
    X, y = training_set(X, y)
    init_ss, noise_ss = np.random.SeedSequence(seed).spawn(2)
    network = init_network(X.shape[1], config, np.random.default_rng(init_ss))
    noise_rng = np.random.default_rng(noise_ss)

    params = network.params
    adam = _Adam(params.size, config.learning_rate)
    work = _TrainingWorkspace(network, X.shape[0])
    grads = np.empty(params.size)
    history = []
    with closing(_normal_rows(noise_rng, work.flat.size, config.epochs)) as noise:
        for epoch, eps in enumerate(noise):
            loss = work.loss_and_grads(X, y, eps, grads)
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

    Each pass draws one standard normal per parameter, laid out like one
    half of `BNNetwork.params`. A helper thread draws them a few passes
    ahead (`_normal_rows`), so `rng` gives and ends in the same values and
    state as drawing pass by pass; it is joined before this returns.
    """
    if mc_samples < 2:
        raise ConfigError(f"mc_samples must be >= 2, got {mc_samples}")
    X_query = query_matrix(X_query, network.layers[0].mu_w.shape[1])
    samples = np.empty((mc_samples, X_query.shape[0]))
    work = _Workspace(network, X_query.shape[0])
    with closing(_normal_rows(rng, work.flat.size, mc_samples)) as noise:
        for s, eps in enumerate(noise):
            samples[s] = work.forward(X_query, eps)
    return samples.mean(axis=0), samples.std(axis=0)
