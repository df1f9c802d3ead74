"""Proposer implementations binding surrogates to the UCB rule.

Each AL iteration: standardize inputs against the current labeled pool,
fit the surrogate on the observations, predict mean/std over the
unlabeled pool, then pick by UCB. Model fits draw a fresh seed from the
run's model substream each iteration, so runs are repeatable end to end.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from . import bnn as bnn_mod
from . import forest_gbt
from .acquisition import random_walk_select, ucb_select
from .engine import STREAM_MODEL, STREAM_WALK, Suggestion, standardize_features, substream, unlabeled_pool_ids
from .errors import ConfigError
from .types import Dataset, ProposerKind, RunConfig


@dataclass(frozen=True)
class GPRConfig:
    standardize_targets: bool = False


@dataclass(frozen=True)
class ProposerSettings:
    """What selects a run's candidates besides its RunConfig: the model
    config of each `SURROGATES` section (none holds a seed: fits draw theirs
    from the run) and the LLM's `client` and `matcher` descriptors."""

    forest: forest_gbt.ForestConfig = forest_gbt.ForestConfig()
    gbt: forest_gbt.GBTConfig = forest_gbt.GBTConfig()
    bnn: bnn_mod.BNNConfig = bnn_mod.BNNConfig()
    gpr: GPRConfig = GPRConfig()
    matcher: str = "offline"
    offline_reports: bool = False
    client: Optional[str] = None

    def record(self, kind: ProposerKind) -> dict:
        """The JSON fields that a `kind` proposer reads; rate limits, backoff
        and credentials select nothing, so they are never here."""
        if kind is ProposerKind.LLM:
            return {"client": self.client, "matcher": self.matcher, "offline_reports": self.offline_reports}
        return asdict(getattr(self, SURROGATES[kind][0])) if kind in SURROGATES else {}


DEFAULT_SETTINGS = ProposerSettings()


class RandomWalkProposer:
    """Uniform without-replacement baseline."""

    kind = ProposerKind.RANDOM_WALK

    def __init__(self, seed: int):
        self._rng = substream(seed, STREAM_WALK)

    def propose(self, dataset: Dataset, observed_ids, observed_values) -> Suggestion:
        unlabeled = unlabeled_pool_ids(len(dataset), observed_ids)
        return Suggestion(candidate_id=random_walk_select(unlabeled, self._rng))


def _fit_predict_gpr(config: GPRConfig, Z_train, y, Z_pool, model_seed):
    from . import gpr  # loads scipy, which no other proposer needs

    shift, scale = 0.0, 1.0
    if config.standardize_targets:
        shift = float(y.mean())
        scale = float(y.std()) or 1.0
    y_fit = (y - shift) / scale
    params = gpr.fit_gpr(Z_train, y_fit, seed=model_seed)
    mean, std = gpr.predict_gpr(Z_train, y_fit, params, Z_pool)
    diag = {"gpr_c": params.scale_c, "gpr_l": params.length_l, "gpr_noise": params.noise_n}
    return mean * scale + shift, std * scale, diag


def _fit_predict_rfr(config: forest_gbt.ForestConfig, Z_train, y, Z_pool, model_seed):
    model = forest_gbt.fit_forest(Z_train, y, config, model_seed)
    mean, std = forest_gbt.predict_forest(model, Z_pool)
    return mean, std, None


def _fit_predict_gbt(config: forest_gbt.GBTConfig, Z_train, y, Z_pool, model_seed):
    model = forest_gbt.fit_gbt(Z_train, y, config)
    mean, std = forest_gbt.predict_gbt(model, Z_pool)
    return mean, std, None


def _fit_predict_bnn(config: bnn_mod.BNNConfig, Z_train, y, Z_pool, model_seed):
    network = bnn_mod.train_bnn(Z_train, y, config, model_seed)
    # The same stream as train_bnn's noise, so MC pass s draws epoch s's eps.
    predict_rng = np.random.default_rng(np.random.SeedSequence(entropy=model_seed, spawn_key=(1,)))
    mean, std = bnn_mod.predict_bnn(network, Z_pool, config.mc_samples, predict_rng)
    return mean, std, {"bnn_final_loss": network.final_loss, "bnn_min_loss": min(network.loss_history)}


#: The surrogate kinds, each as (section, fit_predict): `section` names the
#: ProposerSettings field (and the config's model_overrides section) that
#: holds its model config, and fit_predict(config, Z_train, y, Z_pool,
#: model_seed) -> (mean, std, diag) over the pool rows. Entries look their
#: model functions up on the module at call time, so a wrapper installed
#: there (as the benchmark's tracer does) sees every call.
SURROGATES = {
    ProposerKind.GPR: ("gpr", _fit_predict_gpr),
    ProposerKind.RFR: ("forest", _fit_predict_rfr),
    ProposerKind.GBT: ("gbt", _fit_predict_gbt),
    ProposerKind.BNN: ("bnn", _fit_predict_bnn),
}


class SurrogateProposer:
    """GPR / RFR / GBT / BNN behind the UCB acquisition rule."""

    def __init__(self, kind: ProposerKind, alpha: float, seed: int, settings: ProposerSettings = DEFAULT_SETTINGS):
        if kind not in SURROGATES:
            raise ConfigError(f"{kind} is not a surrogate proposer")
        self.kind = kind
        self.alpha = alpha
        self.settings = settings
        self._model_rng = substream(seed, STREAM_MODEL)

    def propose(self, dataset: Dataset, observed_ids, observed_values) -> Suggestion:
        unlabeled = unlabeled_pool_ids(len(dataset), observed_ids)
        X = dataset.feature_matrix
        X_obs = X[list(observed_ids)]
        y = np.asarray(observed_values, dtype=float)
        Z_train = standardize_features(X_obs, X_obs)
        Z_pool = standardize_features(X_obs, X[unlabeled])
        model_seed = int(self._model_rng.integers(2**31 - 1))
        section, fit_predict = SURROGATES[self.kind]
        mean, std, diag = fit_predict(getattr(self.settings, section), Z_train, y, Z_pool, model_seed)
        index = ucb_select(mean, std, self.alpha, dataset.goal)
        return Suggestion(candidate_id=int(unlabeled[index]), surrogate_diag=diag)


def make_proposer(
    config: RunConfig,
    settings: ProposerSettings = DEFAULT_SETTINGS,
    *,
    chat_client=None,
    rerank_client=None,
    backoff: float = 1.0,
):
    """Build a fresh proposer instance for one run."""
    kind = config.proposer
    if kind is ProposerKind.RANDOM_WALK:
        return RandomWalkProposer(config.seed)
    if kind is ProposerKind.LLM:
        from .llm import LLMProposer

        if chat_client is None:
            raise ConfigError("LLM proposer needs a chat client (live, replay, or mock)")
        return LLMProposer(
            client=chat_client,
            seed=config.seed,
            prompt_format=config.prompt_format,
            rerank_client=rerank_client,
            offline_reports=settings.offline_reports,
            backoff=backoff,
        )
    return SurrogateProposer(kind, alpha=config.alpha, seed=config.seed, settings=settings)
