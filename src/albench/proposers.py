"""Proposer implementations binding surrogates to the UCB rule.

Each AL iteration: standardize inputs against the current labeled pool,
fit the surrogate on the observations, predict mean/std over the
unlabeled pool, then pick by UCB. Model fits draw a fresh seed from the
run's model substream each iteration, so runs are repeatable end to end.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

import numpy as np

from . import bnn as bnn_mod
from . import forest_gbt
from .acquisition import random_walk_select, ucb_select
from .engine import STREAM_MODEL, STREAM_WALK, Suggestion, standardize_features, substream, unlabeled_pool_ids
from .errors import ConfigError
from .types import Dataset, ProposerKind, RunConfig


class RandomWalkProposer:
    """Uniform without-replacement baseline."""

    kind = ProposerKind.RANDOM_WALK

    def __init__(self, seed: int):
        self._rng = substream(seed, STREAM_WALK)

    def propose(self, dataset: Dataset, observed_ids, observed_values) -> Suggestion:
        unlabeled = unlabeled_pool_ids(len(dataset), observed_ids)
        return Suggestion(candidate_id=random_walk_select(unlabeled, self._rng))


def _fit_predict_gpr(proposer, Z_train, y, Z_pool, model_seed):
    from . import gpr  # loads scipy, which no other proposer needs

    shift, scale = 0.0, 1.0
    if proposer.gpr_standardize_targets:
        shift = float(y.mean())
        scale = float(y.std()) or 1.0
    y_fit = (y - shift) / scale
    params = gpr.fit_gpr(Z_train, y_fit, seed=model_seed)
    mean, std = gpr.predict_gpr(Z_train, y_fit, params, Z_pool)
    diag = {"gpr_c": params.scale_c, "gpr_l": params.length_l, "gpr_noise": params.noise_n}
    return mean * scale + shift, std * scale, diag


def _fit_predict_rfr(proposer, Z_train, y, Z_pool, model_seed):
    model = forest_gbt.fit_forest(Z_train, y, replace(proposer.forest_config, seed=model_seed))
    mean, std = forest_gbt.predict_forest(model, Z_pool)
    return mean, std, None


def _fit_predict_gbt(proposer, Z_train, y, Z_pool, model_seed):
    model = forest_gbt.fit_gbt(Z_train, y, proposer.gbt_config)
    mean, std = forest_gbt.predict_gbt(model, Z_pool)
    return mean, std, None


def _fit_predict_bnn(proposer, Z_train, y, Z_pool, model_seed):
    config = replace(proposer.bnn_config, seed=model_seed)
    network = bnn_mod.train_bnn(Z_train, y, config)
    predict_rng = np.random.default_rng(np.random.SeedSequence(entropy=model_seed, spawn_key=(1,)))
    mean, std = bnn_mod.predict_bnn(network, Z_pool, config.mc_samples, predict_rng)
    return mean, std, {"bnn_final_loss": network.final_loss}


#: The surrogate proposers, each as fit_predict(proposer, Z_train, y, Z_pool,
#: model_seed) -> (mean, std, diag) over the pool rows. Entries look their
#: model functions up on the module at call time, so a wrapper installed
#: there (as the benchmark's tracer does) sees every call.
FIT_PREDICT = {
    ProposerKind.GPR: _fit_predict_gpr,
    ProposerKind.RFR: _fit_predict_rfr,
    ProposerKind.GBT: _fit_predict_gbt,
    ProposerKind.BNN: _fit_predict_bnn,
}


class SurrogateProposer:
    """GPR / RFR / GBT / BNN behind the UCB acquisition rule."""

    def __init__(
        self,
        kind: ProposerKind,
        alpha: float,
        seed: int,
        forest_config: Optional[forest_gbt.ForestConfig] = None,
        gbt_config: Optional[forest_gbt.GBTConfig] = None,
        bnn_config: Optional[bnn_mod.BNNConfig] = None,
        gpr_standardize_targets: bool = False,
    ):
        if kind not in FIT_PREDICT:
            raise ConfigError(f"{kind} is not a surrogate proposer")
        self.kind = kind
        self.alpha = alpha
        self.forest_config = forest_config or forest_gbt.ForestConfig()
        self.gbt_config = gbt_config or forest_gbt.GBTConfig()
        self.bnn_config = bnn_config or bnn_mod.BNNConfig()
        self.gpr_standardize_targets = gpr_standardize_targets
        self._model_rng = substream(seed, STREAM_MODEL)

    def propose(self, dataset: Dataset, observed_ids, observed_values) -> Suggestion:
        unlabeled = unlabeled_pool_ids(len(dataset), observed_ids)
        X = dataset.feature_matrix
        X_obs = X[list(observed_ids)]
        y = np.asarray(observed_values, dtype=float)
        Z_train = standardize_features(X_obs, X_obs)
        Z_pool = standardize_features(X_obs, X[unlabeled])
        model_seed = int(self._model_rng.integers(2**31 - 1))
        mean, std, diag = FIT_PREDICT[self.kind](self, Z_train, y, Z_pool, model_seed)
        index = ucb_select(mean, std, self.alpha, dataset.goal)
        return Suggestion(candidate_id=int(unlabeled[index]), surrogate_diag=diag)


def make_proposer(
    config: RunConfig,
    *,
    chat_client=None,
    matcher=None,
    rerank_client=None,
    offline_reports: bool = False,
    forest_config: Optional[forest_gbt.ForestConfig] = None,
    gbt_config: Optional[forest_gbt.GBTConfig] = None,
    bnn_config: Optional[bnn_mod.BNNConfig] = None,
    gpr_standardize_targets: bool = False,
    backoff: float = 1.0,
):
    """Build a fresh proposer instance for one run."""
    kind = config.proposer
    if kind is ProposerKind.RANDOM_WALK:
        return RandomWalkProposer(config.seed)
    if kind is ProposerKind.LLM:
        from .llm import LLMProposer, MatcherBackend

        if chat_client is None:
            raise ConfigError("LLM proposer needs a chat client (live, replay, or mock)")
        proposer = LLMProposer(
            client=chat_client,
            seed=config.seed,
            prompt_format=config.prompt_format,
            matcher=matcher or MatcherBackend.OFFLINE_NEAREST,
            rerank_client=rerank_client,
            backoff=backoff,
        )
        if offline_reports:
            proposer.use_offline_reports()
        return proposer
    return SurrogateProposer(
        kind,
        alpha=config.alpha,
        seed=config.seed,
        forest_config=forest_config,
        gbt_config=gbt_config,
        bnn_config=bnn_config,
        gpr_standardize_targets=gpr_standardize_targets,
    )
