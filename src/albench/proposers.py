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
from . import forest_gbt, gpr
from .acquisition import random_walk_select, ucb_select
from .engine import STREAM_MODEL, STREAM_WALK, Suggestion, standardize_features, substream, unlabeled_pool_ids
from .errors import ConfigError
from .types import Dataset, Prediction, ProposerKind, RunConfig


class RandomWalkProposer:
    """Uniform without-replacement baseline."""

    kind = ProposerKind.RANDOM_WALK

    def __init__(self, seed: int):
        self._rng = substream(seed, STREAM_WALK)

    def propose(self, dataset: Dataset, observed_ids, observed_values) -> Suggestion:
        unlabeled = unlabeled_pool_ids(len(dataset), observed_ids)
        return Suggestion(candidate_id=random_walk_select(unlabeled, self._rng))


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
        gpr_restarts: int = 4,
        gpr_standardize_targets: bool = False,
    ):
        if kind not in (ProposerKind.GPR, ProposerKind.RFR, ProposerKind.GBT, ProposerKind.BNN):
            raise ConfigError(f"{kind} is not a surrogate proposer")
        self.kind = kind
        self.alpha = alpha
        self.forest_config = forest_config or forest_gbt.ForestConfig()
        self.gbt_config = gbt_config or forest_gbt.GBTConfig()
        self.bnn_config = bnn_config or bnn_mod.BNNConfig()
        self.gpr_restarts = gpr_restarts
        self.gpr_standardize_targets = gpr_standardize_targets
        self._model_rng = substream(seed, STREAM_MODEL)

    def _fit_predict(self, Z_train, y, Z_pool, model_seed: int):
        if self.kind is ProposerKind.GPR:
            shift, scale = 0.0, 1.0
            if self.gpr_standardize_targets:
                shift = float(y.mean())
                scale = float(y.std()) or 1.0
            y_fit = (y - shift) / scale
            params = gpr.fit_gpr(Z_train, y_fit, seed=model_seed, n_restarts=self.gpr_restarts)
            raw = gpr.predict_gpr(Z_train, y_fit, params, Z_pool)
            preds = [Prediction(p.mean * scale + shift, p.std * scale) for p in raw]
            diag = {"gpr_c": params.scale_c, "gpr_l": params.length_l, "gpr_noise": params.noise_n}
            return preds, diag
        if self.kind is ProposerKind.RFR:
            config = replace(self.forest_config, seed=model_seed)
            model = forest_gbt.fit_forest(Z_train, y, config)
            return forest_gbt.predict_forest(model, Z_pool), None
        if self.kind is ProposerKind.GBT:
            model = forest_gbt.fit_gbt(Z_train, y, self.gbt_config)
            return forest_gbt.predict_gbt(model, Z_pool), None
        config = replace(self.bnn_config, seed=model_seed)
        network = bnn_mod.train_bnn(Z_train, y, config)
        predict_rng = np.random.default_rng(
            np.random.SeedSequence(entropy=model_seed, spawn_key=(1,))
        )
        preds = bnn_mod.predict_bnn(network, Z_pool, config.mc_samples, predict_rng)
        return preds, {"bnn_final_loss": network.final_loss}

    def propose(self, dataset: Dataset, observed_ids, observed_values) -> Suggestion:
        unlabeled = unlabeled_pool_ids(len(dataset), observed_ids)
        X = dataset.feature_matrix
        X_obs = X[list(observed_ids)]
        y = np.asarray(observed_values, dtype=float)
        Z_train = standardize_features(X_obs, X_obs)
        Z_pool = standardize_features(X_obs, X[unlabeled])
        model_seed = int(self._model_rng.integers(2**31 - 1))
        preds, diag = self._fit_predict(Z_train, y, Z_pool, model_seed)
        index = ucb_select(preds, self.alpha, dataset.goal)
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
