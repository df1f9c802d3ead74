"""Selection rules: UCB over surrogate predictions, plus the random walk."""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import ConfigError, InputError
from .types import Goal, Prediction


def ucb_select(predictions: Sequence[Prediction], alpha: float, goal: Goal) -> int:
    """Pick the candidate index maximizing mu + alpha*sigma.

    Minimization uses the lower-confidence mirror, argmin(mu - alpha*sigma),
    equivalent to negating the targets. Ties break to the lowest index.
    """
    if len(predictions) == 0:
        raise ConfigError("ucb_select needs at least one prediction")
    if not (math.isfinite(alpha) and alpha >= 0):
        raise ConfigError(f"alpha must be finite and >= 0, got {alpha}")
    means = np.array([p.mean for p in predictions], dtype=float)
    stds = np.array([p.std for p in predictions], dtype=float)
    if np.isnan(means).any() or np.isnan(stds).any():
        raise InputError("NaN in predictions")
    if goal is Goal.MAXIMIZE:
        return int(np.argmax(means + alpha * stds))
    return int(np.argmin(means - alpha * stds))


def random_walk_select(unlabeled_ids: Sequence[int], rng: np.random.Generator) -> int:
    """Uniform draw from the unlabeled set using the run's walk substream."""
    if len(unlabeled_ids) == 0:
        raise ConfigError("random_walk_select: unlabeled set is empty")
    return int(unlabeled_ids[rng.integers(len(unlabeled_ids))])
