"""Selection rules: UCB over surrogate predictions, plus the random walk."""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import ConfigError, InputError, ShapeError
from .types import Goal


def ucb_select(mean, std, alpha: float, goal: Goal) -> int:
    """Pick the candidate index maximizing mean + alpha*std.

    mean and std are the surrogate's predictive arrays, one entry per
    candidate. Minimization uses the lower-confidence mirror,
    argmin(mean - alpha*std), equivalent to negating the targets. Ties
    break to the lowest index.
    """
    mean = np.asarray(mean, dtype=float)
    std = np.asarray(std, dtype=float)
    if mean.size == 0:
        raise ConfigError("ucb_select needs at least one prediction")
    if not (math.isfinite(alpha) and alpha >= 0):
        raise ConfigError(f"alpha must be finite and >= 0, got {alpha}")
    if mean.ndim != 1 or mean.shape != std.shape:
        raise ShapeError(f"mean and std must be two arrays of shape (n,), got {mean.shape} and {std.shape}")
    if not (np.isfinite(mean).all() and np.isfinite(std).all() and (std >= 0).all()):
        raise InputError("predictions need a finite mean and a finite std >= 0 for every candidate")
    if goal is Goal.MAXIMIZE:
        return int(np.argmax(mean + alpha * std))
    return int(np.argmin(mean - alpha * std))


def random_walk_select(unlabeled_ids: Sequence[int], rng: np.random.Generator) -> int:
    """Uniform draw from the unlabeled set using the run's walk substream."""
    if len(unlabeled_ids) == 0:
        raise ConfigError("random_walk_select: unlabeled set is empty")
    return int(unlabeled_ids[rng.integers(len(unlabeled_ids))])
