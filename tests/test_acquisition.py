"""UCB selection rule and the random-walk draw."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from albench.acquisition import random_walk_select, ucb_select
from albench.errors import ConfigError, InputError
from albench.types import Goal, Prediction


def preds(means, stds):
    return [Prediction(float(m), float(s)) for m, s in zip(means, stds)]


class TestUcbSelect:
    def test_zero_std_reduces_to_argmax_mean(self):
        for alpha in (0.0, 1.0, 5.0):
            assert ucb_select(preds([1, 2, 3], [0, 0, 0]), alpha, Goal.MAXIMIZE) == 2

    def test_documented_arithmetic(self):
        assert ucb_select(preds([1.0, 0.5], [0.1, 0.5]), 2.0, Goal.MAXIMIZE) == 1

    def test_minimize_mirror(self):
        assert ucb_select(preds([1.0, 0.5], [0.1, 0.5]), 2.0, Goal.MINIMIZE) == 1
        # scores are 0.8 and -0.5; flipping stds flips the winner
        assert ucb_select(preds([1.0, 0.5], [1.5, 0.0]), 2.0, Goal.MINIMIZE) == 0

    def test_ties_break_to_lowest_index(self):
        assert ucb_select(preds([2, 2, 2], [1, 1, 1]), 3.0, Goal.MAXIMIZE) == 0
        assert ucb_select(preds([2, 2], [0, 0]), 0.0, Goal.MINIMIZE) == 0

    def test_nan_rejected(self):
        bad = [Prediction(1.0, 0.0), Prediction(2.0, 0.5)]
        bad[0] = Prediction.__new__(Prediction)  # bypass validation to hold NaN
        object.__setattr__(bad[0], "mean", float("nan"))
        object.__setattr__(bad[0], "std", 0.0)
        with pytest.raises(InputError):
            ucb_select(bad, 1.0, Goal.MAXIMIZE)

    def test_empty_and_negative_alpha(self):
        with pytest.raises(ConfigError):
            ucb_select([], 1.0, Goal.MAXIMIZE)
        with pytest.raises(ConfigError):
            ucb_select(preds([1], [0]), -0.5, Goal.MAXIMIZE)

    @pytest.mark.parametrize("alpha", [float("nan"), float("inf")])
    def test_non_finite_alpha_rejected(self, alpha):
        # a NaN score everywhere used to make argmax pick index 0
        with pytest.raises(ConfigError, match="finite"):
            ucb_select(preds([1, 3], [0.5, 0.5]), alpha, Goal.MAXIMIZE)

    # dyadic-rational inputs keep every product and sum exactly representable,
    # so the exact-arithmetic invariance transfers to float64 verbatim
    dyadic = st.integers(-3200, 3200).map(lambda k: k / 32.0)
    dyadic_nonneg = st.integers(0, 1600).map(lambda k: k / 32.0)

    @given(
        data=st.lists(st.tuples(dyadic, dyadic_nonneg), min_size=1, max_size=20),
        alpha=st.integers(0, 160).map(lambda k: k / 32.0),
        shift=dyadic,
        scale=st.integers(1, 1024).map(lambda k: k / 32.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_affine_invariance(self, data, alpha, shift, scale):
        means = [m for m, _ in data]
        stds = [s for _, s in data]
        base = ucb_select(preds(means, stds), alpha, Goal.MAXIMIZE)
        shifted = ucb_select(preds([m + shift for m in means], stds), alpha, Goal.MAXIMIZE)
        scaled = ucb_select(
            preds([m * scale for m in means], [s * scale for s in stds]), alpha, Goal.MAXIMIZE
        )
        assert base == shifted
        assert base == scaled

    @given(
        data=st.lists(
            st.tuples(st.floats(-50, 50), st.floats(0, 20)), min_size=1, max_size=15
        ),
        alpha=st.floats(0, 5),
    )
    @settings(max_examples=100, deadline=None)
    def test_minimize_maximize_duality(self, data, alpha):
        means = [m for m, _ in data]
        stds = [s for _, s in data]
        mini = ucb_select(preds(means, stds), alpha, Goal.MINIMIZE)
        maxi = ucb_select(preds([-m for m in means], stds), alpha, Goal.MAXIMIZE)
        assert mini == maxi

    def test_alpha_threshold_crossover(self):
        # A: higher mean, lower std; B: lower mean, strictly higher std
        a = Prediction(1.0, 0.1)
        b = Prediction(0.5, 0.6)
        alpha_star = (a.mean - b.mean) / (b.std - a.std)  # = 1.0
        assert ucb_select([a, b], alpha_star - 0.01, Goal.MAXIMIZE) == 0
        assert ucb_select([a, b], alpha_star + 0.01, Goal.MAXIMIZE) == 1


class TestRandomWalkSelect:
    def test_singleton(self, rng):
        assert random_walk_select([7], rng) == 7

    def test_deterministic_under_seed(self):
        ids = list(range(10))
        a = [random_walk_select(ids, np.random.default_rng(3)) for _ in range(5)]
        b = [random_walk_select(ids, np.random.default_rng(3)) for _ in range(5)]
        assert a == b
        gen1, gen2 = np.random.default_rng(4), np.random.default_rng(4)
        seq1 = [random_walk_select(ids, gen1) for _ in range(20)]
        seq2 = [random_walk_select(ids, gen2) for _ in range(20)]
        assert seq1 == seq2

    def test_empty_set(self, rng):
        with pytest.raises(ConfigError):
            random_walk_select([], rng)

    def test_uniformity_chi_square(self):
        gen = np.random.default_rng(12)
        ids = [3, 8, 11, 40]
        n = 10_000
        counts = {i: 0 for i in ids}
        for _ in range(n):
            counts[random_walk_select(ids, gen)] += 1
        expected = n / len(ids)
        for i in ids:
            sigma = (n * 0.25 * 0.75) ** 0.5
            assert abs(counts[i] - expected) < 3 * sigma
