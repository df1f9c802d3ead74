"""Proposer wiring: surrogate diagnostics, alpha handling, factory validation."""

import time

import numpy as np
import pytest

from albench import bnn, forest_gbt, gpr
from albench.bnn import BNNConfig
from albench.clients import ConstantChatClient, TokenBucket
from albench.data import synthetic_pool
from albench.acquisition import random_walk_select
from albench.engine import STREAM_WALK, run_active_learning, substream, trajectory_to_jsonl
from albench.errors import ConfigError
from albench.forest_gbt import ForestConfig, GBTConfig
from albench.proposers import FIT_PREDICT, RandomWalkProposer, SurrogateProposer, make_proposer
from albench.types import ProposerKind, RunConfig

from conftest import make_pool


class TestRandomWalk:
    def test_alpha_is_ignored(self):
        pool = synthetic_pool("linear1d", 12, seed=0)
        trajs = []
        for alpha in (0.0, 5.0):
            cfg = RunConfig(ProposerKind.RANDOM_WALK, alpha=alpha, seed=9)
            trajs.append(run_active_learning(pool, cfg, RandomWalkProposer(9)))
        assert trajs[0].selected_ids() == trajs[1].selected_ids()


class TestUnlabeledIds:
    def test_proposals_are_python_ints_from_the_same_draws(self):
        pool = synthetic_pool("quadratic2d", 16, seed=2)
        observed = [3, 0, 7, 12]
        values = [pool.by_id(i).target for i in observed]
        walk = RandomWalkProposer(5)
        reference_rng = substream(5, STREAM_WALK)
        for _ in range(4):
            cid = walk.propose(pool, observed, values).candidate_id
            assert type(cid) is int
            assert cid == random_walk_select(sorted(set(range(len(pool))) - set(observed)), reference_rng)
        gbt = SurrogateProposer(ProposerKind.GBT, alpha=1.0, seed=4, gbt_config=GBTConfig(n_rounds=5))
        llm = make_proposer(RunConfig(ProposerKind.LLM, seed=0), chat_client=ConstantChatClient("x1: 0.1\nx2: 0.2"))
        for proposer in (gbt, llm):
            cid = proposer.propose(pool, observed, values).candidate_id
            assert type(cid) is int and cid not in observed


class TestSurrogateProposers:
    def test_gpr_logs_kernel_diagnostics(self):
        pool = synthetic_pool("quadratic2d", 16, seed=1)
        cfg = RunConfig(ProposerKind.GPR, alpha=1.0, seed=3, max_iterations=3)
        traj = run_active_learning(pool, cfg, make_proposer(cfg))
        proposed = [s for s in traj.steps if s.surrogate_diag is not None]
        assert proposed, "no proposer steps recorded"
        for step in proposed:
            assert set(step.surrogate_diag) == {"gpr_c", "gpr_l", "gpr_noise"}
            assert step.surrogate_diag["gpr_c"] > 0

    def test_rfr_and_gbt_runs_complete(self):
        pool = synthetic_pool("quadratic2d", 16, seed=2)
        for kind, kwargs in (
            (ProposerKind.RFR, {"forest_config": ForestConfig(n_trees=20)}),
            (ProposerKind.GBT, {"gbt_config": GBTConfig(n_rounds=20, max_depth=3)}),
        ):
            cfg = RunConfig(kind, alpha=1.0, seed=4, max_iterations=6)
            proposer = SurrogateProposer(kind, alpha=1.0, seed=4, **kwargs)
            traj = run_active_learning(pool, cfg, proposer)
            assert len(traj.steps) >= 2
            ids = traj.selected_ids()
            assert len(ids) == len(set(ids))

    def test_bnn_proposer_logs_final_loss(self):
        pool = synthetic_pool("linear1d", 10, seed=3)
        cfg = RunConfig(ProposerKind.BNN, alpha=1.0, seed=5, max_iterations=3)
        proposer = SurrogateProposer(
            ProposerKind.BNN,
            alpha=1.0,
            seed=5,
            bnn_config=BNNConfig(hidden_layers=1, width=6, epochs=40, mc_samples=32),
        )
        traj = run_active_learning(pool, cfg, proposer)
        proposed = [s for s in traj.steps if s.surrogate_diag is not None]
        assert proposed
        assert all("bnn_final_loss" in s.surrogate_diag for s in proposed)

    def test_bnn_run_deterministic(self):
        pool = synthetic_pool("linear1d", 8, seed=4)
        cfg = RunConfig(ProposerKind.BNN, alpha=0.5, seed=6, max_iterations=3)

        def one_run():
            proposer = SurrogateProposer(
                ProposerKind.BNN,
                alpha=0.5,
                seed=6,
                bnn_config=BNNConfig(hidden_layers=1, width=4, epochs=30, mc_samples=16),
            )
            return trajectory_to_jsonl(run_active_learning(pool, cfg, proposer))

        assert one_run() == one_run()

    def test_target_standardization_changes_selection_scale_only(self):
        # shifted targets: standardized GPR picks identically on both pools
        features = [(float(i), float(i * i)) for i in range(10)]
        base = [float(v) for v in np.sin(np.arange(10))]
        pool_a = make_pool(base, features=features)
        pool_b = make_pool([v + 100.0 for v in base], features=features)
        picks = []
        for pool in (pool_a, pool_b):
            proposer = SurrogateProposer(
                ProposerKind.GPR, alpha=1.0, seed=7, gpr_standardize_targets=True
            )
            suggestion = proposer.propose(pool, [0, 3, 6], [pool.candidates[i].target for i in (0, 3, 6)])
            picks.append(suggestion.candidate_id)
        assert picks[0] == picks[1]

    # per surrogate: its module, fit function and predict function
    MODEL_FUNCTIONS = {
        ProposerKind.GPR: (gpr, "fit_gpr", "predict_gpr"),
        ProposerKind.RFR: (forest_gbt, "fit_forest", "predict_forest"),
        ProposerKind.GBT: (forest_gbt, "fit_gbt", "predict_gbt"),
        ProposerKind.BNN: (bnn, "train_bnn", "predict_bnn"),
    }
    SMALL = {
        "forest_config": ForestConfig(n_trees=5),
        "gbt_config": GBTConfig(n_rounds=4, max_depth=2),
        "bnn_config": BNNConfig(hidden_layers=1, width=4, epochs=5, mc_samples=8),
    }

    @pytest.mark.parametrize("kind", list(MODEL_FUNCTIONS), ids=lambda k: k.value)
    def test_predict_returns_float64_arrays_over_the_pool(self, kind, monkeypatch):
        # each entry calls its model functions through the module at call
        # time, so a wrapper installed there sees the fit and the predict
        module, fit_name, predict_name = self.MODEL_FUNCTIONS[kind]
        results = []

        def recording(fn):
            def wrapper(*args, **kwargs):
                results.append(fn(*args, **kwargs))
                return results[-1]

            return wrapper

        monkeypatch.setattr(module, fit_name, recording(getattr(module, fit_name)))
        monkeypatch.setattr(module, predict_name, recording(getattr(module, predict_name)))
        gen = np.random.default_rng(0)
        Z_train, y, Z_pool = gen.normal(size=(6, 2)), gen.normal(size=6), gen.normal(size=(9, 2))
        proposer = SurrogateProposer(kind, alpha=1.0, seed=0, **self.SMALL)
        mean, std, _ = FIT_PREDICT[kind](proposer, Z_train, y, Z_pool, 3)
        assert len(results) == 2  # one fit, one predict
        for arrays in (results[1], (mean, std)):
            assert len(arrays) == 2
            for a in arrays:
                assert isinstance(a, np.ndarray) and a.dtype == np.float64 and a.shape == (9,)

    def test_kind_validation(self):
        with pytest.raises(ConfigError):
            SurrogateProposer(ProposerKind.RANDOM_WALK, alpha=1.0, seed=0)


class TestFactory:
    def test_llm_requires_client(self):
        cfg = RunConfig(ProposerKind.LLM, seed=0)
        with pytest.raises(ConfigError):
            make_proposer(cfg)

    def test_llm_with_mock_client(self):
        cfg = RunConfig(ProposerKind.LLM, seed=0)
        proposer = make_proposer(cfg, chat_client=ConstantChatClient("```\nx: 0.9\n```"))
        pool = synthetic_pool("linear1d", 6, seed=0)
        suggestion = proposer.propose(pool, [0], [pool.candidates[0].target])
        assert suggestion.candidate_id != 0

    def test_each_kind_constructs(self):
        for kind in ProposerKind:
            cfg = RunConfig(kind, seed=0)
            if kind is ProposerKind.LLM:
                proposer = make_proposer(cfg, chat_client=ConstantChatClient("x"))
            else:
                proposer = make_proposer(cfg)
            assert hasattr(proposer, "propose")


class TestTokenBucket:
    def test_capacity_allows_burst_without_wait(self):
        bucket = TokenBucket(requests_per_minute=60)
        start = time.monotonic()
        for _ in range(10):
            bucket.acquire()
        assert time.monotonic() - start < 0.5

    def test_validation(self):
        with pytest.raises(ConfigError):
            TokenBucket(0)
