"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings. The real-data check (criterion 8) needs CSV paths in
ALBENCH_P3HT_CSV and ALBENCH_PEROVSKITE_CSV and is skipped otherwise.
"""

import functools
import math
import os
import time

import numpy as np
import pytest

from albench.acquisition import ucb_select
from albench.analytics import cumulative_l2, pca_project, running_best
from albench.bnn import BNNConfig, draw_noise, elbo_loss, init_network, kl_layer
from albench.clients import ScriptedChatClient
from albench.data import load_csv, registry_by_name, synthetic_pool
from albench.engine import run_active_learning, standardize_features, trajectory_to_jsonl
from albench.forest_gbt import ForestConfig, GBTConfig
from albench.gpr import KernelParams, kernel_matrix, log_marginal_likelihood, predict_gpr
from albench.llm import LLMProposer
from albench.proposers import RandomWalkProposer, SurrogateProposer, make_proposer
from albench.types import Goal, PromptFormat, ProposerKind, RunConfig

from conftest import elbo_loss_and_grads, make_pool, optimum_id


def criterion(number, name, budget_seconds):
    """Wrap a test so it prints one status line and enforces its budget."""

    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.time()
            try:
                fn(*args, **kwargs)
            except pytest.skip.Exception:
                print(f"[acceptance] criterion {number} ({name}): SKIP")
                raise
            except BaseException:
                print(f"[acceptance] criterion {number} ({name}): FAIL")
                raise
            elapsed = time.time() - start
            print(f"[acceptance] criterion {number} ({name}): PASS in {elapsed:.1f}s")
            assert elapsed < budget_seconds, f"budget exceeded: {elapsed:.1f}s"

        return wrapper

    return decorate


@criterion(1, "BNN gradient oracle", budget_seconds=5)
def test_criterion_1_bnn_gradient_oracle():
    gen = np.random.default_rng(7)
    net = init_network(2, BNNConfig(hidden_layers=1, width=4, seed=7), gen)
    X = gen.normal(size=(4, 2)) + 0.1
    y = gen.normal(size=4)
    noise = draw_noise(net, gen)
    _, grads = elbo_loss_and_grads(net, X, y, noise)
    h = 1e-4
    for li, layer in enumerate(net.layers):
        for slot, pname in enumerate(("mu_w", "log_sigma_w", "mu_b", "log_sigma_b")):
            arr = getattr(layer, pname)
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
                assert rel < 1e-4, f"layer {li} {pname}{ix}: fd={fd}, analytic={analytic[ix]}"


@criterion(2, "KL correctness", budget_seconds=10)
def test_criterion_2_kl_closed_form():
    from albench.bnn import BayesianLinearLayer

    def layer_for(mu, sigma):
        return BayesianLinearLayer(
            mu_w=np.array([[float(mu)]]),
            log_sigma_w=np.array([[math.log(sigma)]]),
            mu_b=np.zeros(0),
            log_sigma_b=np.zeros(0),
        )

    # exact anchors
    assert kl_layer(layer_for(0.0, 1.0)) == 0.0
    assert kl_layer(layer_for(1.0, 1.0)) == pytest.approx(0.5, abs=1e-12)

    for mu, sigma in ((0.0, 1.0), (1.0, 1.0), (0.0, math.exp(-5)), (0.2, 0.5)):
        closed = kl_layer(layer_for(mu, sigma))
        gen = np.random.default_rng(0)
        w = mu + sigma * gen.standard_normal(10**6)
        log_q = -math.log(sigma) - 0.5 * math.log(2 * math.pi) - (w - mu) ** 2 / (2 * sigma**2)
        log_p = -0.5 * math.log(2 * math.pi) - w**2 / 2
        diff = log_q - log_p
        se = float(diff.std(ddof=1)) / 1000.0
        if se == 0.0:  # posterior == prior: the integrand is identically zero
            assert closed == diff.mean() == 0.0
        else:
            assert abs(closed - float(diff.mean())) <= 3 * se


@criterion(3, "GPR oracle equivalence", budget_seconds=5)
def test_criterion_3_gpr_oracles():
    gen = np.random.default_rng(11)
    for _ in range(10):
        X = gen.normal(size=(5, 2))
        y = gen.normal(size=5)
        params = KernelParams(
            scale_c=math.exp(gen.uniform(-2, 2)),
            length_l=math.exp(gen.uniform(-1, 1)),
            noise_n=math.exp(gen.uniform(-2, 1)),
        )
        # dense reimplementation with explicit inverses
        K_inv = np.linalg.inv(kernel_matrix(X, X, params, same_inputs=True))
        Q = X + gen.normal(size=X.shape) * 0.5
        ks = kernel_matrix(Q, X, params, same_inputs=False)
        mean_dense = ks @ K_inv @ y
        var_dense = np.maximum(
            (params.scale_c + params.noise_n) - np.einsum("ij,jk,ik->i", ks, K_inv, ks), 0.0
        )
        mean, std = predict_gpr(X, y, params, Q)
        assert np.abs(mean - mean_dense).max() < 1e-8
        assert np.abs(std**2 - var_dense).max() < 1e-8

        lml, grad = log_marginal_likelihood(X, y, params, eval_gradient=True)
        theta = np.log([params.scale_c, params.length_l, params.noise_n])
        h = 1e-5
        for j in range(3):
            tp, tm = theta.copy(), theta.copy()
            tp[j] += h
            tm[j] -= h
            fd = (
                log_marginal_likelihood(X, y, KernelParams.from_log_vector(tp))
                - log_marginal_likelihood(X, y, KernelParams.from_log_vector(tm))
            ) / (2 * h)
            assert abs(fd - grad[j]) / max(abs(fd), abs(grad[j]), 1e-10) < 1e-5


@criterion(4, "UCB behavior", budget_seconds=5)
def test_criterion_4_ucb_invariances():
    gen = np.random.default_rng(4)
    for _ in range(1000):
        n = int(gen.integers(1, 15))
        # dyadic grids keep affine transforms exact in float64
        means = gen.integers(-3200, 3200, size=n) / 32.0
        stds = gen.integers(0, 1600, size=n) / 32.0
        alpha = float(gen.integers(0, 160)) / 32.0
        shift = float(gen.integers(-32000, 32000)) / 32.0
        scale = float(gen.integers(1, 1024)) / 32.0
        base = ucb_select(means, stds, alpha, Goal.MAXIMIZE)
        assert ucb_select(means + shift, stds, alpha, Goal.MAXIMIZE) == base
        assert ucb_select(means * scale, stds * scale, alpha, Goal.MAXIMIZE) == base

    # alpha-threshold crossover on constructed two-candidate instances
    for da, ds in ((0.5, 0.5), (1.0, 0.25), (0.125, 2.0)):
        means, stds = np.array([1.0 + da, 1.0]), np.array([0.5, 0.5 + ds])
        alpha_star = da / ds
        assert ucb_select(means, stds, alpha_star * 0.9, Goal.MAXIMIZE) == 0
        assert ucb_select(means, stds, alpha_star * 1.1, Goal.MAXIMIZE) == 1


SEEDS_20 = list(range(38, 58))


@criterion(5, "efficiency ordering on synthetic data", budget_seconds=120)
def test_criterion_5_efficiency_ordering():
    pool = synthetic_pool("quadratic2d", 200, seed=0)
    gpr_iters, walk_iters = [], []
    for seed in SEEDS_20:
        cfg = RunConfig(ProposerKind.GPR, alpha=2.0, seed=seed)
        traj = run_active_learning(pool, cfg, make_proposer(cfg))
        assert traj.reached_optimum_at is not None
        gpr_iters.append(traj.reached_optimum_at)
        cfg_walk = RunConfig(ProposerKind.RANDOM_WALK, seed=seed)
        traj_walk = run_active_learning(pool, cfg_walk, make_proposer(cfg_walk))
        assert traj_walk.reached_optimum_at is not None
        walk_iters.append(traj_walk.reached_optimum_at)
    mean_gpr = float(np.mean(gpr_iters))
    mean_walk = float(np.mean(walk_iters))
    assert mean_gpr < mean_walk, f"GPR {mean_gpr} not faster than walk {mean_walk}"
    assert 0.35 * 200 <= mean_walk <= 0.65 * 200, f"walk mean {mean_walk} outside [70, 130]"


@criterion(6, "distance ordering", budget_seconds=180)
def test_criterion_6_distance_ordering():
    pool = synthetic_pool("quadratic2d", 200, seed=0)
    alpha = 1.0
    totals = {"random_walk": [], "gpr": [], "rfr": [], "gbt": []}
    for seed in SEEDS_20:
        cfg_walk = RunConfig(ProposerKind.RANDOM_WALK, seed=seed)
        walk = run_active_learning(pool, cfg_walk, RandomWalkProposer(seed))
        cfg_gpr = RunConfig(ProposerKind.GPR, alpha=alpha, seed=seed)
        gpr_run = run_active_learning(
            pool,
            cfg_gpr,
            SurrogateProposer(ProposerKind.GPR, alpha=alpha, seed=seed, gpr_standardize_targets=True),
        )
        cap = max(len(gpr_run.steps), 2)  # the comparison only needs the common prefix
        cfg_rfr = RunConfig(ProposerKind.RFR, alpha=alpha, seed=seed, max_iterations=cap)
        rfr_run = run_active_learning(
            pool,
            cfg_rfr,
            SurrogateProposer(
                ProposerKind.RFR, alpha=alpha, seed=seed, forest_config=ForestConfig(n_trees=100)
            ),
        )
        cfg_gbt = RunConfig(ProposerKind.GBT, alpha=alpha, seed=seed, max_iterations=cap)
        gbt_run = run_active_learning(
            pool,
            cfg_gbt,
            SurrogateProposer(
                ProposerKind.GBT,
                alpha=alpha,
                seed=seed,
                gbt_config=GBTConfig(n_rounds=100, max_depth=3),
            ),
        )
        runs = {"random_walk": walk, "gpr": gpr_run, "rfr": rfr_run, "gbt": gbt_run}
        matched = min(len(r.steps) for r in runs.values())
        for name, run in runs.items():
            totals[name].append(cumulative_l2(run, pool)[matched - 1])
    means = {name: float(np.mean(v)) for name, v in totals.items()}
    for name in ("gpr", "rfr", "gbt"):
        assert means["random_walk"] > means[name], (
            f"random walk ({means['random_walk']:.2f}) not above {name} ({means[name]:.2f})"
        )


@criterion(7, "deterministic LLM-AL replay", budget_seconds=5)
def test_criterion_7_llm_replay():
    pool = synthetic_pool("quadratic2d", 30, seed=3)
    best = pool.candidates[optimum_id(pool)]
    # a scripted proposal walk that closes in on the optimum
    by_dist = sorted(pool.candidates, key=lambda c: -(c.features[0] ** 2 + c.features[1] ** 2))
    waypoints = [by_dist[len(by_dist) // 2], by_dist[-3], best]

    def fenced(cand):
        return f"```\nx1: {cand.features[0]!r}\nx2: {cand.features[1]!r}\n```"

    fixtures = [fenced(c) for c in waypoints] + [fenced(best)] * 30

    outputs = []
    for _ in range(2):
        cfg = RunConfig(ProposerKind.LLM, seed=41, n_initial=1, prompt_format=PromptFormat.PARAMETER)
        proposer = LLMProposer(ScriptedChatClient(list(fixtures)), seed=41)
        traj = run_active_learning(pool, cfg, proposer)
        assert traj.reached_optimum_at is not None
        outputs.append(trajectory_to_jsonl(traj).encode())
    assert outputs[0] == outputs[1]
    assert all(s.match_score is not None for s in traj.steps[1:])


def _real_data_check(csv_env, registry_name):
    path = os.environ.get(csv_env, "")
    if not path or not os.path.exists(path):
        pytest.skip(f"{csv_env} not set; real-data check skipped")
    from dataclasses import replace

    spec = replace(registry_by_name(registry_name), csv_path=path)
    pool = load_csv(spec)
    fractions = {}
    for kind in (ProposerKind.GPR, ProposerKind.RFR, ProposerKind.GBT):
        best_fraction = None
        for alpha in (0.0, 2.0, 5.0):
            per_seed = []
            for seed in (38, 39, 40, 41, 42):
                cfg = RunConfig(kind, alpha=alpha, seed=seed)
                proposer = SurrogateProposer(
                    kind,
                    alpha=alpha,
                    seed=seed,
                    forest_config=ForestConfig(n_trees=100),
                    gbt_config=GBTConfig(n_rounds=100, max_depth=3),
                )
                traj = run_active_learning(pool, cfg, proposer)
                per_seed.append(traj.data_fraction_used)
            mean_fraction = float(np.mean(per_seed))
            if best_fraction is None or mean_fraction < best_fraction:
                best_fraction = mean_fraction
        fractions[kind.value] = best_fraction
        assert 0.30 <= best_fraction <= 0.80, f"{kind.value}: best-alpha fraction {best_fraction}"
    print(f"[acceptance] real-data fractions for {registry_name}: {fractions}")


@criterion(8, "conditional real-data check", budget_seconds=1800)
def test_criterion_8_real_data_band():
    _real_data_check("ALBENCH_P3HT_CSV", "p3ht_cnt")
    _real_data_check("ALBENCH_PEROVSKITE_CSV", "perovskite")


@criterion(9, "full invariant suite", budget_seconds=60)
def test_criterion_9_invariant_suite():
    gen = np.random.default_rng(99)

    # standardization moments plus the zero-variance rule
    for _ in range(20):
        ref = gen.normal(size=(int(gen.integers(2, 12)), 3)) * gen.uniform(0.5, 4)
        z = standardize_features(ref, ref)
        assert np.allclose(z.mean(axis=0), 0.0, atol=1e-10)
        assert np.allclose(z.std(axis=0), 1.0, atol=1e-10)
    ref = np.column_stack([np.ones(5), gen.normal(size=5)])
    z = standardize_features(ref, gen.normal(size=(4, 2)))
    assert np.all(z[:, 0] == 0.0)

    # running-best idempotence
    for _ in range(20):
        values = list(gen.normal(size=int(gen.integers(1, 25))))
        for goal in (Goal.MAXIMIZE, Goal.MINIMIZE):
            once = running_best(values, goal)
            assert running_best(once, goal) == once

    # PCA against an SVD factorization oracle
    for _ in range(5):
        features = [tuple(map(float, r)) for r in gen.normal(size=(10, 3))]
        pool = make_pool(list(range(10)), features=features)
        components, projected, explained = pca_project(pool, k=2)
        zfull = standardize_features(pool.feature_matrix, pool.feature_matrix)
        _, svals, vt = np.linalg.svd(zfull, full_matrices=False)
        for mine, svd_row in zip(components, vt[:2]):
            canon = svd_row if svd_row[np.argmax(np.abs(svd_row))] > 0 else -svd_row
            assert np.allclose(mine, canon, atol=1e-8)
        assert np.allclose(explained, (svals[:2] ** 2) / 10, atol=1e-8)

    # no-reselection and stopping minimality on live runs
    pool = make_pool([2.0, 7.0, 7.0, 1.0, 5.0, 7.0, 0.0, 3.0])
    for seed in range(10):
        cfg = RunConfig(ProposerKind.RANDOM_WALK, seed=seed)
        traj = run_active_learning(pool, cfg, RandomWalkProposer(seed))
        ids = traj.selected_ids()
        assert len(ids) == len(set(ids))
        hits = [s.iteration for s in traj.steps if s.observed_value == 7.0]
        assert traj.reached_optimum_at == hits[0]
        assert traj.steps[-1].iteration == traj.reached_optimum_at
    cfg = RunConfig(ProposerKind.GPR, alpha=1.0, seed=5)
    gpr_pool = synthetic_pool("quadratic2d", 25, seed=2)
    traj = run_active_learning(gpr_pool, cfg, make_proposer(cfg))
    assert len(traj.selected_ids()) == len(set(traj.selected_ids()))
