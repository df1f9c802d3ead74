"""Run-level metrics against recomputation and SVD oracles."""

import csv

import numpy as np
import pytest

from albench.analytics import (
    IDENTITY,
    OUTCOME,
    cumulative_l2,
    export_distance_curves,
    export_pca,
    export_running_best,
    export_similarity_scores,
    export_variability,
    pca_project,
    run_identity,
    summarize_trajectory,
    variability_stats,
)
from albench.engine import run_active_learning, standardize_features
from albench.errors import ConfigError
from albench.proposers import RandomWalkProposer
from albench.types import ProposerKind, RunConfig

from conftest import make_pool


def trajectory_over(pool, ids):
    """Hand-built trajectory visiting `ids` in order."""
    from albench.types import StepRecord, Trajectory

    steps, best = [], None
    for t, cid in enumerate(ids):
        value = float(pool.targets[cid])
        best = value if best is None or pool.goal.is_improvement(value, best) else best
        steps.append(StepRecord(iteration=t, candidate_id=cid, observed_value=value, running_best=best))
    cfg = RunConfig(ProposerKind.RANDOM_WALK, seed=0)
    return Trajectory(
        run_config_digest=cfg.digest(pool.digest()),
        steps=steps,
        reached_optimum_at=None,
        data_fraction_used=len(ids) / len(pool),
        config=cfg,
        dataset_digest=pool.digest(),
    )


class TestCumulativeL2:
    def test_single_selection(self):
        pool = make_pool([1.0, 5.0])
        cfg = RunConfig(ProposerKind.RANDOM_WALK, seed=0, max_iterations=1)
        traj = run_active_learning(pool, cfg, RandomWalkProposer(0))
        assert cumulative_l2(traj, pool) == [0.0]

    def test_three_four_five(self):
        # standardized hop between the two visited points is exactly (3, 4)
        features = [(0.0, 0.0), (3.0, 4.0), (-3.0, -4.0), (6.0, 8.0)]
        pool = make_pool([0.0, 1.0, 2.0, 3.0], features=features)
        z = standardize_features(pool.feature_matrix, pool.feature_matrix)
        traj = trajectory_over(pool, [0, 1])
        curve = cumulative_l2(traj, pool)
        assert curve[0] == 0.0
        assert curve[1] == pytest.approx(float(np.linalg.norm(z[1] - z[0])))
        # raw-space hop is literally (3, 4) -> 5; verify the pattern pre-standardization
        assert float(np.linalg.norm(np.array(features[1]) - np.array(features[0]))) == 5.0

    def test_matches_pairwise_recomputation(self, rng):
        features = [tuple(map(float, r)) for r in rng.normal(size=(8, 3))]
        pool = make_pool(list(range(8)), features=features)
        cfg = RunConfig(ProposerKind.RANDOM_WALK, seed=4, max_iterations=5)
        traj = run_active_learning(pool, cfg, RandomWalkProposer(4))
        curve = cumulative_l2(traj, pool)
        z = standardize_features(pool.feature_matrix, pool.feature_matrix)
        ids = traj.selected_ids()
        manual = [0.0]
        for a, b in zip(ids, ids[1:]):
            manual.append(manual[-1] + float(np.linalg.norm(z[b] - z[a])))
        assert curve == pytest.approx(manual)

    def test_non_decreasing_from_zero(self, rng):
        features = [tuple(map(float, r)) for r in rng.normal(size=(10, 2))]
        pool = make_pool(list(range(10)), features=features)
        cfg = RunConfig(ProposerKind.RANDOM_WALK, seed=1)
        traj = run_active_learning(pool, cfg, RandomWalkProposer(1))
        curve = cumulative_l2(traj, pool)
        assert curve[0] == 0.0
        assert all(b >= a for a, b in zip(curve, curve[1:]))


class TestPca:
    def test_collinear_data_rank_one(self):
        features = [(float(i), 2.0 * i) for i in range(6)]
        pool = make_pool(list(range(6)), features=features)
        _, _, explained = pca_project(pool, k=2)
        assert explained[1] < 1e-10
        assert explained[0] > 0

    def test_symmetric_cross_equal_eigenvalues(self):
        features = [(1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)]
        pool = make_pool([1, 2, 3, 4], features=features)
        _, _, explained = pca_project(pool, k=2)
        assert explained[0] == pytest.approx(explained[1], abs=1e-12)

    def test_matches_svd_oracle(self, rng):
        features = [tuple(map(float, r)) for r in rng.normal(size=(12, 4))]
        pool = make_pool(list(range(12)), features=features)
        components, projected, explained = pca_project(pool, k=2)
        z = standardize_features(pool.feature_matrix, pool.feature_matrix)
        _, svals, vt = np.linalg.svd(z, full_matrices=False)
        for row_mine, row_svd in zip(components, vt[:2]):
            canon = row_svd if row_svd[np.argmax(np.abs(row_svd))] > 0 else -row_svd
            assert np.allclose(row_mine, canon, atol=1e-8)
        assert np.allclose(explained, (svals[:2] ** 2) / len(pool), atol=1e-8)
        assert np.allclose(projected, z @ components.T, atol=1e-12)

    def test_sign_convention(self, rng):
        features = [tuple(map(float, r)) for r in rng.normal(size=(9, 3))]
        pool = make_pool(list(range(9)), features=features)
        components, _, _ = pca_project(pool, k=3)
        for row in components:
            assert row[np.argmax(np.abs(row))] > 0

    def test_explained_at_most_nondegenerate_dims(self, rng):
        base = rng.normal(size=(10, 2))
        features = [(float(a), float(b), 7.0) for a, b in base]  # constant third dim
        pool = make_pool(list(range(10)), features=features)
        _, _, explained = pca_project(pool, k=2)
        assert explained.sum() <= 2.0 + 1e-9

    def test_row_permutation_invariance(self, rng):
        features = [tuple(map(float, r)) for r in rng.normal(size=(7, 3))]
        pool = make_pool(list(range(7)), features=features)
        perm = list(rng.permutation(7))
        pool_perm = make_pool([float(i) for i in perm], features=[features[i] for i in perm])
        c1, p1, e1 = pca_project(pool, k=2)
        c2, p2, e2 = pca_project(pool_perm, k=2)
        assert np.allclose(c1, c2, atol=1e-10)
        assert np.allclose(e1, e2, atol=1e-10)
        assert np.allclose(p1[perm], p2, atol=1e-10)

    def test_validation(self):
        pool = make_pool([1.0], features=[(0.0,)])
        with pytest.raises(ConfigError):
            pca_project(pool, k=1)
        pool2 = make_pool([1.0, 2.0], features=[(0.0,), (1.0,)])
        with pytest.raises(ConfigError):
            pca_project(pool2, k=2)
        components, projected, explained = pca_project(pool2, k=1)
        assert components.shape == (1, 1)


def summary(proposer="gpr", alpha=1.0, seed=38, its=5, repeat=0):
    """A `summarize_trajectory` row with the columns the variability table reads."""
    return {
        "proposer": proposer,
        "alpha": alpha,
        "seed": seed,
        "repeat_index": repeat,
        "iterations_to_optimum": its,
        "data_fraction": 0.1,
        "final_best": 1.0,
    }


class TestVariabilityStats:
    def test_identical_runs_zero_std(self):
        stats = variability_stats([summary(its=4)] * 5)
        (group,) = stats.values()
        assert group["std"] == 0.0
        assert group["mean"] == 4.0

    def test_mean_and_median(self):
        stats = variability_stats([summary(its=v) for v in (2, 4, 6, 8, 10)])
        (group,) = stats.values()
        assert group["mean"] == 6.0
        assert group["median"] == 6.0
        assert group["min"] == 2.0 and group["max"] == 10.0

    def test_quartiles_match_sorted_list_recomputation(self, rng):
        values = [int(v) for v in rng.integers(1, 60, size=11)]
        stats = variability_stats([summary(its=v) for v in values])
        (group,) = stats.values()

        def manual_quantile(sorted_vals, q):
            pos = (len(sorted_vals) - 1) * q
            lo = int(np.floor(pos))
            frac = pos - lo
            if lo + 1 < len(sorted_vals):
                return sorted_vals[lo] + frac * (sorted_vals[lo + 1] - sorted_vals[lo])
            return sorted_vals[lo]

        s = sorted(values)
        assert group["q1"] == pytest.approx(manual_quantile(s, 0.25))
        assert group["median"] == pytest.approx(manual_quantile(s, 0.50))
        assert group["q3"] == pytest.approx(manual_quantile(s, 0.75))

    def test_grouping(self):
        stats = variability_stats(
            [summary(proposer="gpr", its=2), summary(proposer="rfr", its=8)],
            group_by=("proposer",),
        )
        assert stats[("gpr",)]["mean"] == 2.0
        assert stats[("rfr",)]["mean"] == 8.0

    def test_unfinished_runs_excluded(self):
        finished = summary(its=3)
        unfinished = summary(its=None)
        (group,) = variability_stats([finished, unfinished]).values()
        assert group["count"] == 1.0
        with pytest.raises(ConfigError):
            variability_stats([unfinished])

    def test_export_without_finished_runs_writes_the_header(self, tmp_path):
        export_variability([summary(its=None)], tmp_path / "vr.csv")
        assert (tmp_path / "vr.csv").read_text() == "proposer,alpha,count,mean,std,min,max,q1,median,q3\n"


class TestExports:
    def _records(self, rng):
        features = [tuple(map(float, r)) for r in rng.normal(size=(9, 2))]
        pool = make_pool(list(range(9)), features=features)
        runs = []
        for seed in (1, 2):
            cfg = RunConfig(ProposerKind.RANDOM_WALK, seed=seed)
            runs.append(run_active_learning(pool, cfg, RandomWalkProposer(seed)))
        return pool, runs

    def test_export_families(self, tmp_path, rng):
        pool, runs = self._records(rng)
        export_running_best(runs, tmp_path / "rb.csv")
        export_distance_curves(pool, runs, tmp_path / "dc.csv")
        export_pca(pool, runs, tmp_path / "pc.csv", tmp_path / "pe.csv")
        summaries = [summarize_trajectory(run) for run in runs]
        export_variability(summaries, tmp_path / "vr.csv", group_by=("proposer",))
        export_similarity_scores(runs, tmp_path / "ss.csv")
        for name in ("rb", "dc", "pc", "pe", "vr", "ss"):
            assert (tmp_path / f"{name}.csv").exists()

    def test_one_set_of_run_columns(self, rng):
        _, runs = self._records(rng)
        for run in runs:
            row = summarize_trajectory(run)
            assert list(row) == [*IDENTITY, *OUTCOME]
            assert {k: row[k] for k in IDENTITY} == run_identity(run.config, run.run_config_digest)
            assert row["digest"] == run.run_config_digest[:16]
            assert row["steps"] == len(run.steps)
            assert row["iterations_to_optimum"] == run.reached_optimum_at

    def test_running_best_column_cross_check(self, tmp_path, rng):
        pool, runs = self._records(rng)
        export_running_best(runs, tmp_path / "rb.csv")
        with open(tmp_path / "rb.csv") as fh:
            rows = list(csv.DictReader(fh))
        for run in runs:
            digest = run.run_config_digest[:16]
            got = [float(r["running_best"]) for r in rows if r["digest"] == digest]
            expected = np.maximum.accumulate(run.observed_values())  # make_pool maximizes
            assert got == pytest.approx(expected)
