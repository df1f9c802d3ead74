"""Trajectory analytics: run-level metrics and plot-ready CSV exports.

Distance and PCA computations standardize features against the FULL pool
(fixed statistics, computed once per pool by `engine.pool_zscores`), so
curves from different proposers share one scale.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .engine import pool_zscores
from .engine import standardize_features  # noqa: F401 -- bench/spans.py traces calls under this name
from .errors import ConfigError
from .types import Dataset, Goal, Trajectory


def running_best(values: Sequence[float], goal: Goal) -> list[float]:
    """Prefix max for Maximize, prefix min for Minimize."""
    if len(values) == 0:
        raise ConfigError("running_best needs a non-empty sequence")
    arr = np.asarray(values, dtype=float)
    acc = np.maximum.accumulate(arr) if goal is Goal.MAXIMIZE else np.minimum.accumulate(arr)
    return [float(v) for v in acc]


def cumulative_l2(trajectory: Trajectory, pool: Dataset) -> list[float]:
    """Cumulative path length of the selections in standardized feature space.

    Entry t sums the L2 steps between consecutive selections up to t;
    entry 0 is 0. Standardization uses full-pool statistics.
    """
    ids = trajectory.selected_ids()
    if not ids:
        raise ConfigError("cumulative_l2 needs a non-empty trajectory")
    z = pool_zscores(pool)[1][ids]
    hops = np.linalg.norm(np.diff(z, axis=0), axis=1)
    return [0.0] + [float(v) for v in np.cumsum(hops)]


def pca_project(pool: Dataset, k: int = 2):
    """Principal components of the full-pool-standardized features.

    Returns (components, projected, explained_variance): components are
    the top-k eigenvectors of the covariance (rows), sorted by descending
    eigenvalue, with each component's largest-magnitude entry made
    positive; projected is the (n, k) coordinate matrix.
    """
    if len(pool) < 2:
        raise ConfigError("pca_project needs at least 2 candidates")
    n_features = pool.feature_matrix.shape[1]
    if k > n_features:
        raise ConfigError(f"k={k} exceeds feature dimension {n_features}")
    z = pool_zscores(pool)[1]
    cov = (z.T @ z) / z.shape[0]
    eigenvalues, eigenvectors = np.linalg.eigh(cov)
    order = np.argsort(eigenvalues)[::-1][:k]
    components = eigenvectors[:, order].T.copy()
    for row in components:
        if row[np.argmax(np.abs(row))] < 0:
            row *= -1.0
    projected = z @ components.T
    explained = np.maximum(eigenvalues[order], 0.0)
    return components, projected, explained


@dataclass
class RunSummary:
    """Per-run scalars feeding the variability and efficiency summaries."""

    proposer: str
    alpha: float
    seed: int
    repeat_index: int
    iterations_to_optimum: Optional[int]
    data_fraction: float
    final_best: float
    cumulative_distance: list[float]
    mean_match_score: Optional[float] = None
    prompt_format: str = "parameter"


def summarize_trajectory(trajectory: Trajectory, pool: Dataset) -> RunSummary:
    config = trajectory.config
    return RunSummary(
        proposer=config.proposer.value,
        alpha=config.alpha,
        seed=config.seed,
        repeat_index=config.repeat_index,
        iterations_to_optimum=trajectory.reached_optimum_at,
        data_fraction=trajectory.data_fraction_used,
        final_best=trajectory.final_best,
        cumulative_distance=cumulative_l2(trajectory, pool),
        mean_match_score=trajectory.mean_match_score(),
        prompt_format=config.prompt_format.value,
    )


def _quartiles(sorted_values: np.ndarray) -> tuple[float, float, float]:
    return tuple(
        float(np.percentile(sorted_values, q, method="linear")) for q in (25, 50, 75)
    )


def variability_stats(
    summaries: Sequence[RunSummary], group_by: Sequence[str] = ("proposer",)
) -> dict[tuple, dict[str, float]]:
    """Order statistics of iterations-to-optimum per group.

    Runs that never reached the optimum are excluded; quartiles use
    linear interpolation; std is the population convention.
    """
    finished = [s for s in summaries if s.iterations_to_optimum is not None]
    if not finished:
        raise ConfigError("variability_stats: no finished runs")
    groups: dict[tuple, list[int]] = {}
    for s in finished:
        key = tuple(getattr(s, field) for field in group_by)
        groups.setdefault(key, []).append(s.iterations_to_optimum)
    out = {}
    for key, values in groups.items():
        arr = np.array(sorted(values), dtype=float)
        q1, median, q3 = _quartiles(arr)
        out[key] = {
            "count": float(len(arr)),
            "mean": float(arr.mean()),
            "std": float(arr.std()),
            "min": float(arr.min()),
            "max": float(arr.max()),
            "q1": q1,
            "median": median,
            "q3": q3,
        }
    return out


# --- plot-ready CSV exports ---------------------------------------------
#
# One file per plot family. Every row carries the run identity columns
# so plotting tools can facet without re-parsing trajectory files.

_IDENTITY = ("digest", "proposer", "alpha", "seed", "repeat_index", "prompt_format")


@dataclass
class RunRecord:
    """A loaded trajectory paired with its pool, ready for export."""

    trajectory: Trajectory
    pool: Dataset

    @property
    def identity(self) -> dict:
        c = self.trajectory.config
        return {
            "digest": self.trajectory.run_config_digest[:16],
            "proposer": c.proposer.value,
            "alpha": c.alpha,
            "seed": c.seed,
            "repeat_index": c.repeat_index,
            "prompt_format": c.prompt_format.value,
        }


def _write_csv(path, fieldnames, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames)
        writer.writeheader()
        writer.writerows(rows)


def export_running_best(records: Sequence[RunRecord], path) -> None:
    rows = []
    for rec in records:
        for step in rec.trajectory.steps:
            rows.append(
                {
                    **rec.identity,
                    "iteration": step.iteration,
                    "observed_value": step.observed_value,
                    "running_best": step.running_best,
                }
            )
    _write_csv(path, list(_IDENTITY) + ["iteration", "observed_value", "running_best"], rows)


def export_distance_curves(records: Sequence[RunRecord], path) -> None:
    rows = []
    for rec in records:
        for i, dist in enumerate(cumulative_l2(rec.trajectory, rec.pool)):
            rows.append({**rec.identity, "iteration": i, "cumulative_l2": dist})
    _write_csv(path, list(_IDENTITY) + ["iteration", "cumulative_l2"], rows)


def export_pca(records: Sequence[RunRecord], coords_path, edges_path) -> None:
    """Pool coordinates in PC space plus per-run trajectory edge lists."""
    if not records:
        raise ConfigError("export_pca needs at least one run")
    pool = records[0].pool
    k = min(2, pool.feature_matrix.shape[1])
    _, projected, explained = pca_project(pool, k=k)
    coord_rows = []
    for cand, point in zip(pool.candidates, projected):
        row = {"candidate_id": cand.id, "target": cand.target}
        for j in range(k):
            row[f"pc{j + 1}"] = float(point[j])
        if k == 1:
            row["pc2"] = 0.0
        coord_rows.append(row)
    _write_csv(coords_path, ["candidate_id", "target", "pc1", "pc2"], coord_rows)

    edge_rows = []
    for rec in records:
        ids = rec.trajectory.selected_ids()
        for order, cid in enumerate(ids):
            point = projected[cid]
            edge_rows.append(
                {
                    **rec.identity,
                    "order": order,
                    "candidate_id": cid,
                    "pc1": float(point[0]),
                    "pc2": float(point[1]) if k > 1 else 0.0,
                }
            )
    _write_csv(edges_path, list(_IDENTITY) + ["order", "candidate_id", "pc1", "pc2"], edge_rows)


def export_variability(summaries: Sequence[RunSummary], path, group_by=("proposer", "alpha")) -> None:
    stats = variability_stats(summaries, group_by=group_by)
    rows = []
    for key, st in sorted(stats.items(), key=lambda kv: tuple(str(k) for k in kv[0])):
        row = {field: value for field, value in zip(group_by, key)}
        row.update(st)
        rows.append(row)
    _write_csv(path, list(group_by) + ["count", "mean", "std", "min", "max", "q1", "median", "q3"], rows)


def export_similarity_scores(records: Sequence[RunRecord], path) -> None:
    """Per-trajectory mean match score (the similarity boxplot data)."""
    rows = []
    for rec in records:
        score = rec.trajectory.mean_match_score()
        if score is None:
            continue
        rows.append({**rec.identity, "mean_match_score": score})
    _write_csv(path, list(_IDENTITY) + ["mean_match_score"], rows)
