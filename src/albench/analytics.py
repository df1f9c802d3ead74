"""Trajectory analytics: run-level metrics and plot-ready CSV exports.

Distance and PCA computations standardize features against the FULL pool
(fixed statistics, computed once per pool by `engine.pool_zscores`), so
curves from different proposers share one scale.
"""

from __future__ import annotations

import csv
import re
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .engine import pool_zscores
from .engine import standardize_features  # noqa: F401 -- bench/spans.py traces calls under this name
from .errors import ConfigError
from .types import Dataset, RunConfig, Trajectory


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


# --- run columns ------------------------------------------------------------
#
# One row per run: `summary.csv` and the report CSVs name a run by its
# identity columns, and `summary.csv` and the variability table read its
# outcome columns. `summary_row` builds every `summary.csv` row.

IDENTITY = ("digest", "proposer", "alpha", "seed", "repeat_index", "prompt_format")
OUTCOME = ("steps", "iterations_to_optimum", "data_fraction", "final_best", "mean_match_score")


def run_identity(config: RunConfig, run_config_digest: str) -> dict:
    """The IDENTITY columns of a run; the digest is cut to 16 hex digits."""
    return {
        "digest": run_config_digest[:16],
        "proposer": config.proposer.value,
        "alpha": config.alpha,
        "seed": config.seed,
        "repeat_index": config.repeat_index,
        "prompt_format": config.prompt_format.value,
    }


def summarize_trajectory(trajectory: Trajectory) -> dict:
    """The IDENTITY and OUTCOME columns of a run."""
    return {
        **run_identity(trajectory.config, trajectory.run_config_digest),
        "steps": len(trajectory.steps),
        "iterations_to_optimum": trajectory.reached_optimum_at,
        "data_fraction": trajectory.data_fraction_used,
        "final_best": trajectory.final_best,
        "mean_match_score": trajectory.mean_match_score(),
    }


SUMMARY_FIELDS = (*IDENTITY, "pool_size", *OUTCOME, "status", "error")


def summary_row(
    config: RunConfig, dataset: Dataset, status: str, trajectory: Optional[Trajectory] = None, error: str = ""
) -> dict:
    """The `summary.csv` row of a run, keyed by SUMMARY_FIELDS in order; the
    OUTCOME columns stay empty without a trajectory."""
    if trajectory is None:
        columns = run_identity(config, config.digest(dataset.digest()))
    else:
        columns = summarize_trajectory(trajectory)
    columns.update(pool_size=len(dataset), status=status, error=error)
    return {field: columns.get(field) for field in SUMMARY_FIELDS}


def variability_stats(
    summaries: Sequence[dict], group_by: Sequence[str] = ("proposer",)
) -> dict[tuple, dict[str, float]]:
    """Order statistics of iterations-to-optimum per group of
    `summarize_trajectory` rows.

    Runs that never reached the optimum are excluded; quartiles use
    linear interpolation; std is the population convention.
    """
    finished = [s for s in summaries if s["iterations_to_optimum"] is not None]
    if not finished:
        raise ConfigError("variability_stats: no finished runs")
    groups: dict[tuple, list[int]] = {}
    for s in finished:
        key = tuple(s[field] for field in group_by)
        groups.setdefault(key, []).append(s["iterations_to_optimum"])
    out = {}
    for key, values in groups.items():
        arr = np.array(sorted(values), dtype=float)
        q1, median, q3 = (float(q) for q in np.percentile(arr, [25, 50, 75], method="linear"))
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
# One file per plot family. Every per-run row starts with the IDENTITY
# columns so plotting tools can facet without re-parsing trajectory files.


def write_csv(path, header, rows) -> None:
    """Write a header and then one line per row (a list of cell values)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _write_runs(path, columns, runs: Sequence[Trajectory], rows_of) -> None:
    """Write the header IDENTITY + `columns`, then each run's identity before each row of `rows_of(run)`."""
    rows = []
    for run in runs:
        identity = list(run_identity(run.config, run.run_config_digest).values())
        rows += ([*identity, *row] for row in rows_of(run))
    write_csv(path, [*IDENTITY, *columns], rows)


def export_running_best(runs: Sequence[Trajectory], path) -> None:
    _write_runs(path, ("iteration", "observed_value", "running_best"), runs,
                lambda run: ((s.iteration, s.observed_value, s.running_best) for s in run.steps))


def export_distance_curves(pool: Dataset, runs: Sequence[Trajectory], path) -> None:
    """Each run's `cumulative_l2` curve; every run took its steps on `pool`."""
    _write_runs(path, ("iteration", "cumulative_l2"), runs, lambda run: enumerate(cumulative_l2(run, pool)))


def export_pca(pool: Dataset, runs: Sequence[Trajectory], coords_path, edges_path) -> None:
    """Pool coordinates in PC space plus per-run trajectory edge lists; every
    run took its steps on `pool`. With one feature, pc2 reads 0."""
    k = min(2, pool.feature_matrix.shape[1])
    _, projected, _ = pca_project(pool, k=k)
    points = [point + [0.0] * (2 - k) for point in projected.tolist()]
    coord_rows = [[cid, target, *point] for cid, (target, point) in enumerate(zip(pool.targets.tolist(), points))]
    write_csv(coords_path, ["candidate_id", "target", "pc1", "pc2"], coord_rows)
    _write_runs(edges_path, ("order", "candidate_id", "pc1", "pc2"), runs,
                lambda run: ((order, cid, *points[cid]) for order, cid in enumerate(run.selected_ids())))


VARIABILITY = ("count", "mean", "std", "min", "max", "q1", "median", "q3")


def export_variability(summaries: Sequence[dict], path, group_by=("proposer", "alpha")) -> None:
    """Variability table per group of `summarize_trajectory` rows; only the
    header when no run reached the optimum."""
    finished = any(s["iterations_to_optimum"] is not None for s in summaries)
    stats = variability_stats(summaries, group_by=group_by) if finished else {}
    rows = [
        [*key, *(st[column] for column in VARIABILITY)]
        for key, st in sorted(stats.items(), key=lambda kv: tuple(str(k) for k in kv[0]))
    ]
    write_csv(path, [*group_by, *VARIABILITY], rows)


def export_similarity_scores(runs: Sequence[Trajectory], path) -> None:
    """Per-trajectory mean match score (the similarity boxplot data)."""
    _write_runs(path, ("mean_match_score",), runs,
                lambda run: [] if (score := run.mean_match_score()) is None else [(score,)])


REPORT_FAMILIES = ("running_best", "distance_curves", "pca_coordinates", "pca_trajectories", "variability",
                   "similarity_scores")


def write_reports(out_dir: Path, pools: dict[str, Dataset], runs: Sequence[Trajectory]) -> None:
    """Write the report families of `runs` into `out_dir`, then remove the
    family files there that this export did not write.

    `pools` maps a digest to a pool; each run was built on one of them.
    Runs are grouped by their pool's digest, keeping their order, and each
    group's exports get that pool. Files of one pool carry no suffix; with
    several, each carries its pool's name, with every character outside
    [A-Za-z0-9._-] read as "_", plus the first 8 hex digits of its digest
    when two pools' suffixes are equal. ConfigError when `runs` is empty."""
    if not runs:
        raise ConfigError("no runs to report")
    by_pool: dict[str, list[Trajectory]] = {}
    for run in runs:
        by_pool.setdefault(run.dataset_digest, []).append(run)
    out_dir.mkdir(parents=True, exist_ok=True)
    names = [re.sub(r"[^A-Za-z0-9._-]", "_", pools[digest].name) for digest in by_pool]
    written = set()
    for (digest, group), name in zip(by_pool.items(), names):
        pool = pools[digest]
        suffix = f"_{name}" if len(by_pool) > 1 else ""
        if names.count(name) > 1:
            suffix += f"_{digest[:8]}"
        paths = {family: out_dir / f"{family}{suffix}.csv" for family in REPORT_FAMILIES}
        export_running_best(group, paths["running_best"])
        export_distance_curves(pool, group, paths["distance_curves"])
        export_pca(pool, group, paths["pca_coordinates"], paths["pca_trajectories"])
        export_variability([summarize_trajectory(run) for run in group], paths["variability"])
        export_similarity_scores(group, paths["similarity_scores"])
        written.update(paths.values())
    for path in set(out_dir.glob("*.csv")) - written:
        if any(path.name == f"{family}.csv" or path.name.startswith(f"{family}_") for family in REPORT_FAMILIES):
            path.unlink()
