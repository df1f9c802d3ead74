"""Seeded workload generator: pool CSVs and LLM replay fixtures.

Everything albench sees during a benchmark run comes from here, as files
on disk; the same seed always gives byte-identical files. Pools are shaped
after the entries of ``albench.data.registry()`` (rows, feature count,
goal) with rugged targets, so active-learning runs do not end in a few
steps. This module needs only numpy, so it can run before albench is
importable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class PoolShape:
    """One generated pool: the registry entry it mimics and its size."""

    name: str
    rows: int
    features: int
    target: str
    goal: str
    context: str


# Shapes follow data.registry(); "sweep_pool" is the larger pool of the
# sweep-report workload, which has no registry counterpart.
SHAPES = {
    "matbench_steels": PoolShape(
        "matbench_steels", 312, 14, "yield_strength", "maximize",
        "Steel alloys described by their elemental composition. The goal is to "
        "find the alloy composition with the highest yield strength.",
    ),
    "perovskite": PoolShape(
        "perovskite", 139, 3, "instability_index", "minimize",
        "Mixed-cation halide perovskite compositions stressed under heat, humidity, "
        "and illumination. The goal is to find the composition with the lowest "
        "instability index.",
    ),
    "p3ht_cnt": PoolShape(
        "p3ht_cnt", 323, 5, "electrical_conductivity", "maximize",
        "Polymer nanocomposite thin films of poly(3-hexylthiophene) blended with "
        "carbon nanotubes and additives. The goal is to find the formulation with "
        "the highest electrical conductivity.",
    ),
    "sweep_pool": PoolShape(
        "sweep_pool", 2000, 6, "response", "maximize",
        "A six-parameter synthesis recipe screened at scale. The goal is to find "
        "the recipe with the highest response.",
    ),
}


def _stream(seed: int, label: str) -> np.random.Generator:
    """Independent generator per (seed, artifact), so adding one artifact
    never shifts the bytes of another."""
    key = [int(b) for b in label.encode()]
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def pool_rows(
    shape: PoolShape, seed: int, avoid: tuple[int, ...] = ()
) -> tuple[list[str], np.ndarray, np.ndarray]:
    """Feature names, feature matrix and rugged targets for one pool.

    Features mix continuous columns with a few coarse, discrete ones (as
    composition tables have), on different scales. The target is a smooth
    trend plus several high-frequency ridges along random directions plus
    noise, so the surface has many local optima.

    The pool optimum is a needle: a central row from the worst quartile,
    lifted just past the best value. Surrogates do not predict it, so runs
    nearly always last until their iteration cap, and the work per pass
    hardly depends on the seed. Rows in `avoid` (the runs' seeded initial
    draws) never hold it, so no run can start on the optimum.
    """
    rng = _stream(seed, shape.name)
    n, d = shape.rows, shape.features
    names = [f"x{j + 1}" for j in range(d)]
    unit = rng.uniform(0.0, 1.0, size=(n, d))
    discrete = rng.permutation(d)[: max(1, round(0.3 * d))]
    levels = rng.integers(3, 9, size=len(discrete))
    unit[:, discrete] = np.round(unit[:, discrete] * levels) / levels
    scales = 10.0 ** rng.uniform(-1.0, 2.0, size=d)
    X = np.round(unit * scales, 4)

    # Only directions, phases and the trend's center vary with the seed;
    # amplitudes and frequencies are fixed, so every seed gives a surface
    # of the same difficulty and the surrogates do the same amount of work.
    z = (unit - 0.5) * 2.0
    center = rng.uniform(-0.5, 0.5, size=d)
    trend = -np.sum((z - center) ** 2, axis=1) / d
    ridges = np.zeros(n)
    for freq in (3.0, 4.0, 5.0, 6.0):
        direction = rng.normal(size=d)
        direction /= np.linalg.norm(direction)
        ridges += 0.3 * np.sin(freq * (z @ direction) + rng.uniform(0.0, 2 * np.pi))
    y = trend + ridges + rng.normal(0.0, 0.03, size=n)
    y = np.round(100.0 + 25.0 * y, 4)

    sign = 1.0 if shape.goal == "maximize" else -1.0
    score = sign * y
    eligible = score <= np.quantile(score, 0.25)
    eligible[list(avoid)] = False
    if not eligible.any():
        raise ValueError(f"{shape.name}: every low-scoring row is in an initial draw")
    distance = np.where(eligible, np.linalg.norm(z, axis=1), np.inf)
    needle = int(np.argmin(distance))
    y[needle] = sign * (score.max() + 5.0)
    return names, X, y


def write_pool(shape: PoolShape, seed: int, path: Path, avoid: tuple[int, ...] = ()) -> None:
    names, X, y = pool_rows(shape, seed, avoid)
    lines = [",".join(names + [shape.target])]
    for row, target in zip(X, y):
        lines.append(",".join([_fmt(v) for v in row] + [_fmt(target)]))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def dataset_spec(shape: PoolShape, path: Path) -> dict:
    """The albench DatasetSpec dict that loads a generated pool."""
    return {
        "name": shape.name,
        "csv_path": str(path),
        "target_column": shape.target,
        "goal": shape.goal,
        "context": shape.context,
        "expected_rows": shape.rows,
    }


def _reply(rng: np.random.Generator, names: list[str], lo: np.ndarray, hi: np.ndarray) -> str:
    """One varied chat reply: mostly well-formed fenced blocks, some with a
    feature left out (filled from the observed mean), some with `=` pairs
    or prose around the block, and some with no block at all (which makes
    the proposer re-prompt)."""
    values = rng.uniform(lo, hi)
    kind = rng.choice(5, p=[0.55, 0.15, 0.12, 0.1, 0.08])
    if kind == 4:
        return "I would explore a region with higher values of the first parameters."
    sep = "=" if kind == 2 else ":"
    keep = np.ones(len(names), dtype=bool)
    if kind == 1:
        keep[rng.integers(len(names))] = False
    body = "\n".join(f"{name}{sep} {_fmt(v)}" for name, v, k in zip(names, values, keep) if k)
    text = f"```\n{body}\n```"
    if kind == 3:
        text = "Based on the trend so far, the next experiment should be:\n\n" + text
    return text


def write_fixtures(shape: PoolShape, seed: int, count: int, path: Path) -> None:
    """Replay fixtures (request_digest null) with proposals inside the pool's range."""
    names, X, _ = pool_rows(shape, seed)
    rng = _stream(seed, "fixtures")
    lo, hi = X.min(axis=0), X.max(axis=0)
    lines = [
        json.dumps({"request_digest": None, "response_text": _reply(rng, names, lo, hi)}, sort_keys=True)
        for _ in range(count)
    ]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def initial_ids(rows: int, run_seed: int, n_initial: int) -> list[int]:
    """The seeded initial draw documented in albench.engine.select_initial."""
    return [int(i) for i in np.random.default_rng(run_seed).choice(rows, size=n_initial, replace=False)]


def generate(seed: int, out_dir: Path, pools: dict, fixture_count: int = 0) -> dict:
    """Write the named pools (and fixtures, if asked) into out_dir.

    `pools` maps a pool name to the (run seed, n_initial) pairs of the runs
    that will use it. A name "<shape>.<k>" is another pool of that shape,
    with its own data. Returns {pool name: DatasetSpec dict}, plus
    "fixtures": path when fixtures were written.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    specs: dict = {}
    for name, starts in pools.items():
        shape = replace(SHAPES[name.split(".")[0]], name=name)
        avoid = tuple(sorted({i for s, n0 in starts for i in initial_ids(shape.rows, s, n0)}))
        path = out_dir / f"{name}.csv"
        write_pool(shape, seed, path, avoid)
        specs[name] = dataset_spec(shape, path)
    if fixture_count:
        path = out_dir / "replay.jsonl"
        write_fixtures(SHAPES["sweep_pool"], seed, fixture_count, path)
        specs["fixtures"] = str(path)
    return specs
