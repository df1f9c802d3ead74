"""Pool loading: CSV files, the four-benchmark registry, synthetic pools.

CSV dialect is fixed: comma-separated, one header row, '.' decimal point,
numerics unquoted. Candidate ids are assigned 0..n-1 in file order.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, fields
from enum import Enum
from typing import Optional

import numpy as np

from .errors import ConfigError, CsvParseError, EmptyDatasetError, SchemaError
from .types import Candidate, Dataset, Goal, is_int


def _without_nulls(d: dict) -> dict:
    return {k: v for k, v in d.items() if v is not None}


@dataclass(frozen=True)
class DatasetSpec:
    """Where a pool lives and how to read it."""

    name: str
    csv_path: str
    target_column: str
    goal: Goal
    feature_columns: Optional[tuple[str, ...]] = None  # default: all non-target columns
    context: str = ""
    expected_rows: Optional[int] = None

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "csv_path": self.csv_path,
            "target_column": self.target_column,
            "goal": self.goal.value,
            "feature_columns": list(self.feature_columns) if self.feature_columns else None,
            "context": self.context,
            "expected_rows": self.expected_rows,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "DatasetSpec":
        """Read a `dataset` object or a stored spec, checking every value.

        A null value means the key is absent. {"registry": NAME, ...} starts
        from that registry entry, and the other keys override it. ConfigError
        names an unknown or missing key or a value of the wrong type.
        """
        if not isinstance(d, dict):
            raise ConfigError(f"a dataset must be an object, got {d!r}")
        d = _without_nulls(d)
        if "registry" in d:
            d = {**_without_nulls(registry_by_name(d.pop("registry")).to_dict()), **d}
        known = [f.name for f in fields(cls)]
        unknown = sorted(set(d) - set(known))
        if unknown:
            raise ConfigError(f"unknown dataset keys {unknown}; known: {['registry', *known]}")
        for key in ("name", "target_column", "goal"):
            if key not in d:
                raise ConfigError(f"'dataset.{key}' is required")
        for key in ("name", "csv_path", "target_column", "context"):
            if not isinstance(d.get(key, ""), str):
                raise ConfigError(f"'dataset.{key}' must be a string, got {d[key]!r}")
        goals = [g.value for g in Goal]
        if d["goal"] not in goals:
            raise ConfigError(f"'dataset.goal' must be one of {goals}, got {d['goal']!r}")
        cols = d.get("feature_columns")
        if cols is not None and not (isinstance(cols, (list, tuple)) and all(isinstance(c, str) for c in cols)):
            raise ConfigError(f"'dataset.feature_columns' must be a list of column names, got {cols!r}")
        rows = d.get("expected_rows")
        if rows is not None and not is_int(rows, 1):
            raise ConfigError(f"'dataset.expected_rows' must be an integer >= 1, got {rows!r}")
        return cls(
            name=d["name"],
            csv_path=d.get("csv_path", ""),
            target_column=d["target_column"],
            goal=Goal(d["goal"]),
            feature_columns=tuple(cols) if cols else None,
            context=d.get("context", ""),
            expected_rows=rows,
        )


def load_csv(spec: DatasetSpec) -> Dataset:
    """Read a pool from disk per its spec.

    Every feature and target cell must parse as a finite real; errors name
    the offending row and column.
    """
    if not spec.csv_path:
        raise ConfigError(f"dataset {spec.name!r} has no 'csv_path'")
    with open(spec.csv_path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise EmptyDatasetError(f"{spec.csv_path}: file is empty") from None
        header = [h.strip() for h in header]
        if spec.target_column not in header:
            raise SchemaError(f"{spec.csv_path}: target column {spec.target_column!r} not in header {header}")
        if spec.feature_columns is not None:
            missing = [c for c in spec.feature_columns if c not in header]
            if missing:
                raise SchemaError(f"{spec.csv_path}: feature columns {missing} not in header")
            if spec.target_column in spec.feature_columns:
                raise SchemaError(f"{spec.csv_path}: target column {spec.target_column!r} listed as a feature")
            feature_cols = list(spec.feature_columns)
        else:
            feature_cols = [c for c in header if c != spec.target_column]
        col_index = {c: header.index(c) for c in header}

        def cell(row, row_no, column) -> float:
            raw = row[col_index[column]]
            try:
                value = float(raw)
            except ValueError:
                raise CsvParseError(
                    f"{spec.csv_path}: row {row_no}, column {column!r}: {raw!r} is not numeric"
                ) from None
            if not math.isfinite(value):
                raise CsvParseError(f"{spec.csv_path}: row {row_no}, column {column!r}: non-finite value")
            return value

        candidates = []
        for row_no, row in enumerate(reader, start=1):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != len(header):
                raise CsvParseError(
                    f"{spec.csv_path}: row {row_no} has {len(row)} cells, header has {len(header)}"
                )
            features = tuple(cell(row, row_no, c) for c in feature_cols)
            target = cell(row, row_no, spec.target_column)
            candidates.append(Candidate(id=len(candidates), features=features, target=target))

    if not candidates:
        raise EmptyDatasetError(f"{spec.csv_path}: no data rows")
    if spec.expected_rows is not None and len(candidates) != spec.expected_rows:
        raise SchemaError(
            f"{spec.csv_path}: expected {spec.expected_rows} rows, found {len(candidates)}"
        )
    return Dataset(
        name=spec.name,
        candidates=candidates,
        feature_names=feature_cols,
        target_name=spec.target_column,
        goal=spec.goal,
        context=spec.context,
    )


def save_csv(dataset: Dataset, path) -> None:
    """Write a pool back out; float cells use repr so reloads round-trip."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(dataset.feature_names) + [dataset.target_name])
        for cand in dataset.candidates:
            writer.writerow([repr(v) for v in cand.features] + [repr(cand.target)])


def registry() -> list[DatasetSpec]:
    """The four benchmark pools, csv_path left to user configuration.

    Column names are placeholders; supply feature_columns / target_column
    matching your CSV export when loading (dataclasses.replace works).
    """
    return [
        DatasetSpec(
            name="matbench_steels",
            csv_path="",
            target_column="yield_strength",
            goal=Goal.MAXIMIZE,
            context=(
                "Steel alloys described by their elemental composition. The goal is to "
                "find the alloy composition with the highest yield strength."
            ),
            expected_rows=312,
        ),
        DatasetSpec(
            name="p3ht_cnt",
            csv_path="",
            target_column="electrical_conductivity",
            goal=Goal.MAXIMIZE,
            context=(
                "Polymer nanocomposite thin films of poly(3-hexylthiophene) blended with "
                "carbon nanotubes and additives. The goal is to find the formulation with "
                "the highest electrical conductivity."
            ),
            expected_rows=323,
        ),
        DatasetSpec(
            name="perovskite",
            csv_path="",
            target_column="instability_index",
            goal=Goal.MINIMIZE,
            context=(
                "Mixed-cation halide perovskite compositions stressed under heat, humidity, "
                "and illumination. The goal is to find the composition with the lowest "
                "instability index."
            ),
            expected_rows=139,
        ),
        DatasetSpec(
            name="membrane",
            csv_path="",
            target_column="elastic_modulus",
            goal=Goal.MAXIMIZE,
            context=(
                "Porous polymeric membranes fabricated by non-solvent induced phase "
                "separation under varying polymer concentrations and processing "
                "conditions. The goal is to find the processing recipe with the highest "
                "elastic modulus."
            ),
            expected_rows=73,
        ),
    ]


def registry_by_name(name: str) -> DatasetSpec:
    for spec in registry():
        if spec.name == name:
            return spec
    raise ConfigError(f"unknown registry dataset {name!r}")


class SyntheticKind(str, Enum):
    QUADRATIC2D = "quadratic2d"
    PLATEAU_MIX = "plateau_mix"
    LINEAR1D = "linear1d"


def synthetic_pool(kind: SyntheticKind | str, n: int, seed: int) -> Dataset:
    """Deterministic pool with an analytically known optimum.

    quadratic2d: y = -(x1^2 + x2^2) on a jittered grid centered at the
    origin, so the unique maximum sits at the candidate nearest the center.
    linear1d: y = x on jittered evenly spaced points. plateau_mix:
    piecewise-constant target with two maximal plateaus, for tie handling.
    """
    kind = SyntheticKind(kind)
    if n < 4:
        raise ConfigError(f"synthetic pools need n >= 4, got {n}")
    rng = np.random.default_rng(seed)

    if kind is SyntheticKind.QUADRATIC2D:
        side = math.ceil(math.sqrt(n))
        lattice = np.linspace(-1.0, 1.0, side)
        spacing = lattice[1] - lattice[0] if side > 1 else 1.0
        xx, yy = np.meshgrid(lattice, lattice, indexing="ij")
        points = np.column_stack([xx.ravel(), yy.ravel()])[:n]
        points = points + rng.uniform(-0.3 * spacing, 0.3 * spacing, size=points.shape)
        targets = -(points[:, 0] ** 2 + points[:, 1] ** 2)
        candidates = [
            Candidate(id=i, features=(float(p[0]), float(p[1])), target=float(t))
            for i, (p, t) in enumerate(zip(points, targets))
        ]
        return Dataset(
            name=f"quadratic2d_n{n}_s{seed}",
            candidates=candidates,
            feature_names=["x1", "x2"],
            target_name="y",
            goal=Goal.MAXIMIZE,
            context="A two-dimensional response surface with a single peak near the origin.",
        )

    if kind is SyntheticKind.LINEAR1D:
        base = np.linspace(0.0, 1.0, n)
        gap = base[1] - base[0]
        x = base + rng.uniform(-0.4 * gap, 0.4 * gap, size=n)
        candidates = [
            Candidate(id=i, features=(float(v),), target=float(v)) for i, v in enumerate(x)
        ]
        return Dataset(
            name=f"linear1d_n{n}_s{seed}",
            candidates=candidates,
            feature_names=["x"],
            target_name="y",
            goal=Goal.MAXIMIZE,
            context="A one-dimensional linear response.",
        )

    # plateau_mix: levels 0.0 / 0.5 / 1.0, with the top level on two
    # disjoint x-intervals so the optimal value is attained by several rows.
    base = np.linspace(0.0, 1.0, n)
    gap = base[1] - base[0]
    x = base + rng.uniform(-0.4 * gap, 0.4 * gap, size=n)
    targets = np.zeros(n)
    targets[((x >= 0.15) & (x < 0.3)) | ((x >= 0.7) & (x < 0.85))] = 1.0
    targets[(x >= 0.4) & (x < 0.6)] = 0.5
    if not np.any(targets == 1.0):  # tiny n can miss both intervals; pin two rows
        targets[0] = 1.0
        targets[-1] = 1.0
    candidates = [
        Candidate(id=i, features=(float(v),), target=float(t))
        for i, (v, t) in enumerate(zip(x, targets))
    ]
    return Dataset(
        name=f"plateau_mix_n{n}_s{seed}",
        candidates=candidates,
        feature_names=["x"],
        target_name="y",
        goal=Goal.MAXIMIZE,
        context="A stepped response with two equally good plateaus.",
    )


def parse_synthetic_string(text: str) -> Dataset:
    """Parse 'synthetic:<kind>:<n>[:<seed>]' into a pool."""
    parts = text.split(":")
    if len(parts) not in (3, 4) or parts[0] != "synthetic":
        raise ConfigError(f"bad synthetic dataset string {text!r}; want synthetic:<kind>:<n>[:<seed>]")
    kind, n = parts[1], parts[2]
    seed = parts[3] if len(parts) == 4 else "0"
    try:
        return synthetic_pool(kind, int(n), int(seed))
    except ValueError as exc:
        raise ConfigError(f"bad synthetic dataset string {text!r}: {exc}") from None


def dataset_header_entry(dataset: Dataset, source: str | DatasetSpec) -> dict:
    """Header-embeddable description of where a pool came from.

    `source` is either a 'synthetic:...' string or the DatasetSpec the pool
    was loaded with; both carry enough to rebuild the pool for reporting.
    """
    entry = {"name": dataset.name, "goal": dataset.goal.value}
    if isinstance(source, DatasetSpec):
        entry["source"] = "csv"
        entry["spec"] = source.to_dict()
    else:
        entry["source"] = source
    return entry


def dataset_from_header_entry(entry: dict) -> Dataset:
    """Rebuild the pool a trajectory ran on, from its header entry."""
    if not isinstance(entry, dict):
        raise ConfigError(f"cannot rebuild dataset from header entry {entry!r}")
    source = entry.get("source", "")
    if isinstance(source, str) and source.startswith("synthetic:"):
        return parse_synthetic_string(source)
    if source == "csv" and entry.get("spec"):
        return load_csv(DatasetSpec.from_dict(entry["spec"]))
    raise ConfigError(f"cannot rebuild dataset from header entry {entry!r}")
