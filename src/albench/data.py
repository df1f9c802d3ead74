"""Pools: CSV files, the four-benchmark registry, synthetic pools, and
`build_dataset`, the one reader of pool descriptions.

CSV dialect is fixed: comma-separated, one header row, '.' decimal point,
numerics unquoted. Candidate i is the i-th data row in file order.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .errors import ConfigError, CsvParseError, EmptyDatasetError, SchemaError
from .types import Dataset, Goal, read_config


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

    def __post_init__(self):
        if self.expected_rows is not None and self.expected_rows < 1:
            raise ConfigError(f"expected_rows must be >= 1, got {self.expected_rows}")

    @classmethod
    def from_dict(cls, d: dict) -> "DatasetSpec":
        """Read a `dataset` object or a stored spec with `read_config`.

        A null value means the key is absent, and `csv_path` defaults to "".
        {"registry": NAME, ...} starts from that registry entry, and the
        other keys override it.
        """
        if not isinstance(d, dict):
            raise ConfigError(f"'dataset' must be a JSON object, got {d!r}")
        d = _without_nulls(d)
        if "registry" in d:
            d = {**_without_nulls(registry_by_name(d.pop("registry")).to_dict()), **d}
        return read_config(cls, {"csv_path": "", **d}, "dataset")


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
        repeated = sorted({c for c in header if header.count(c) > 1})
        if repeated:
            raise SchemaError(f"{spec.csv_path}: header repeats columns {repeated}")
        if spec.target_column not in header:
            raise SchemaError(f"{spec.csv_path}: target column {spec.target_column!r} not in header {header}")
        if spec.feature_columns:
            missing = [c for c in spec.feature_columns if c not in header]
            if missing:
                raise SchemaError(f"{spec.csv_path}: feature columns {missing} not in header")
            if spec.target_column in spec.feature_columns:
                raise SchemaError(f"{spec.csv_path}: target column {spec.target_column!r} listed as a feature")
            feature_cols = list(spec.feature_columns)
        else:
            feature_cols = [c for c in header if c != spec.target_column]
        col_index = {c: i for i, c in enumerate(header)}

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

        features, targets = [], []
        for row_no, row in enumerate(reader, start=1):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != len(header):
                raise CsvParseError(
                    f"{spec.csv_path}: row {row_no} has {len(row)} cells, header has {len(header)}"
                )
            features.append([cell(row, row_no, c) for c in feature_cols])
            targets.append(cell(row, row_no, spec.target_column))

    if not targets:
        raise EmptyDatasetError(f"{spec.csv_path}: no data rows")
    if spec.expected_rows is not None and len(targets) != spec.expected_rows:
        raise SchemaError(
            f"{spec.csv_path}: expected {spec.expected_rows} rows, found {len(targets)}"
        )
    return Dataset(
        name=spec.name,
        feature_matrix=features,
        targets=targets,
        feature_names=feature_cols,
        target_name=spec.target_column,
        goal=spec.goal,
        context=spec.context,
    )


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
        lattice = np.linspace(-1.0, 1.0, math.ceil(math.sqrt(n)))  # n >= 4: two points a side or more
        spacing = lattice[1] - lattice[0]
        xx, yy = np.meshgrid(lattice, lattice, indexing="ij")
        grid = np.column_stack([xx.ravel(), yy.ravel()])[:n]
        x = grid + rng.uniform(-0.3 * spacing, 0.3 * spacing, size=grid.shape)
        features, names, targets = x, ["x1", "x2"], -(x[:, 0] ** 2 + x[:, 1] ** 2)
        context = "A two-dimensional response surface with a single peak near the origin."
    else:
        base = np.linspace(0.0, 1.0, n)
        gap = base[1] - base[0]
        x = base + rng.uniform(-0.4 * gap, 0.4 * gap, size=n)
        features, names, targets = x[:, None], ["x"], x
        context = "A one-dimensional linear response."
        if kind is SyntheticKind.PLATEAU_MIX:
            # levels 0.0 / 0.5 / 1.0, with the top level on two disjoint
            # x-intervals so the optimal value is attained by several rows.
            targets = np.zeros(n)
            targets[((x >= 0.15) & (x < 0.3)) | ((x >= 0.7) & (x < 0.85))] = 1.0
            targets[(x >= 0.4) & (x < 0.6)] = 0.5
            if not np.any(targets == 1.0):  # tiny n can miss both intervals; pin two rows
                targets[0] = 1.0
                targets[-1] = 1.0
            context = "A stepped response with two equally good plateaus."
    return Dataset(
        name=f"{kind.value}_n{n}_s{seed}",
        feature_matrix=features,
        targets=targets,
        feature_names=names,
        target_name="y",
        goal=Goal.MAXIMIZE,
        context=context,
    )


def build_dataset(description) -> tuple[Dataset, dict]:
    """Build the pool that `description` names: (pool, its header entry).

    The one reader of pool descriptions, for `run`, `sweep`, `report` and
    stored runs. A string reads as the header entry {"source": string}; a
    `dataset` object without "source" is checked by `DatasetSpec.from_dict`
    and reads as the CSV entry {name, goal, "source": "csv", spec}. An entry
    whose source is 'synthetic:<kind>:<n>[:<seed>]', or "csv" with a spec,
    is built; anything else is a ConfigError.
    """
    entry = description
    if isinstance(description, str):
        entry = {"source": description}
    elif isinstance(description, dict) and "source" not in description:
        spec = DatasetSpec.from_dict(description)
        entry = {"name": spec.name, "goal": spec.goal.value, "source": "csv", "spec": spec.to_dict()}
    source = entry.get("source") if isinstance(entry, dict) else None
    if isinstance(source, str) and source.startswith("synthetic:"):
        parts = source.split(":")
        if len(parts) not in (3, 4):
            raise ConfigError(f"bad synthetic dataset string {source!r}; want synthetic:<kind>:<n>[:<seed>]")
        try:
            return synthetic_pool(parts[1], int(parts[2]), int(parts[3] if len(parts) == 4 else "0")), entry
        except ValueError as exc:
            raise ConfigError(f"bad synthetic dataset string {source!r}: {exc}") from None
    if source == "csv" and entry.get("spec"):
        return load_csv(DatasetSpec.from_dict(entry["spec"])), entry
    raise ConfigError(f"cannot build a pool from dataset {description!r}")
