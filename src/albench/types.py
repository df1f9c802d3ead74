"""Core domain types: datasets, run configs, run records.

A Dataset is an immutable, fully labeled pool. "Running an experiment"
means looking up a candidate's stored target value, so stopping tests use
exact equality on stored values.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import sys
import typing
from dataclasses import MISSING, dataclass, field, fields
from enum import Enum
from typing import Optional

import numpy as np

from .errors import ConfigError, FitError, InputError, ShapeError


def is_int(value, low: int) -> bool:
    """An integer >= low; bool is an int subclass, and JSON true/false is no count."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= low


def is_real(value, low: float) -> bool:
    """A number >= low that is finite as a float (so no 400-digit integer);
    JSON true/false is no number either."""
    real = isinstance(value, (int, float)) and not isinstance(value, bool)
    return real and abs(value) <= sys.float_info.max and value >= low


def check_keys(d, name: str, known) -> dict:
    """`d` if it is a JSON object whose keys are all in `known` (null reads
    as {}), else ConfigError naming `name` and any unknown keys."""
    if d is None:
        return {}
    if not isinstance(d, dict):
        raise ConfigError(f"'{name}' must be a JSON object, got {d!r}")
    unknown = sorted(set(d) - set(known))
    if unknown:
        raise ConfigError(f"unknown keys {unknown} in '{name}'; known: {sorted(known)}")
    return d


@functools.cache
def _field_types(cls) -> tuple[dict, list]:
    """({field: declared type}, [fields without a default]), once per class."""
    return typing.get_type_hints(cls), [f.name for f in fields(cls) if f.default is MISSING]


def _checked(value, tp, name: str):
    """`value` as a value of the field type `tp`, else ConfigError naming `name`."""
    if typing.get_origin(tp) is typing.Union:  # Optional[X]
        if value is None:
            return None
        tp = typing.get_args(tp)[0]
    if typing.get_origin(tp) is tuple:  # tuple[X, ...], from a JSON list
        if not isinstance(value, list):
            raise ConfigError(f"'{name}' must be a list, got {value!r}")
        return tuple(_checked(v, typing.get_args(tp)[0], name) for v in value)
    if tp is bool:
        ok, want = isinstance(value, bool), "true or false"
    elif tp is int:
        ok, want = is_int(value, -math.inf), "an integer"
    elif tp is float:
        ok, want = is_real(value, -math.inf), "a finite number"
    elif tp is str:
        ok, want = isinstance(value, str), "a string"
    else:  # an Enum
        names = [m.value for m in tp]
        ok, want = value in names, f"one of {names}"
    if not ok:
        raise ConfigError(f"'{name}' must be {want}, got {value!r}")
    return tp(value)


def read_config(cls, d, name: str):
    """Build the dataclass `cls` from the JSON object `d`, named `name` in errors.

    The one reader of config values. ConfigError names the key for a key
    that is not a field of `cls`, a missing required field, or a value
    without its field's declared type: bool, int (not bool), float (finite,
    stored as float), str, an Enum value, Optional of one of these, or
    tuple[X, ...] from a list. Then `cls.__post_init__` checks ranges.
    """
    types, required = _field_types(cls)
    d = check_keys(d, name, types)
    for key in required:
        if key not in d:
            raise ConfigError(f"'{name}.{key}' is required")
    values = {key: _checked(value, types[key], f"{name}.{key}") for key, value in d.items()}
    try:
        return cls(**values)
    except ConfigError as exc:
        raise ConfigError(f"bad '{name}': {exc}") from exc


def _fields_dict(instance) -> dict:
    """A dataclass instance's fields as a new dict, with enum members written
    as their values. Unlike `dataclasses.asdict`, it copies no value."""
    return {key: value.value if isinstance(value, Enum) else value for key, value in vars(instance).items()}


def as_matrix(X) -> np.ndarray:
    """2-D float view; a 1-D input is n samples of one feature."""
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    return X


def training_set(X, y) -> tuple[np.ndarray, np.ndarray]:
    """A surrogate's training inputs `(as_matrix(X), float y)`: FitError
    without a row, ShapeError unless y is one value per row of X, InputError
    for a NaN feature or a non-finite target. Features may be infinite."""
    X, y = as_matrix(X), np.asarray(y, dtype=float)
    if len(X) == 0:
        raise FitError("empty training set")
    if y.shape != (len(X),):
        raise ShapeError(f"{len(X)} training rows need {len(X)} targets, got y of shape {y.shape}")
    if np.isnan(X).any() or not np.isfinite(y).all():
        raise InputError("training features contain NaN or targets are not all finite")
    return X, y


def query_matrix(X, n_features: int) -> np.ndarray:
    """A surrogate's query rows `as_matrix(X)`: ShapeError unless each has
    the model's `n_features` columns, InputError for a NaN feature."""
    X = as_matrix(X)
    if X.shape[1] != n_features:
        raise ShapeError(f"query has {X.shape[1]} features, model expects {n_features}")
    if np.isnan(X).any():
        raise InputError("query features contain NaN")
    return X


class Goal(str, Enum):
    """Direction of the optimization target."""

    MAXIMIZE = "maximize"
    MINIMIZE = "minimize"

    def is_improvement(self, new: float, incumbent: float) -> bool:
        if self is Goal.MAXIMIZE:
            return new > incumbent
        return new < incumbent

    def best(self, values) -> float:
        arr = np.asarray(values, dtype=float)
        return float(arr.max() if self is Goal.MAXIMIZE else arr.min())


class ProposerKind(str, Enum):
    GPR = "gpr"
    RFR = "rfr"
    GBT = "gbt"
    BNN = "bnn"
    RANDOM_WALK = "random_walk"
    LLM = "llm"


class PromptFormat(str, Enum):
    PARAMETER = "parameter"
    REPORT = "report"


@dataclass(frozen=True, eq=False)
class Dataset:
    """A fixed labeled pool plus the metadata prompts and analytics need.

    Candidate i is row i of `feature_matrix` (raw features, in dataset
    units) and entry i of `targets`. Both are read-only float64 copies of
    what the caller passed; the pool needs a row, one column per feature
    name, and finite values, else ConfigError. Two pools are equal when
    their digests and contexts are.

    A Dataset is immutable once built: its fields cannot be reassigned, and
    callers must not mutate `feature_names` in place. Values that depend
    only on the pool (the digest, the full-pool z-scores of
    `engine.pool_zscores` and their column-major copy) are computed on
    first use and cached on the instance. Derive a changed pool with
    `dataclasses.replace`, which starts from empty caches.
    """

    name: str
    feature_matrix: np.ndarray
    targets: np.ndarray
    feature_names: list[str]
    target_name: str
    goal: Goal
    context: str = ""

    _digest: Optional[str] = field(default=None, init=False, repr=False)
    _pool_z: Optional[tuple] = field(default=None, init=False, repr=False)

    def __post_init__(self):
        matrix = np.array(self.feature_matrix, dtype=np.float64)
        targets = np.array(self.targets, dtype=np.float64)
        if targets.size == 0:
            raise ConfigError(f"dataset {self.name!r} has no candidates")
        n_features = len(self.feature_names)
        if targets.ndim != 1 or matrix.shape != (targets.size, n_features):
            raise ConfigError(
                f"dataset {self.name!r}: {targets.size} targets need a ({targets.size}, {n_features}) "
                f"feature matrix, got shape {matrix.shape}"
            )
        for what, finite in (("target", np.isfinite(targets)), ("feature", np.isfinite(matrix).all(axis=1))):
            if not finite.all():
                raise ConfigError(f"dataset {self.name!r}: candidate {int(np.argmin(finite))} has a non-finite {what}")
        for key, arr in (("feature_matrix", matrix), ("targets", targets)):
            arr.flags.writeable = False
            object.__setattr__(self, key, arr)

    def __setstate__(self, state: dict) -> None:
        """Unpickling: the arrays arrive writable, so make them read-only
        again. The cached digest is kept; the z-scores are recomputed on
        first use."""
        self.__dict__.update(state, _pool_z=None)
        for arr in (self.feature_matrix, self.targets):
            arr.flags.writeable = False

    def __eq__(self, other) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        return (self.digest(), self.context) == (other.digest(), other.context)

    def __len__(self) -> int:
        return len(self.targets)

    @property
    def optimum_value(self) -> float:
        """Pool-wide best target under the dataset's goal."""
        return self.goal.best(self.targets)

    def digest(self) -> str:
        """Content hash used to tie trajectory files to the pool they ran on,
        computed on the first call."""
        if self._digest is None:
            rows = zip(self.feature_matrix.tolist(), self.targets.tolist())
            payload = {
                "name": self.name,
                "feature_names": list(self.feature_names),
                "target_name": self.target_name,
                "goal": self.goal.value,
                "rows": [[i, [repr(v) for v in row], repr(t)] for i, (row, t) in enumerate(rows)],
            }
            digest = hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()
            object.__setattr__(self, "_digest", digest)
        return self._digest


@dataclass
class RunConfig:
    """Everything that determines one active-learning run.

    alpha is ignored for the random-walk and LLM proposers; prompt_format
    only matters for the LLM proposer. max_iterations of None means the
    pool size (the loop may exhaust the pool).
    """

    proposer: ProposerKind
    alpha: float = 2.0
    seed: int = 42
    repeat_index: int = 0
    n_initial: int = 1
    max_iterations: Optional[int] = None
    prompt_format: PromptFormat = PromptFormat.PARAMETER

    def __post_init__(self):
        if not (math.isfinite(self.alpha) and self.alpha >= 0):
            raise ConfigError(f"alpha must be finite and >= 0, got {self.alpha}")
        for key, low in (("seed", 0), ("repeat_index", 0), ("n_initial", 1)):
            if getattr(self, key) < low:
                raise ConfigError(f"{key} must be >= {low}, got {getattr(self, key)}")
        if self.max_iterations is not None and self.max_iterations < self.n_initial:
            raise ConfigError(f"max_iterations ({self.max_iterations}) is below n_initial ({self.n_initial})")

    def validate(self, pool_size: int) -> None:
        """ConfigError unless the run leaves a candidate unlabeled after its initial draw."""
        if self.n_initial >= pool_size:
            raise ConfigError(f"n_initial must be below the pool size ({pool_size}), got {self.n_initial}")

    def resolved_max_iterations(self, pool_size: int) -> int:
        return pool_size if self.max_iterations is None else min(self.max_iterations, pool_size)

    def to_dict(self) -> dict:
        return _fields_dict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        """Read a config's `run` section, a sweep cell or a stored header's
        run config with `read_config`."""
        return read_config(cls, d, "run")

    def digest(self, dataset_digest: str) -> str:
        payload = json.dumps(self.to_dict(), sort_keys=True) + dataset_digest
        return hashlib.sha256(payload.encode()).hexdigest()


@dataclass
class StepRecord:
    """One observation in a trajectory."""

    iteration: int
    candidate_id: int
    observed_value: float
    running_best: float
    proposal_text: Optional[str] = None
    match_score: Optional[float] = None
    surrogate_diag: Optional[dict[str, float]] = None

    def to_dict(self) -> dict:
        return _fields_dict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "StepRecord":
        """Read a stored step: ConfigError unless its iteration and id are integers
        >= 0, its values finite, its match score a finite number or null, its
        proposal text a string or null and its diagnostics an object or null
        (plain checks: this runs once per stored step)."""
        if not (
            isinstance(d, dict) and is_int(d.get("iteration"), 0) and is_int(d.get("candidate_id"), 0)
            and is_real(d.get("observed_value"), -math.inf) and is_real(d.get("running_best"), -math.inf)
            and (d.get("match_score") is None or is_real(d["match_score"], -math.inf))
            and isinstance(d.get("proposal_text"), (str, type(None)))
            and isinstance(d.get("surrogate_diag"), (dict, type(None)))
        ):
            raise ConfigError(f"malformed stored step: {d!r}")
        return cls(
            iteration=d["iteration"],
            candidate_id=d["candidate_id"],
            observed_value=float(d["observed_value"]),
            running_best=float(d["running_best"]),
            proposal_text=d.get("proposal_text"),
            match_score=None if d.get("match_score") is None else float(d["match_score"]),
            surrogate_diag=d.get("surrogate_diag"),
        )


@dataclass
class Trajectory:
    """Ordered record of one run: what was picked, what was observed."""

    run_config_digest: str
    steps: list[StepRecord]
    reached_optimum_at: Optional[int]
    data_fraction_used: float
    config: RunConfig
    dataset_digest: str

    def observed_values(self) -> list[float]:
        return [s.observed_value for s in self.steps]

    def selected_ids(self) -> list[int]:
        return [s.candidate_id for s in self.steps]

    def running_best_series(self) -> list[float]:
        return [s.running_best for s in self.steps]

    @property
    def final_best(self) -> float:
        return self.steps[-1].running_best

    def mean_match_score(self) -> Optional[float]:
        scores = [s.match_score for s in self.steps if s.match_score is not None]
        if not scores:
            return None
        return float(np.mean(scores))
