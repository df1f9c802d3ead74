"""Core domain types: candidates, datasets, run configs, run records.

A Dataset is an immutable, fully labeled pool. "Running an experiment"
means looking up a candidate's stored target value, so stopping tests use
exact equality on stored values.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

import numpy as np

from .errors import ConfigError, UnknownCandidateError


def is_int(value, low: int) -> bool:
    """An integer >= low; bool is an int subclass, and JSON true/false is no count."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= low


def is_real(value, low: float) -> bool:
    """A finite number >= low; JSON true/false is no number either."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value) and value >= low


def as_matrix(X) -> np.ndarray:
    """2-D float view; a 1-D input is n samples of one feature."""
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
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


@dataclass(frozen=True)
class Candidate:
    """One row of the pool: raw features plus the held-out target value.

    Features stay in dataset units; standardization happens per iteration
    against the labeled pool, never at load time.
    """

    id: int
    features: tuple[float, ...]
    target: float
    report_text: Optional[str] = None

    def __post_init__(self):
        if not math.isfinite(self.target):
            raise ConfigError(f"candidate {self.id}: target {self.target!r} is not finite")
        if any(not math.isfinite(v) for v in self.features):
            raise ConfigError(f"candidate {self.id}: non-finite feature value")


@dataclass(frozen=True)
class Dataset:
    """A fixed labeled pool plus the metadata prompts and analytics need.

    Candidate ids are positions: candidate i sits at `candidates[i]`, so
    `by_id(i)` and row i of `feature_matrix` are the same candidate; any
    other numbering is rejected with ConfigError.

    A Dataset is immutable once built: its fields cannot be reassigned, and
    callers must not mutate `candidates` or `feature_names` in place. Values
    that depend only on the pool (the digest, the full-pool z-scores of
    `engine.pool_zscores`) are computed on first use and cached on the
    instance, so a mutated pool would keep stale ones. Derive a changed pool
    with `dataclasses.replace`, which starts from empty caches.
    """

    name: str
    candidates: list[Candidate]
    feature_names: list[str]
    target_name: str
    goal: Goal
    context: str = ""

    _feature_matrix: np.ndarray = field(init=False, repr=False, compare=False)
    _targets: np.ndarray = field(init=False, repr=False, compare=False)
    _digest: Optional[str] = field(default=None, init=False, repr=False, compare=False)
    _pool_z: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.candidates:
            raise ConfigError(f"dataset {self.name!r} has no candidates")
        n_features = len(self.feature_names)
        for position, cand in enumerate(self.candidates):
            if cand.id != position:
                raise ConfigError(
                    f"dataset {self.name!r}: candidate at position {position} has id {cand.id}; "
                    "ids must be positions 0..n-1"
                )
            if len(cand.features) != n_features:
                raise ConfigError(
                    f"dataset {self.name!r}: candidate {cand.id} has "
                    f"{len(cand.features)} features, expected {n_features}"
                )
        matrix = np.array([c.features for c in self.candidates], dtype=float)
        targets = np.array([c.target for c in self.candidates], dtype=float)
        matrix.flags.writeable = False
        targets.flags.writeable = False
        object.__setattr__(self, "_feature_matrix", matrix)
        object.__setattr__(self, "_targets", targets)

    def __len__(self) -> int:
        return len(self.candidates)

    @property
    def feature_matrix(self) -> np.ndarray:
        """(n_candidates, n_features) array of raw features, read-only."""
        return self._feature_matrix

    @property
    def targets(self) -> np.ndarray:
        return self._targets

    @property
    def optimum_value(self) -> float:
        """Pool-wide best target under the dataset's goal."""
        return self.goal.best(self._targets)

    def by_id(self, candidate_id: int) -> Candidate:
        """The candidate with this id, which is its position in the pool."""
        if not 0 <= candidate_id < len(self.candidates):
            raise UnknownCandidateError(
                f"dataset {self.name!r} has no candidate id {candidate_id} (ids are 0..{len(self.candidates) - 1})"
            )
        return self.candidates[candidate_id]

    def digest(self) -> str:
        """Content hash used to tie trajectory files to the pool they ran on,
        computed on the first call."""
        if self._digest is None:
            payload = {
                "name": self.name,
                "feature_names": list(self.feature_names),
                "target_name": self.target_name,
                "goal": self.goal.value,
                "rows": [[c.id, [repr(v) for v in c.features], repr(c.target)] for c in self.candidates],
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

    def validate(self, pool_size: int) -> None:
        if not (math.isfinite(self.alpha) and self.alpha >= 0):
            raise ConfigError(f"alpha must be finite and >= 0, got {self.alpha}")
        if not 1 <= self.n_initial < pool_size:
            raise ConfigError(
                f"n_initial must satisfy 1 <= n_initial < pool size "
                f"({pool_size}), got {self.n_initial}"
            )
        if self.max_iterations is not None and self.max_iterations < self.n_initial:
            raise ConfigError(
                f"max_iterations ({self.max_iterations}) is below n_initial ({self.n_initial})"
            )
        if self.repeat_index < 0:
            raise ConfigError(f"repeat_index must be >= 0, got {self.repeat_index}")

    def resolved_max_iterations(self, pool_size: int) -> int:
        return pool_size if self.max_iterations is None else min(self.max_iterations, pool_size)

    def to_dict(self) -> dict:
        return {
            "proposer": self.proposer.value,
            "alpha": self.alpha,
            "seed": self.seed,
            "repeat_index": self.repeat_index,
            "n_initial": self.n_initial,
            "max_iterations": self.max_iterations,
            "prompt_format": self.prompt_format.value,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        """Read a config's `run` section, a sweep cell or a stored header's
        run config. Values are checked, not coerced: ConfigError names an
        unknown or missing key or a value of the wrong type."""
        if not isinstance(d, dict):
            raise ConfigError(f"bad run config: not an object: {d!r}")
        defaults = cls(ProposerKind.RANDOM_WALK).to_dict()
        unknown = sorted(set(d) - set(defaults))
        if unknown:
            raise ConfigError(f"bad run config: unknown keys {unknown}; known: {sorted(defaults)}")
        d = {**defaults, "proposer": None, **d}

        def fail(key: str, want: str):
            raise ConfigError(f"bad run config: '{key}' must be {want}, got {d[key]!r}")

        for key, kind in (("proposer", ProposerKind), ("prompt_format", PromptFormat)):
            names = [k.value for k in kind]
            if d[key] not in names:
                fail(key, f"one of {names}")
        for key, low in (("seed", 0), ("repeat_index", 0), ("n_initial", 1)):
            if not is_int(d[key], low):
                fail(key, f"an integer >= {low}")
        if d["max_iterations"] is not None and not is_int(d["max_iterations"], 1):
            fail("max_iterations", "an integer >= 1 or null")
        if not is_real(d["alpha"], 0):
            fail("alpha", "a finite number >= 0")
        return cls(
            proposer=ProposerKind(d["proposer"]),
            alpha=float(d["alpha"]),
            seed=d["seed"],
            repeat_index=d["repeat_index"],
            n_initial=d["n_initial"],
            max_iterations=d["max_iterations"],
            prompt_format=PromptFormat(d["prompt_format"]),
        )

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
        return {
            "iteration": self.iteration,
            "candidate_id": self.candidate_id,
            "observed_value": self.observed_value,
            "running_best": self.running_best,
            "proposal_text": self.proposal_text,
            "match_score": self.match_score,
            "surrogate_diag": self.surrogate_diag,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "StepRecord":
        return cls(
            iteration=int(d["iteration"]),
            candidate_id=int(d["candidate_id"]),
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
