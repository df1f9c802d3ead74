"""Pool-based active-learning loop: initialization, proposing, stopping.

PRNG layout (one documented scheme, reproducible within this package):

* initial observations come from ``numpy.random.default_rng(seed)`` and
  depend only on (pool size, seed, n_initial), so every proposer and every
  alpha sees the same seed points for a given (dataset, seed);
* each run derives independent substreams from the seed via
  ``SeedSequence(seed, spawn_key=(k,))``: k=1 random-walk draws, k=2
  per-iteration model seeds, k=3 LLM fallback draws.

repeat_index labels a run but never feeds the PRNG: repeated runs at a
fixed seed differ only through client nondeterminism (live LLMs).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Protocol, Sequence

import numpy as np

from .errors import ConfigError, NumericalError, ProposerError, ProtocolViolationError, RunAborted, ShapeError
from .types import Dataset, RunConfig, StepRecord, Trajectory

STREAM_WALK = 1
STREAM_MODEL = 2
STREAM_LLM = 3


def substream(seed: int, stream: int) -> np.random.Generator:
    """Independent generator for one of the run's named substreams."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(stream,)))


def select_initial(dataset: Dataset, seed: int, n_initial: int) -> list[int]:
    """Draw the initial observation ids, without replacement.

    Deterministic in (pool size, seed, n_initial): the draw is
    ``default_rng(seed).choice(pool_size, n_initial, replace=False)``.
    """
    pool_size = len(dataset)
    if not 1 <= n_initial < pool_size:
        raise ConfigError(
            f"n_initial must satisfy 1 <= n_initial < pool size ({pool_size}), got {n_initial}"
        )
    rng = np.random.default_rng(seed)
    ids = rng.choice(pool_size, size=n_initial, replace=False)
    return [int(dataset.candidates[i].id) for i in ids]


@dataclass(frozen=True)
class ZScore:
    """Mean and population std of a reference set; `apply` z-scores a query.

    Dimensions with zero standard deviation in the reference map to 0 for
    every query row (divisor substituted by 1), so size-1 labeled pools
    cannot poison distances or kernels with NaNs. The arrays are read-only.
    """

    mean: np.ndarray
    safe_std: np.ndarray
    degenerate: np.ndarray

    @classmethod
    def fit(cls, reference) -> "ZScore":
        ref = np.atleast_2d(np.asarray(reference, dtype=float))
        if ref.size == 0:
            raise ShapeError("reference set is empty")
        mean = ref.mean(axis=0)
        std = ref.std(axis=0)  # population convention: divide by n
        degenerate = std == 0.0
        safe_std = np.where(degenerate, 1.0, std)
        for arr in (mean, safe_std, degenerate):
            arr.flags.writeable = False
        return cls(mean, safe_std, degenerate)

    def apply(self, query) -> np.ndarray:
        q = np.atleast_2d(np.asarray(query, dtype=float))
        if q.shape[1] != self.mean.shape[0]:
            raise ShapeError(f"dimension mismatch: reference {self.mean.shape[0]}, query {q.shape[1]}")
        z = (q - self.mean) / self.safe_std
        z[:, self.degenerate] = 0.0
        return z


def standardize_features(reference, query) -> np.ndarray:
    """Z-score `query` using the mean and population std of `reference`."""
    return ZScore.fit(reference).apply(query)


def pool_zscores(dataset: Dataset) -> tuple[ZScore, np.ndarray]:
    """The pool's own z-score and its standardized feature matrix (read-only).

    Both are computed on the first call and cached on the Dataset, which is
    immutable, so the matcher and the analytics share one full-pool scale.
    Row i of the matrix is bit-identical to standardizing row i alone.
    """
    if dataset._pool_z is None:
        scale = ZScore.fit(dataset.feature_matrix)
        z = scale.apply(dataset.feature_matrix)
        z.flags.writeable = False
        object.__setattr__(dataset, "_pool_z", (scale, z))
    return dataset._pool_z


def unlabeled_pool_ids(pool_size: int, observed_ids: Sequence[int]) -> np.ndarray:
    """Ascending ids of the pool's candidates that are not in `observed_ids`."""
    unlabeled = np.ones(pool_size, dtype=bool)
    unlabeled[np.asarray(observed_ids, dtype=np.intp)] = False
    return np.flatnonzero(unlabeled)


def reached_optimum_at(steps: Sequence[StepRecord], optimum: float) -> Optional[int]:
    """Iteration of the first step that observed `optimum`, else None.

    Observations are pool lookups, so stored values compare verbatim and
    no tolerance is involved; duplicate optima all satisfy the test.
    """
    return next((s.iteration for s in steps if s.observed_value == optimum), None)


@dataclass
class Suggestion:
    """What a proposer hands back for one iteration."""

    candidate_id: int
    proposal_text: Optional[str] = None
    match_score: Optional[float] = None
    surrogate_diag: Optional[dict[str, float]] = None


class Proposer(Protocol):
    """One-candidate-per-iteration selection strategy.

    Implementations own their PRNG substreams and any per-run caches; the
    engine never retries a proposer (retries live inside the proposer).
    """

    def propose(
        self, dataset: Dataset, observed_ids: list[int], observed_values: list[float]
    ) -> Suggestion: ...


def run_active_learning(dataset: Dataset, config: RunConfig, proposer: Proposer) -> Trajectory:
    """Run one pool-based AL loop until the optimum is found or the cap hits.

    Iterations 0..n_initial-1 record the seeded initial observations; each
    later iteration asks the proposer for exactly one unlabeled candidate
    (batch size one), looks up its stored target, and appends a StepRecord.
    A proposer that fails after its own retries aborts the run; the partial
    trajectory rides along on the RunAborted exception.
    """
    pool_size = len(dataset)
    config.validate(pool_size)
    declared = getattr(proposer, "kind", None)
    if declared is not None and declared is not config.proposer:
        raise ConfigError(f"proposer kind {declared} does not match config.proposer {config.proposer}")
    max_iterations = config.resolved_max_iterations(pool_size)
    optimum = dataset.optimum_value

    steps: list[StepRecord] = []
    observed: set[int] = set()
    reached_at: Optional[int] = None
    best = None

    def observe(candidate_id: int, *, proposal_text=None, match_score=None, diag=None) -> None:
        nonlocal best, reached_at
        value = dataset.by_id(candidate_id).target
        if best is None or dataset.goal.is_improvement(value, best):
            best = value
        iteration = len(steps)
        steps.append(
            StepRecord(
                iteration=iteration,
                candidate_id=candidate_id,
                observed_value=value,
                running_best=best,
                proposal_text=proposal_text,
                match_score=match_score,
                surrogate_diag=diag,
            )
        )
        observed.add(candidate_id)
        if reached_at is None:
            reached_at = reached_optimum_at(steps[-1:], optimum)

    def build() -> Trajectory:
        return Trajectory(
            run_config_digest=config.digest(dataset.digest()),
            steps=steps,
            reached_optimum_at=reached_at,
            data_fraction_used=len(observed) / pool_size,
            config=config,
            dataset_digest=dataset.digest(),
        )

    for cid in select_initial(dataset, config.seed, config.n_initial):
        observe(cid)

    observed_order = [s.candidate_id for s in steps]
    while reached_at is None and len(steps) < max_iterations and len(observed) < pool_size:
        values = [dataset.by_id(i).target for i in observed_order]
        try:
            suggestion = proposer.propose(dataset, list(observed_order), values)
        except ProposerError as exc:
            raise RunAborted(
                f"proposer failed at iteration {len(steps)}: {exc}", partial=build()
            ) from exc
        cid = int(suggestion.candidate_id)
        if cid in observed:
            raise ProtocolViolationError(
                f"proposer returned already-observed candidate id {cid} at iteration {len(steps)}"
            )
        if not 0 <= cid < pool_size:
            raise ProtocolViolationError(f"proposer returned unknown candidate id {cid}")
        observe(
            cid,
            proposal_text=suggestion.proposal_text,
            match_score=suggestion.match_score,
            diag=suggestion.surrogate_diag,
        )
        observed_order.append(cid)

    return build()


# --- trajectory persistence (JSON lines) ------------------------------------
#
# Line 1 is a header object carrying the full RunConfig, the dataset digest,
# and enough dataset metadata to rebuild the pool for analytics. Every later
# line is one StepRecord.


def trajectory_header(trajectory: Trajectory, dataset_spec: Optional[dict] = None) -> dict:
    return {
        "run_config": trajectory.config.to_dict(),
        "run_config_digest": trajectory.run_config_digest,
        "dataset_digest": trajectory.dataset_digest,
        "dataset": dataset_spec,
    }


def trajectory_to_jsonl(trajectory: Trajectory, dataset_spec: Optional[dict] = None) -> str:
    """Header line plus one line per step; NaN or infinity raises NumericalError."""
    try:
        lines = [json.dumps(trajectory_header(trajectory, dataset_spec), sort_keys=True, allow_nan=False)]
        lines.extend(json.dumps(s.to_dict(), sort_keys=True, allow_nan=False) for s in trajectory.steps)
    except ValueError as exc:
        raise NumericalError(f"trajectory holds a non-finite number: {exc}") from exc
    return "\n".join(lines) + "\n"


def write_trajectory(trajectory: Trajectory, path, dataset_spec: Optional[dict] = None) -> None:
    """Write the JSONL file atomically: through a temp file in the same
    directory and os.replace, so a reader or a resumed sweep sees the old
    file or the new one, never a torn one."""
    text = trajectory_to_jsonl(trajectory, dataset_spec)
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def read_trajectory(path) -> tuple[dict, list[StepRecord]]:
    """Load (header, steps) from a JSONL trajectory file."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [line for line in fh.read().splitlines() if line.strip()]
    if not lines:
        raise ConfigError(f"trajectory file {path} is empty")
    header = json.loads(lines[0])
    if not isinstance(header, dict) or "run_config" not in header:
        raise ConfigError(f"trajectory file {path} has no header line")
    steps = [StepRecord.from_dict(json.loads(line)) for line in lines[1:]]
    return header, steps


def rebuild_trajectory(header: dict, steps: list[StepRecord], dataset: Dataset) -> Trajectory:
    """Reconstruct a Trajectory from a parsed file, against its pool.

    ConfigError when `dataset` is not the pool the run recorded (an edited
    CSV, for one) or the header's run config is malformed.
    """
    recorded, actual = header.get("dataset_digest", ""), dataset.digest()
    if recorded != actual:
        raise ConfigError(
            f"the pool has digest {actual} but the run recorded {recorded}; "
            "was the dataset edited after the run?"
        )
    return Trajectory(
        run_config_digest=header.get("run_config_digest", ""),
        steps=steps,
        reached_optimum_at=reached_optimum_at(steps, dataset.optimum_value),
        data_fraction_used=len({s.candidate_id for s in steps}) / len(dataset),
        config=RunConfig.from_dict(header["run_config"]),
        dataset_digest=recorded,
    )
