"""Pool-based active-learning loop, its trajectory files, and `read_runs`,
the one reader of a results directory.

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
import logging
import operator
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Protocol, Sequence

import numpy as np

from .data import build_dataset
from .errors import (
    AlbenchError, ConfigError, NumericalError, ProposerError, ProtocolViolationError, RunAborted, ShapeError,
)
from .types import Dataset, RunConfig, StepRecord, Trajectory

logger = logging.getLogger(__name__)

STREAM_WALK = 1
STREAM_MODEL = 2
STREAM_LLM = 3


def substream(seed: int, stream: int) -> np.random.Generator:
    """Independent generator for one of the run's named substreams."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(stream,)))


def select_initial(dataset: Dataset, seed: int, n_initial: int) -> list[int]:
    """Draw the initial observation ids (pool positions), without replacement.

    Deterministic in (pool size, seed, n_initial): the draw is
    ``default_rng(seed).choice(pool_size, n_initial, replace=False)``.
    """
    pool_size = len(dataset)
    if not 1 <= n_initial < pool_size:
        raise ConfigError(
            f"n_initial must satisfy 1 <= n_initial < pool size ({pool_size}), got {n_initial}"
        )
    rng = np.random.default_rng(seed)
    return rng.choice(pool_size, size=n_initial, replace=False).tolist()


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


def pool_zscores(dataset: Dataset) -> tuple[ZScore, np.ndarray, np.ndarray]:
    """The pool's own z-score, its standardized feature matrix, and that
    matrix stored feature by feature: a C-contiguous (features, rows) copy,
    so one pass over a feature reads contiguous memory. Both matrices are
    read-only.

    All three are computed on the first call and cached on the Dataset,
    which is immutable, so the matcher and the analytics share one
    full-pool scale. Row i of the matrix is bit-identical to standardizing
    row i alone.
    """
    if dataset._pool_z is None:
        scale = ZScore.fit(dataset.feature_matrix)
        z = scale.apply(dataset.feature_matrix)
        zt = np.ascontiguousarray(z.T)
        z.flags.writeable = zt.flags.writeable = False
        object.__setattr__(dataset, "_pool_z", (scale, z, zt))
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


def record_step(dataset: Dataset, steps: Sequence[StepRecord], cid: int, suggestion=None) -> StepRecord:
    """The step observing `cid` after `steps`, fresh or stored: iteration len(steps), the pool's value, the prefix
    best under the pool's goal, and the text, score and diagnostics of `suggestion`, a Suggestion or a StepRecord."""
    s = Suggestion(cid) if suggestion is None else suggestion
    value = float(dataset.targets[cid])
    best = value if not steps or dataset.goal.is_improvement(value, steps[-1].running_best) else steps[-1].running_best
    return StepRecord(len(steps), cid, value, best, s.proposal_text, s.match_score, s.surrogate_diag)


def run_active_learning(dataset: Dataset, config: RunConfig, proposer: Proposer) -> Trajectory:
    """Run one pool-based AL loop until the optimum is found or the cap hits.

    Iterations 0..n_initial-1 record the seeded initial observations; each
    later iteration asks the proposer for exactly one unlabeled candidate
    (batch size one), looks up its stored target, and appends a StepRecord.
    The running best equals the pool optimum exactly when a step observed
    it. A proposer that fails after its own retries, or a replay client
    without an answer, aborts the run; the partial trajectory rides along
    on the RunAborted exception. `make_trajectory` builds both.
    """
    pool_size = len(dataset)
    config.validate(pool_size)
    declared = getattr(proposer, "kind", None)
    if declared is not None and declared is not config.proposer:
        raise ConfigError(f"proposer kind {declared} does not match config.proposer {config.proposer}")
    max_iterations = config.resolved_max_iterations(pool_size)
    optimum = dataset.optimum_value

    steps: list[StepRecord] = []
    for cid in select_initial(dataset, config.seed, config.n_initial):
        steps.append(record_step(dataset, steps, cid))

    while steps[-1].running_best != optimum and len(steps) < max_iterations:
        ids = [s.candidate_id for s in steps]
        try:
            suggestion = proposer.propose(dataset, list(ids), [s.observed_value for s in steps])
        except ProposerError as exc:
            raise RunAborted(
                f"proposer failed at iteration {len(steps)}: {exc}", partial=make_trajectory(config, dataset, steps)
            ) from exc
        try:
            cid = operator.index(suggestion.candidate_id)
        except TypeError:
            raise ProtocolViolationError(
                f"proposer returned non-integer candidate id {suggestion.candidate_id!r} at iteration {len(steps)}"
            ) from None
        if cid in ids:
            raise ProtocolViolationError(
                f"proposer returned already-observed candidate id {cid} at iteration {len(steps)}"
            )
        if not 0 <= cid < pool_size:
            raise ProtocolViolationError(f"proposer returned unknown candidate id {cid} at iteration {len(steps)}")
        steps.append(record_step(dataset, steps, cid, suggestion))

    return make_trajectory(config, dataset, steps)


def make_trajectory(config: RunConfig, dataset: Dataset, steps: list[StepRecord]) -> Trajectory:
    """The Trajectory of the run `config` that took `steps` on `dataset`: the
    one constructor, for fresh and stored runs alike, so every field that
    derives from the steps is computed here."""
    dataset_digest = dataset.digest()
    return Trajectory(
        run_config_digest=config.digest(dataset_digest),
        steps=steps,
        reached_optimum_at=reached_optimum_at(steps, dataset.optimum_value),
        data_fraction_used=len({s.candidate_id for s in steps}) / len(dataset),
        config=config,
        dataset_digest=dataset_digest,
    )


# --- trajectory persistence (JSON lines) ------------------------------------
#
# Line 1 is a header object carrying the full RunConfig, the dataset digest,
# enough dataset metadata to rebuild the pool for analytics, and the
# settings besides the RunConfig that selected the candidates (the proposer
# kind's `ProposerSettings.record`; null when the writer gave none). Every
# later line is one StepRecord.


def trajectory_to_jsonl(
    trajectory: Trajectory, dataset_spec: Optional[dict] = None, settings: Optional[dict] = None
) -> str:
    """Header line plus one line per step; NaN or infinity raises NumericalError."""
    header = {
        "run_config": trajectory.config.to_dict(),
        "run_config_digest": trajectory.run_config_digest,
        "dataset_digest": trajectory.dataset_digest,
        "dataset": dataset_spec,
        "settings": settings,
    }
    try:
        lines = [json.dumps(header, sort_keys=True, allow_nan=False)]
        lines.extend(json.dumps(s.to_dict(), sort_keys=True, allow_nan=False) for s in trajectory.steps)
    except ValueError as exc:
        raise NumericalError(f"trajectory holds a non-finite number: {exc}") from exc
    return "\n".join(lines) + "\n"


def write_trajectory(
    trajectory: Trajectory, path, dataset_spec: Optional[dict] = None, settings: Optional[dict] = None
) -> None:
    """Write the JSONL file atomically: through a temp file in the same
    directory and os.replace, so a reader or a resumed sweep sees the old
    file or the new one, never a torn one."""
    text = trajectory_to_jsonl(trajectory, dataset_spec, settings)
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _reject_constant(token: str):
    raise NumericalError(f"trajectory holds a non-finite number: {token}")


_LINE_DECODER = json.JSONDecoder(parse_constant=_reject_constant)


def read_trajectory(path) -> tuple[dict, list[StepRecord]]:
    """Load (header, steps) from a JSONL trajectory file. As on writing,
    NaN or infinity raises NumericalError."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [line for line in fh.read().splitlines() if line.strip()]
    if not lines:
        raise ConfigError(f"trajectory file {path} is empty")
    header = _LINE_DECODER.decode(lines[0])
    if not isinstance(header, dict) or "run_config" not in header:
        raise ConfigError(f"trajectory file {path} has no header line")
    steps = [StepRecord.from_dict(_LINE_DECODER.decode(line)) for line in lines[1:]]
    return header, steps


def rebuild_trajectory(header: dict, steps: list[StepRecord], dataset: Dataset) -> Trajectory:
    """Reconstruct a Trajectory from a parsed file, against its pool, with
    `make_trajectory`: the header's run config digest is not read.

    ConfigError when the header's run config is malformed, `dataset` is not
    the pool the run recorded (an edited CSV, for one), or a step is not the
    one `record_step` derives from its id, or its id is outside `dataset`,
    repeats an earlier one, is not the seed's initial draw, or follows the
    optimum or the cap. It names the first such iteration; a valid prefix,
    such as an aborted run's, reads.
    """
    config = RunConfig.from_dict(header["run_config"])
    trajectory = make_trajectory(config, dataset, steps)
    recorded, actual = header.get("dataset_digest", ""), trajectory.dataset_digest
    if recorded != actual:
        raise ConfigError(
            f"the pool has digest {actual} but the run recorded {recorded}; "
            "was the dataset edited after the run?"
        )
    initial = select_initial(dataset, config.seed, config.n_initial)
    cap, optimum = config.resolved_max_iterations(len(dataset)), dataset.optimum_value
    seen, derived = set(), []
    for i, step in enumerate(steps):
        cid, fault = step.candidate_id, None
        if not 0 <= cid < len(dataset):
            fault = f"candidate_id {cid} is outside the {len(dataset)}-row pool"
        elif cid in seen:
            fault = f"candidate_id {cid} repeats an earlier id"
        elif i < len(initial) and cid != initial[i]:
            fault = f"candidate_id {cid} is not the seed's initial draw {initial[i]}"
        elif i >= len(initial) and derived[-1].running_best == optimum:
            fault = "the run had already reached the pool optimum"
        elif i >= cap:
            fault = f"the run is past its cap of {cap} steps"
        else:
            derived.append(record_step(dataset, derived, cid, step))
            if derived[-1] != step:
                key = next(k for k, v in vars(step).items() if v != getattr(derived[-1], k))
                fault = f"stored {key} {getattr(step, key)!r} differs from the pool's {getattr(derived[-1], key)!r}"
        if fault:
            raise ConfigError(f"iteration {i}: {fault}")
        seen.add(cid)
    return trajectory


# What reading a stored run or rebuilding its pool raises when a file is
# missing, torn or malformed (json.JSONDecodeError is a ValueError).
_UNREADABLE = (OSError, ValueError, KeyError, TypeError, AlbenchError)


def read_runs(results_dir: Path, pools: dict[str, Dataset]) -> dict[Path, tuple[dict, Trajectory]]:
    """Every run stored in `results_dir`, read once, in path order: {path:
    (header, run)}. Each is rebuilt on `pools[its header's pool digest]`; a
    missing pool is rebuilt from the header and added; one that fails to
    rebuild is tried once, and every file naming it is skipped for the same
    reason. A file that is unreadable, torn, header-only, has a malformed
    step or ran on a changed pool is skipped, with a warning."""
    runs, unbuilt = {}, {}  # unbuilt: {pool digest: why its rebuild failed}
    for path in sorted(results_dir.glob("*.jsonl")):
        try:
            header, steps = read_trajectory(path)
            if not steps:
                raise ConfigError("the run has no steps")
            digest = header.get("dataset_digest", "")
            if digest in unbuilt:
                raise unbuilt[digest]
            if digest not in pools:
                try:
                    pools[digest] = build_dataset(header.get("dataset"))[0]
                except _UNREADABLE as exc:
                    unbuilt[digest] = exc
                    raise
            runs[path] = header, rebuild_trajectory(header, steps, pools[digest])
        except _UNREADABLE as exc:
            logger.warning("skipping %s: %s", path, exc)
    return runs
