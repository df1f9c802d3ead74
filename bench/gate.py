"""Correctness gate: run invariants, selected-id digests and expected outputs.

Every AL run a pass makes is reduced to a `RunResult` (its selected ids
and observed values). A run fails when it raised, wrote a non-finite
value, broke a protocol invariant, or, at the default seed, selected a
different id sequence than the committed one in `expected.json`.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

EXPECTED_PATH = Path(__file__).with_name("expected.json")


@dataclass
class RunResult:
    """What one AL run produced, as the gate sees it."""

    label: str
    ids: list[int] = field(default_factory=list)
    values: list[float] = field(default_factory=list)
    running_best: list[float] = field(default_factory=list)
    scores: list[Optional[float]] = field(default_factory=list)
    error: str = ""


def digest(items) -> str:
    """Short sha256 of a sequence of ids, or of bytes."""
    payload = items if isinstance(items, bytes) else ",".join(str(int(i)) for i in items).encode()
    return hashlib.sha256(payload).hexdigest()[:16]


def file_digest(path) -> str:
    return digest(Path(path).read_bytes())


def check_run(
    run: RunResult,
    targets,
    maximize: bool,
    initial: list[int],
    cap: int,
) -> list[str]:
    """Invariant violations of one run; an empty list means it passed.

    targets: the pool's target per id. initial: the ids the seeded draw
    must start with. cap: the iteration cap. A run stops only at the cap
    or on the first observation of the pool optimum.
    """
    if run.error:
        return [f"{run.label}: raised {run.error}"]
    problems = []
    numbers = run.values + run.running_best + [s for s in run.scores if s is not None]
    if not all(math.isfinite(v) for v in numbers):
        problems.append(f"{run.label}: non-finite value in trajectory")
    if len(set(run.ids)) != len(run.ids):
        problems.append(f"{run.label}: a candidate was selected twice")
    if any(not 0 <= i < len(targets) for i in run.ids):
        return problems + [f"{run.label}: id outside the pool"]
    if run.ids[: len(initial)] != initial:
        problems.append(f"{run.label}: initial ids differ from the seeded draw")
    if any(targets[i] != v for i, v in zip(run.ids, run.values)):
        problems.append(f"{run.label}: observed value differs from the pool target")
    best = max if maximize else min
    optimum = best(targets)
    hits = [k for k, v in enumerate(run.values) if v == optimum]
    expected_len = min(cap, len(targets)) if not hits else hits[0] + 1
    if len(run.ids) != expected_len:
        problems.append(f"{run.label}: stopped after {len(run.ids)} steps, expected {expected_len}")
    prefix = []
    for v in run.values:
        prefix.append(v if not prefix else best(prefix[-1], v))
    if run.running_best and run.running_best != prefix:
        problems.append(f"{run.label}: running best is not the prefix best")
    return problems


def first_divergence(expected: list[int], got: list[int]) -> int:
    """Index of the first iteration where two id sequences differ."""
    for k, (a, b) in enumerate(zip(expected, got)):
        if a != b:
            return k
    return min(len(expected), len(got))


def as_expected(runs: list[RunResult], outputs: dict) -> dict:
    """The form expected.json stores: id sequences and output digests."""
    return {
        "runs": {r.label: ",".join(map(str, r.ids)) for r in runs},
        "outputs": dict(sorted(outputs.items())),
    }


def compare_expected(expected: dict, runs: list[RunResult], outputs: dict) -> list[tuple[str, str]]:
    """(failing unit, message) for each mismatch against `expected`.

    A unit is a run label, or "outputs" for the output file digests.
    """
    problems = []
    want_runs = expected.get("runs", {})
    for label in sorted(set(want_runs) - {r.label for r in runs}):
        problems.append((label, f"{label}: expected run is missing"))
    for run in runs:
        if run.label not in want_runs:
            problems.append((run.label, f"{run.label}: no expected sequence"))
            continue
        want = [int(i) for i in want_runs[run.label].split(",")]
        if want != run.ids:
            k = first_divergence(want, run.ids)
            problems.append((run.label,
                f"{run.label}: selection diverged at iteration {k} "
                f"(expected digest {digest(want)}, got {digest(run.ids)})"
            ))
    for name, want in expected.get("outputs", {}).items():
        if outputs.get(name) != want:
            problems.append(("outputs", f"{name}: digest {outputs.get(name)} differs from expected {want}"))
    return problems


def load_expected(workload: str) -> Optional[dict]:
    if not EXPECTED_PATH.exists():
        return None
    return json.loads(EXPECTED_PATH.read_text(encoding="utf-8")).get(workload)


def record_expected(workload: str, seed: int, runs: list[RunResult], outputs: dict) -> None:
    """Store this pass's sequences and output digests as the expected ones."""
    data = json.loads(EXPECTED_PATH.read_text(encoding="utf-8")) if EXPECTED_PATH.exists() else {}
    data[workload] = {"seed": seed, **as_expected(runs, outputs)}
    text = json.dumps(dict(sorted(data.items())), indent=1, sort_keys=True)
    EXPECTED_PATH.write_text(text + "\n", encoding="utf-8")
