"""The benchmark's workloads and what one pass of each does.

Each workload is a closed loop in one process: a pass starts only after
the previous one ended. albench is driven only through its public
functions (trees, bnn, gpr) or through its CLI entry point ``cli.main``
(sweep-report), and sees only the files the generator wrote.

Passes of one run repeat the same work exactly. Runs are capped, and the
generator keeps the pool optimum out of every run's initial draw and away
from where surrogates look, so runs nearly always last until their cap.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import gen
from gate import RunResult, check_run, file_digest


@dataclass
class PassResult:
    """Timings and outputs of one pass."""

    wall_s: float
    runs: list[RunResult]
    steps: list[float] = field(default_factory=list)
    phases: dict[str, float] = field(default_factory=dict)
    outputs: dict[str, str] = field(default_factory=dict)
    problems: list[tuple[str, str]] = field(default_factory=list)  # (failing unit, message)
    resumed_ratio: float = 0.0


class StepClock:
    """Pass-through proposer that timestamps each propose call.

    An AL iteration runs from one propose call to the next (the last one
    to the end of the run), so it covers the proposer and the engine's
    bookkeeping. It adds one clock read per iteration and no spans.
    """

    def __init__(self, inner):
        self.inner = inner
        self.kind = inner.kind
        self.marks: list[float] = []

    def propose(self, dataset, observed_ids, observed_values):
        self.marks.append(time.perf_counter())
        return self.inner.propose(dataset, observed_ids, observed_values)

    def durations(self, end: float) -> list[float]:
        ends = self.marks[1:] + [end]
        return [b - a for a, b in zip(self.marks, ends)]


@dataclass(frozen=True)
class RunSpec:
    """One capped AL run; its RunConfig seed is 10 * workload seed + seed_offset."""

    pool: str
    proposer: str
    alpha: float
    n_initial: int
    cap: int
    seed_offset: int = 0

    def seed(self, workload_seed: int) -> int:
        return 10 * workload_seed + self.seed_offset


class ALWorkload:
    """Surrogate runs on generated pools, through the public functions."""

    fixture_count = 0

    def __init__(self, name: str, runs: list[RunSpec]):
        self.name = name
        self.runs = runs

    def pools(self, seed: int) -> dict:
        starts: dict = {}
        for r in self.runs:
            starts.setdefault(r.pool, []).append((r.seed(seed), r.n_initial))
        return starts

    def load(self, specs: dict) -> dict:
        from albench import data

        return {r.pool: data.load_csv(data.DatasetSpec.from_dict(specs[r.pool])) for r in self.runs}

    def attempted_per_pass(self) -> int:
        return len(self.runs)

    def run_pass(self, state: dict, seed: int, work: Path, parallelism: int) -> PassResult:
        from albench import engine, proposers
        from albench.errors import AlbenchError
        from albench.types import ProposerKind, RunConfig

        runs, steps = [], []
        start = time.perf_counter()
        for spec in self.runs:
            config = RunConfig(
                proposer=ProposerKind(spec.proposer),
                alpha=spec.alpha,
                seed=spec.seed(seed),
                n_initial=spec.n_initial,
                max_iterations=spec.cap,
            )
            result = RunResult(label=f"{spec.proposer} alpha={spec.alpha:g}")
            clock = StepClock(proposers.make_proposer(config))
            try:
                trajectory = engine.run_active_learning(state[spec.pool], config, clock)
            except AlbenchError as exc:
                result.error = f"{type(exc).__name__}: {exc}"
            else:
                steps.extend(clock.durations(time.perf_counter()))
                result.ids = trajectory.selected_ids()
                result.values = trajectory.observed_values()
                result.running_best = trajectory.running_best_series()
                result.scores = [s.match_score for s in trajectory.steps]
            runs.append(result)
        wall = time.perf_counter() - start
        problems = []
        for spec, result in zip(self.runs, runs):
            dataset = state[spec.pool]
            targets = dataset.targets.tolist()
            maximize = dataset.goal.value == "maximize"
            initial = gen.initial_ids(len(targets), spec.seed(seed), spec.n_initial)
            problems += [(result.label, m) for m in check_run(result, targets, maximize, initial, spec.cap)]
        return PassResult(wall_s=wall, runs=runs, steps=steps, problems=problems)


SWEEP_SEEDS = [38, 39, 40, 41, 42]
SWEEP_REPEATS_AT_42 = 5
SWEEP_CAP = 100
# random_walk: one cell per seed; llm: per prompt format, one per seed plus
# the extra repeats at seed 42
SWEEP_CELLS = len(SWEEP_SEEDS) + 2 * (len(SWEEP_SEEDS) + SWEEP_REPEATS_AT_42 - 1)


class SweepReportWorkload:
    """`albench sweep`, the same sweep again (every cell resumes), then
    `albench report`, all through cli.main."""

    name = "sweep-report"
    pool = "sweep_pool"
    fixture_count = 2 * SWEEP_CAP + 10

    def pools(self, seed: int) -> dict:
        return {self.pool: [(s, 1) for s in SWEEP_SEEDS]}

    def load(self, specs: dict) -> dict:
        from albench import clients, data

        dataset = data.load_csv(data.DatasetSpec.from_dict(specs[self.pool]))
        fixtures = clients.load_fixtures(specs["fixtures"])
        if len(fixtures) != self.fixture_count:
            raise ValueError(f"{specs['fixtures']}: {len(fixtures)} fixtures, expected {self.fixture_count}")
        return {"dataset": dataset, "spec": specs[self.pool], "fixtures": specs["fixtures"]}

    def sweep_config(self, state: dict, parallelism: int) -> dict:
        return {
            "dataset": state["spec"],
            "proposers": ["random_walk", "llm"],
            "alphas": [0],
            "seeds": SWEEP_SEEDS,
            "prompt_formats": ["parameter", "report"],
            "repeats_at_seed": {"42": SWEEP_REPEATS_AT_42},
            "n_initial": 1,
            "max_iterations": SWEEP_CAP,
            "parallelism": parallelism,
            # replay clients ignore the limit; setting one lets llm cells
            # run in parallel instead of being serialized
            "llm": {
                "client": f"replay:{state['fixtures']}",
                "matcher": "offline",
                "offline_reports": True,
                "backoff": 0.0,
                "rate_limit": 1_000_000,
            },
        }

    def attempted_per_pass(self) -> int:
        # the summary and report exports count as one more unit
        return SWEEP_CELLS + 1

    def run_pass(self, state: dict, seed: int, work: Path, parallelism: int) -> PassResult:
        from albench import cli

        out = work / "sweep"
        shutil.rmtree(out, ignore_errors=True)
        config_path = work / "sweep.json"
        config_path.write_text(json.dumps(self.sweep_config(state, parallelism)), encoding="utf-8")
        # warnings (such as a twice-unparsable reply) are expected here
        quiet = ["--log-level", "ERROR"]
        sweep_argv = quiet + ["sweep", "--config", str(config_path), "--out-dir", str(out)]
        report_argv = quiet + ["report", "--results", str(out / "runs"), "--out-dir", str(out / "report")]

        phases, codes, outputs = {}, [], {}

        def timed(phase, argv):
            start = time.perf_counter()
            with contextlib.redirect_stdout(io.StringIO()):
                codes.append((argv[2], cli.main(argv)))
            phases[phase] = time.perf_counter() - start

        timed("sweep_s", sweep_argv)
        fresh = _read_csv(out / "summary.csv")
        outputs["summary.csv"] = _digest_if_present(out / "summary.csv")
        timed("resume_s", sweep_argv)
        resumed = _read_csv(out / "summary.csv")
        outputs["resumed/summary.csv"] = _digest_if_present(out / "summary.csv")
        timed("report_s", report_argv)
        for path in sorted((out / "report").glob("*.csv")):
            outputs[f"report/{path.name}"] = file_digest(path)

        dataset = state["dataset"]
        targets = dataset.targets.tolist()
        maximize = dataset.goal.value == "maximize"
        problems = [("outputs", f"albench {command} exited with {code}") for command, code in codes if code]
        runs, labels = [], {}
        steps_by_digest = {r["digest"]: r["steps"] for r in fresh}
        for path in sorted((out / "runs").glob("*.jsonl")):
            run, config = _read_trajectory(path)
            labels[path.stem] = run.label
            initial = gen.initial_ids(len(targets), config["seed"], config["n_initial"])
            problems += [(run.label, m) for m in check_run(run, targets, maximize, initial, SWEEP_CAP)]
            if steps_by_digest.get(path.stem) != str(len(run.ids)):
                problems.append((run.label, f"{run.label}: summary.csv step count differs from the trajectory"))
            runs.append(run)
        runs.sort(key=lambda r: r.label)
        if len(runs) != SWEEP_CELLS:
            problems.append(("outputs", f"sweep wrote {len(runs)} trajectories"))
        for name, rows, allowed in (("fresh", fresh, ("ok",)), ("resumed", resumed, ("ok", "skipped"))):
            for r in rows:
                if r["status"] not in allowed:
                    label = labels.get(r["digest"], r["digest"])
                    problems.append((label, f"{label}: {name} sweep status {r['status']} {r['error']}"))
        skipped = sum(r["status"] == "skipped" for r in resumed)
        ratio = skipped / len(resumed) if resumed else 0.0
        if ratio != 1.0:
            problems.append(("outputs", f"resume pass: {skipped} of {len(resumed)} cells resumed"))
        shutil.rmtree(out, ignore_errors=True)
        return PassResult(
            wall_s=sum(phases.values()),
            runs=runs,
            phases=phases,
            outputs=outputs,
            problems=problems,
            resumed_ratio=ratio,
        )


def _read_csv(path: Path) -> list[dict]:
    if not path.exists():
        return []
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _digest_if_present(path: Path) -> str:
    return file_digest(path) if path.exists() else "missing"


def _read_trajectory(path: Path) -> tuple[RunResult, dict]:
    """Parse a trajectory file with the standard library only, so the gate
    does not depend on the reader it checks."""
    lines = path.read_text(encoding="utf-8").splitlines()
    config = json.loads(lines[0])["run_config"]
    label = "{proposer}/{prompt_format}/seed={seed}/repeat={repeat_index}".format(**config)
    records = [json.loads(line) for line in lines[1:] if line.strip()]
    run = RunResult(
        label=label,
        ids=[r["candidate_id"] for r in records],
        values=[r["observed_value"] for r in records],
        running_best=[r["running_best"] for r in records],
        scores=[r["match_score"] for r in records],
    )
    return run, config


WORKLOADS = {
    w.name: w
    for w in (
        # Surrogate runs start at the labeled-set sizes ROADMAP states its
        # layer timings at (150 for the trees, whose split search grows with
        # the labeled set; 50 for the BNN) and make one proposal, so a pass
        # measures one fit and one pool prediction per surrogate at that size.
        ALWorkload(
            "trees",
            [RunSpec("matbench_steels", "rfr", 2.0, 150, 151), RunSpec("matbench_steels", "gbt", 2.0, 150, 151)],
        ),
        ALWorkload("bnn", [RunSpec("perovskite", "bnn", 2.0, 50, 51)]),
        # One pool and one seed per alpha: the 36 fits of a pass then draw
        # independent pools and L-BFGS-B restarts, so the pass cost does
        # not hinge on how hard a single pool's likelihood is to optimize.
        ALWorkload(
            "gpr",
            [RunSpec(f"p3ht_cnt.{a}", "gpr", float(a), 100, 106, seed_offset=a) for a in range(6)],
        ),
        SweepReportWorkload(),
    )
}
