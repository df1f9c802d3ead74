"""Command-line front end for single runs, sweeps and analytics export.
It holds argv handling, config sections, the proposer factory, the sweep
grid and the process pool; engine, data and analytics own stored formats.

Exit codes: 0 success, 1 configuration error, 2 run failure, 3 partial
sweep failure. Configs are JSON; credentials come from the environment
(LLM_API_KEY, RERANK_API_KEY), never from config files.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import hashlib
import json
import logging
import os
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Optional

from . import analytics
from .clients import (
    ConstantChatClient, LiveChatClient, LiveRerankClient, ScriptedChatClient, TokenBucket, load_fixtures,
)
from .data import build_dataset, load_csv  # noqa: F401 -- bench/spans.py traces load_csv under this name
from .engine import read_runs, run_active_learning, write_trajectory
from .engine import read_trajectory  # noqa: F401 -- bench/spans.py traces calls under this name
from .errors import AlbenchError, ConfigError, RunAborted
from .types import (
    Dataset, PromptFormat, ProposerKind, RunConfig, Trajectory, check_keys, is_int, is_real, read_config,
)

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUN_FAILURE = 2
EXIT_PARTIAL_SWEEP = 3


# --- config assembly ---------------------------------------------------------


# The top-level keys that each command reads; any other key is a ConfigError.
RUN_KEYS = ("dataset", "run", "llm", "model_overrides")
SWEEP_KEYS = ("dataset", "proposers", "alphas", "seeds", "repeats_at_seed", "prompt_formats", "parallelism",
              "n_initial", "max_iterations", "out_dir", "llm", "model_overrides")


@dataclass(frozen=True)
class LLMConfig:
    """A config's `llm` section (README); a `matcher` of None or "" is offline."""

    client: Optional[str] = None
    matcher: Optional[str] = None
    offline_reports: bool = False
    backoff: float = 1.0
    rate_limit: Optional[int] = None

    def __post_init__(self):
        if self.backoff < 0:
            raise ConfigError(f"backoff must be >= 0 (seconds), got {self.backoff}")
        if self.rate_limit is not None and self.rate_limit < 1:
            raise ConfigError(f"rate_limit must be >= 1 (requests/minute), got {self.rate_limit}")


def _chat_client_factory(descriptor, rate_limiter):
    """Parse 'mock:TEXT', 'replay:PATH' or 'live:ENDPOINT|MODEL' (or None)
    into (a function that builds a fresh client, the descriptor to record):
    a replay client's position belongs to one run. Replay fixtures are read
    once, here, and recorded by their digest, not their path."""
    if descriptor is None:
        return None, None
    kind, _, rest = descriptor.partition(":")
    if kind == "mock":
        return (lambda: ConstantChatClient(rest)), descriptor
    if kind == "replay":
        try:
            records = load_fixtures(rest)
        except ValueError as exc:
            raise ConfigError(f"bad replay fixtures in {rest}: {exc}") from exc
        fixtures = json.dumps([[r.response_text, r.request_digest] for r in records]).encode()
        return (lambda: ScriptedChatClient(records)), f"replay:sha256:{hashlib.sha256(fixtures).hexdigest()}"
    endpoint, _, model = rest.partition("|")
    if kind == "live" and endpoint and model:
        return (lambda: LiveChatClient(endpoint=endpoint, model=model, rate_limiter=rate_limiter)), descriptor
    raise ConfigError(f"'llm.client' must be mock:TEXT, replay:PATH or live:ENDPOINT|MODEL, got {descriptor!r}")


def _rerank_client(descriptor) -> Optional[LiveRerankClient]:
    """None for 'offline' (the default); a client for 'rerank:ENDPOINT[|MODEL]'."""
    if descriptor in (None, "", "offline"):
        return None
    kind, _, rest = descriptor.partition(":")
    endpoint, _, model = rest.partition("|")
    if kind != "rerank" or not endpoint:
        raise ConfigError(f"'llm.matcher' must be offline or rerank:ENDPOINT[|MODEL], got {descriptor!r}")
    return LiveRerankClient(endpoint=endpoint, model=model)


def proposer_factory(cfg: dict, kinds, workers: int = 1, **flags):
    """Check a config and build, once, what the proposers of its runs share.

    The one reader of the `llm` and `model_overrides` sections, with
    `read_config`; `flags` are `llm` fields that override the section's. A
    model_overrides section takes its model config's fields; a model's seed
    comes from the run. ConfigError on a malformed section, or LLM runs among
    `kinds` without a chat client. It builds the settings, the rerank client
    and, with `llm.rate_limit` set, one TokenBucket with that budget split
    between `workers` processes. Returns (new_proposer, settings, workers):
    new_proposer(run_config) makes a fresh proposer, with a fresh chat
    client; workers drops to 1 when LLM runs call a live client with no rate
    limit, so that their calls are serialized.
    """
    from .proposers import DEFAULT_SETTINGS, SURROGATES, ProposerSettings, make_proposer  # not on `report`'s path

    llm = replace(read_config(LLMConfig, cfg.get("llm"), "llm"), **flags)
    rerank_client = _rerank_client(llm.matcher)
    llm_runs = ProposerKind.LLM in kinds
    if llm_runs and llm.rate_limit is None and str(llm.client).startswith("live:"):
        workers = 1
    limiter = TokenBucket(max(1, llm.rate_limit // workers)) if llm.rate_limit is not None else None
    new_chat_client, client = _chat_client_factory(llm.client, limiter)
    if llm_runs and new_chat_client is None:
        raise ConfigError("LLM runs need a chat client (flag --client or config llm.client)")
    overrides = check_keys(cfg.get("model_overrides"), "model_overrides", [s for s, _ in SURROGATES.values()])
    models = {section: read_config(type(getattr(DEFAULT_SETTINGS, section)), values, f"model_overrides.{section}")
              for section, values in overrides.items()}
    matcher = llm.matcher or "offline"
    settings = ProposerSettings(**models, matcher=matcher, offline_reports=llm.offline_reports, client=client)

    def new_proposer(config: RunConfig):
        chat_client = new_chat_client() if new_chat_client and config.proposer is ProposerKind.LLM else None
        return make_proposer(
            config, settings, chat_client=chat_client, rerank_client=rerank_client, backoff=llm.backoff
        )

    return new_proposer, settings, workers


def execute_run(
    dataset: Dataset, header_entry: dict, config: RunConfig, out_path, new_proposer, settings
) -> Trajectory:
    """Run one configuration with the proposer `new_proposer(config)`, built
    with `settings`, persist its trajectory (partial on abort) and return it."""
    proposer = new_proposer(config)
    record = settings.record(config.proposer)
    try:
        trajectory = run_active_learning(dataset, config, proposer)
    except RunAborted as exc:
        write_trajectory(exc.partial, out_path, header_entry, record)
        raise
    write_trajectory(trajectory, out_path, header_entry, record)
    return trajectory


# --- run command -------------------------------------------------------------


def _read_config(path, known) -> dict:
    """The JSON object in the file at `path`; ConfigError on a key outside `known`."""
    with open(path) as fh:
        return check_keys(json.load(fh), str(path), known)


def cmd_run(args) -> int:
    cfg = _read_config(args.config, RUN_KEYS) if args.config else {}
    run_flags = {field.name: getattr(args, field.name) for field in fields(RunConfig)}
    run_section = check_keys(cfg.get("run"), "run", run_flags)
    config = RunConfig.from_dict({**run_section, **{k: v for k, v in run_flags.items() if v is not None}})
    llm_flags = {"client": args.client, "matcher": args.matcher, "offline_reports": args.offline_reports}
    new_proposer, settings, _ = proposer_factory(cfg, {config.proposer}, **{k: v for k, v in llm_flags.items() if v})
    dataset_like = args.dataset or cfg.get("dataset")
    if dataset_like is None:
        raise ConfigError("no dataset given (flag --dataset or config dataset)")
    dataset, header_entry = build_dataset(dataset_like)
    config.validate(len(dataset))
    out_path = args.out or f"run_{config.digest(dataset.digest())[:16]}.jsonl"
    trajectory = execute_run(dataset, header_entry, config, out_path, new_proposer, settings)
    summary = analytics.summary_row(config, dataset, "ok", trajectory)
    frac = summary["data_fraction"]
    print(
        f"{config.proposer.value} on {dataset.name}: "
        f"iterations_to_optimum={summary['iterations_to_optimum']} "
        f"data_fraction={frac:.3f} best={summary['final_best']:g} -> {out_path}"
    )
    return EXIT_OK


# --- sweep command -----------------------------------------------------------

def expand_sweep(cfg: dict) -> list[dict]:
    """Factorial grid over proposers, alphas, seeds, repeats, and formats."""
    from .proposers import SURROGATES

    def axis(key, default, allowed, what):
        values = cfg.get(key, default)
        if not (isinstance(values, list) and values and all(allowed(v) for v in values)):
            raise ConfigError(f"'{key}' must be a non-empty list of {what}, got {values!r}")
        if len(set(values)) < len(values):  # 1 == 1.0: one cell, written twice
            raise ConfigError(f"'{key}' repeats a value, got {values!r}")
        return values

    kinds, formats = [k.value for k in ProposerKind], [f.value for f in PromptFormat]
    proposers = axis("proposers", None, kinds.__contains__, kinds)
    alphas = axis("alphas", [0, 1, 2, 3, 4, 5], lambda a: is_real(a, 0), "finite numbers >= 0")
    seeds = axis("seeds", [38, 39, 40, 41, 42], lambda s: is_int(s, 0), "integers >= 0")
    prompt_formats = axis("prompt_formats", ["parameter"], formats.__contains__, formats)
    repeats = cfg.get("repeats_at_seed", {"42": 5})
    if not (isinstance(repeats, dict) and all(is_int(v, 1) for v in repeats.values())):
        raise ConfigError(f"'repeats_at_seed' must map integer seeds to integers >= 1, got {repeats!r}")
    # each key the config gives must be str(seed) for a grid seed ("042" and "+42" are not); the default need not
    stray = sorted(set(cfg.get("repeats_at_seed", {})) - {str(seed) for seed in seeds})
    if stray:
        raise ConfigError(f"'repeats_at_seed' keys {stray} name no seed in 'seeds' {seeds}")
    base = {key: cfg[key] for key in ("n_initial", "max_iterations") if key in cfg}
    tasks = []
    for name in proposers:
        kind = ProposerKind(name)
        alpha_grid = alphas if kind in SURROGATES else [0.0]  # only surrogates use alpha
        format_grid = prompt_formats if kind is ProposerKind.LLM else ["parameter"]
        for fmt in format_grid:
            for alpha in alpha_grid:
                for seed in seeds:
                    # only LLM runs repeat at a seed, to measure non-determinism
                    for rep in range(repeats.get(str(seed), 1) if kind is ProposerKind.LLM else 1):
                        tasks.append(
                            {
                                **base,
                                "proposer": kind.value,
                                "alpha": float(alpha),
                                "seed": int(seed),
                                "repeat_index": rep,
                                "prompt_format": fmt,
                            }
                        )
    return tasks


def _run_cell(
    dataset: Dataset, header_entry: dict, new_proposer, settings, config: RunConfig, out_path
) -> tuple[dict, Optional[Trajectory]]:
    """Execute one sweep cell on an already-built pool: (its summary row, its
    run); errors become a failed row and no run, or an aborted run's partial."""
    try:
        trajectory = execute_run(dataset, header_entry, config, out_path, new_proposer, settings)
    except AlbenchError as exc:
        partial = exc.partial if isinstance(exc, RunAborted) else None
        return analytics.summary_row(config, dataset, "failed", error=str(exc)), partial
    return analytics.summary_row(config, dataset, "ok", trajectory), trajectory


# (pool, header entry, new_proposer, settings) of a sweep worker process; set by _init_sweep_worker
_worker: Optional[tuple] = None


def _init_sweep_worker(dataset: Dataset, header_entry: dict, cfg: dict, kinds, workers: int) -> None:
    """Process-pool initializer: take the parent's pool and build the
    proposer factory once per worker."""
    global _worker
    _worker = (dataset, header_entry, *proposer_factory(cfg, kinds, workers)[:2])


def _sweep_worker(task: tuple[RunConfig, Path]) -> tuple[dict, Optional[Trajectory]]:
    """Execute one sweep cell in a worker process, on the worker's pool."""
    return _run_cell(*_worker, *task)


def _pool_cells(tasks: list, workers: int, initargs: tuple, keep) -> list:
    """Run sweep cells on a fresh pool of `workers` processes and pass each
    result to `keep`; return the cells left without one. A dead worker
    breaks the whole pool, so those are the cells unfinished at that time."""
    lost = []
    with concurrent.futures.ProcessPoolExecutor(workers, initializer=_init_sweep_worker, initargs=initargs) as pool:
        futures = {pool.submit(_sweep_worker, task): task for task in tasks}
        for future in concurrent.futures.as_completed(futures):
            try:
                keep(futures[future][1], *future.result())
            except concurrent.futures.BrokenExecutor:
                lost.append(futures[future])
    return lost


def cmd_sweep(args) -> int:
    """Run every cell of the sweep grid that has no complete stored run,
    then write `summary.csv` and the report exports.

    The pool is loaded once per command. Serial cells share it; worker
    processes get it from the parent and send each run back. `runs/` is
    read once, before any cell runs; a cell that runs again replaces its
    stored run in the export, an aborted one with its partial. A dead
    worker breaks its pool: each cell left unfinished runs once more, alone
    in a fresh worker, and fails if that worker dies too.
    The proposer factory is built once per process. This relies on Dataset
    being immutable, since each caches its digest and z-scores.
    """
    cfg = _read_config(args.config, SWEEP_KEYS)
    if "dataset" not in cfg:
        raise ConfigError("sweep config needs a 'dataset' entry")
    configs = [RunConfig.from_dict(cell) for cell in expand_sweep(cfg)]
    parallelism = cfg.get("parallelism", 0)
    if not is_int(parallelism, 0):
        raise ConfigError(f"'parallelism' must be an integer >= 0 (0: one worker per core), got {parallelism!r}")
    kinds = {config.proposer for config in configs}
    new_proposer, settings, workers = proposer_factory(cfg, kinds, parallelism or os.cpu_count() or 1)
    dataset, header_entry = build_dataset(cfg["dataset"])
    for config in configs:
        config.validate(len(dataset))
    out_dir = cfg.get("out_dir")
    if out_dir is not None and not isinstance(out_dir, str):
        raise ConfigError(f"'out_dir' must be a string, got {out_dir!r}")
    out_dir = Path(args.out_dir or out_dir or "sweep_results")
    runs_dir = out_dir / "runs"
    runs_dir.mkdir(parents=True, exist_ok=True)

    pool_digest = dataset.digest()
    pools = {pool_digest: dataset}
    stored = read_runs(runs_dir, pools)
    runs = {path: run for path, (_, run) in stored.items()}
    rows, tasks = [], []

    def keep(out_path, row, trajectory):
        rows.append(row)
        if trajectory is not None:
            runs[out_path] = trajectory

    def complete(header: dict, run: Trajectory) -> bool:
        """A stored run stands for its cell if it ran on this pool with these
        settings (compared as JSON) and hit the optimum or its iteration cap."""
        same_settings = json.dumps(header.get("settings"), sort_keys=True) == json.dumps(
            settings.record(run.config.proposer), sort_keys=True)
        done = run.reached_optimum_at is not None or len(run.steps) >= run.config.resolved_max_iterations(len(dataset))
        return run.dataset_digest == pool_digest and same_settings and done

    for config in configs:
        out_path = runs_dir / f"{config.digest(pool_digest)[:16]}.jsonl"
        if out_path in stored and complete(*stored[out_path]):
            run = runs[out_path]
            keep(out_path, analytics.summary_row(run.config, dataset, "skipped", run), run)
        else:
            tasks.append((config, out_path))

    if workers > 1 and len(tasks) > 1:
        if any(config.proposer is ProposerKind.GPR for config, _ in tasks):
            from . import gpr  # noqa: F401 -- load scipy once; the forked workers share it

        initargs = (dataset, header_entry, cfg, kinds, workers)
        for task in _pool_cells(tasks, workers, initargs, keep):
            for config, out_path in _pool_cells([task], 1, initargs, keep):
                keep(out_path, analytics.summary_row(config, dataset, "failed", error="worker died"), None)
    else:
        for config, out_path in tasks:
            keep(out_path, *_run_cell(dataset, header_entry, new_proposer, settings, config, out_path))

    rows.sort(key=lambda r: (r["proposer"], r["prompt_format"], r["alpha"], r["seed"], r["repeat_index"]))
    summary_path = out_dir / "summary.csv"
    analytics.write_csv(summary_path, analytics.SUMMARY_FIELDS, (row.values() for row in rows))

    failed = [r for r in rows if r["status"] == "failed"]
    print(f"sweep: {len(rows)} runs ({len(rows) - len(tasks)} resumed, {len(failed)} failed) -> {summary_path}")
    try:
        analytics.write_reports(out_dir / "reports", pools, [runs[path] for path in sorted(runs)])
    except (AlbenchError, OSError) as exc:
        logger.warning("report export skipped: %s", exc)
    return EXIT_PARTIAL_SWEEP if failed else EXIT_OK


# --- report command ----------------------------------------------------------


def cmd_report(args) -> int:
    results_dir = Path(args.results)
    if not results_dir.is_dir():
        raise ConfigError(f"{results_dir} is not a directory")
    pools = {}
    runs = read_runs(results_dir, pools)
    if not runs:
        raise ConfigError(f"no readable trajectories in {results_dir}")
    out_dir = Path(args.out_dir or results_dir / "reports")
    analytics.write_reports(out_dir, pools, [run for _, run in runs.values()])
    print(f"report exports written to {out_dir}")
    return EXIT_OK


# --- entry point -------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="albench", description=__doc__)
    parser.add_argument("--log-level", default="WARNING")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a single active-learning run")
    p_run.add_argument("--config", help="JSON run config file")
    p_run.add_argument("--dataset", help="synthetic:<kind>:<n>[:<seed>]")
    p_run.add_argument("--proposer", choices=[k.value for k in ProposerKind])
    p_run.add_argument("--alpha", type=float)
    p_run.add_argument("--seed", type=int)
    p_run.add_argument("--repeat", type=int, dest="repeat_index")
    p_run.add_argument("--n-initial", type=int, dest="n_initial")
    p_run.add_argument("--max-iterations", type=int, dest="max_iterations")
    p_run.add_argument("--prompt-format", choices=[f.value for f in PromptFormat], dest="prompt_format")
    p_run.add_argument("--client", help="mock:TEXT | replay:PATH | live:ENDPOINT|MODEL")
    p_run.add_argument("--matcher", help="offline | rerank:ENDPOINT[|MODEL]")
    p_run.add_argument("--offline-reports", action="store_true", dest="offline_reports")
    p_run.add_argument("--out", help="trajectory output path")
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="run a factorial sweep from a JSON config")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--out-dir", dest="out_dir")
    p_sweep.set_defaults(func=cmd_sweep)

    p_report = sub.add_parser("report", help="export plot-ready CSVs from trajectories")
    p_report.add_argument("--results", required=True, help="directory of trajectory .jsonl files")
    p_report.add_argument("--out-dir", dest="out_dir")
    p_report.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=getattr(logging, str(args.log_level).upper(), logging.WARNING))
    try:
        return args.func(args)
    except (ConfigError, OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except RunAborted as exc:
        print(f"run aborted: {exc} (partial trajectory preserved)", file=sys.stderr)
        return EXIT_RUN_FAILURE
    except AlbenchError as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return EXIT_RUN_FAILURE


if __name__ == "__main__":
    sys.exit(main())
