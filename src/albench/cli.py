"""Command-line front end: single runs, sweeps, and analytics export.

Exit codes: 0 success, 1 configuration error, 2 run failure, 3 partial
sweep failure. Configs are JSON; credentials come from the environment
(LLM_API_KEY, RERANK_API_KEY), never from config files.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import csv
import json
import logging
import math
import os
import sys
from dataclasses import fields, replace
from pathlib import Path
from typing import Optional

from . import analytics
from .bnn import BNNConfig
from .clients import ConstantChatClient, LiveChatClient, LiveRerankClient, ScriptedChatClient
from .data import (
    DatasetSpec,
    dataset_from_header_entry,
    dataset_header_entry,
    load_csv,
    parse_synthetic_string,
    registry_by_name,
)
from .engine import (
    reached_optimum_at,
    read_trajectory,
    rebuild_trajectory,
    run_active_learning,
    write_trajectory,
)
from .errors import AlbenchError, ConfigError, RunAborted
from .forest_gbt import ForestConfig, GBTConfig
from .llm import MatcherBackend
from .proposers import FIT_PREDICT, make_proposer
from .types import Dataset, Goal, PromptFormat, ProposerKind, RunConfig, StepRecord, Trajectory

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUN_FAILURE = 2
EXIT_PARTIAL_SWEEP = 3


# --- config assembly ---------------------------------------------------------


def build_dataset(spec_like) -> tuple[Dataset, dict]:
    """Resolve a dataset description into (pool, header entry).

    Accepts 'synthetic:<kind>:<n>[:<seed>]' strings, DatasetSpec dicts, or
    {'registry': <name>, 'csv_path': ..., <overrides>} dicts.
    """
    if isinstance(spec_like, str):
        if spec_like.startswith("synthetic:"):
            return parse_synthetic_string(spec_like), {"source": spec_like}
        raise ConfigError(f"unrecognized dataset string {spec_like!r}")
    if not isinstance(spec_like, dict):
        raise ConfigError(f"dataset must be a string or object, got {type(spec_like).__name__}")
    if "source" in spec_like:  # header entry round-trip
        return dataset_from_header_entry(spec_like), dict(spec_like)
    if "registry" in spec_like:
        spec = registry_by_name(spec_like["registry"])
        overrides = {
            k: v
            for k, v in spec_like.items()
            if k in ("csv_path", "target_column", "context", "name") and v is not None
        }
        if "feature_columns" in spec_like and spec_like["feature_columns"]:
            overrides["feature_columns"] = tuple(spec_like["feature_columns"])
        if "goal" in spec_like and spec_like["goal"]:
            overrides["goal"] = Goal(spec_like["goal"])
        spec = replace(spec, **overrides)
        dataset = load_csv(spec)
        return dataset, dataset_header_entry(dataset, spec)
    spec = DatasetSpec.from_dict(spec_like)
    dataset = load_csv(spec)
    return dataset, dataset_header_entry(dataset, spec)


def build_chat_client(descriptor: str, rate_limiter=None):
    """Parse 'mock:TEXT', 'replay:PATH', or 'live:ENDPOINT|MODEL'."""
    kind, _, rest = descriptor.partition(":")
    if kind == "mock":
        return ConstantChatClient(rest)
    if kind == "replay":
        return ScriptedChatClient.from_file(rest)
    if kind == "live":
        endpoint, _, model = rest.partition("|")
        if not endpoint or not model:
            raise ConfigError("live client descriptor must be live:ENDPOINT|MODEL")
        return LiveChatClient(endpoint=endpoint, model=model, rate_limiter=rate_limiter)
    raise ConfigError(f"unknown chat client descriptor {descriptor!r}")


def build_matcher(descriptor: Optional[str]):
    """Parse 'offline' or 'rerank:ENDPOINT[|MODEL]' into (backend, client)."""
    if not descriptor or descriptor == "offline":
        return MatcherBackend.OFFLINE_NEAREST, None
    kind, _, rest = descriptor.partition(":")
    if kind == "rerank":
        endpoint, _, model = rest.partition("|")
        if not endpoint:
            raise ConfigError("rerank matcher descriptor must be rerank:ENDPOINT[|MODEL]")
        return MatcherBackend.RERANK_API, LiveRerankClient(endpoint=endpoint, model=model)
    raise ConfigError(f"unknown matcher descriptor {descriptor!r}")


def _model_configs(overrides: Optional[dict]):
    """(forest, gbt, bnn, gpr standardize_targets) from a config's model_overrides.

    Raises ConfigError on an unknown section or key, or a value of the wrong type.
    """
    overrides = overrides or {}
    if not isinstance(overrides, dict):
        raise ConfigError("model_overrides must be an object")
    classes = {"forest": ForestConfig, "gbt": GBTConfig, "bnn": BNNConfig}
    # forest and bnn fits take a fresh seed from the run's model stream every
    # step, so a seed override would select nothing
    known = {name: {f.name for f in fields(cls)} - {"seed"} for name, cls in classes.items()}
    known["gpr"] = {"standardize_targets"}
    built = {}
    for section, values in overrides.items():
        if section not in known:
            raise ConfigError(f"unknown model_overrides section {section!r}; known: {sorted(known)}")
        values = values or {}
        if not isinstance(values, dict):
            raise ConfigError(f"model_overrides.{section} must be an object")
        unknown = sorted(set(values) - known[section])
        if unknown:
            raise ConfigError(
                f"unknown model_overrides.{section} keys {unknown}; known: {sorted(known[section])}"
            )
        if section in classes and values:
            try:
                built[section] = classes[section](**values)
            except TypeError as exc:
                raise ConfigError(f"bad model_overrides.{section} value: {exc}") from exc
    gpr_std = bool((overrides.get("gpr") or {}).get("standardize_targets", False))
    return built.get("forest"), built.get("gbt"), built.get("bnn"), gpr_std


def execute_run(
    dataset: Dataset,
    header_entry: dict,
    config: RunConfig,
    out_path,
    llm_options: Optional[dict] = None,
    model_overrides: Optional[dict] = None,
) -> dict:
    """Run one configuration and persist its trajectory (partial on abort)."""
    llm_options = llm_options or {}
    chat_client = None
    matcher, rerank_client = MatcherBackend.OFFLINE_NEAREST, None
    if config.proposer is ProposerKind.LLM:
        limiter = None
        if llm_options.get("rate_limit"):
            from .clients import TokenBucket

            limiter = TokenBucket(int(llm_options["rate_limit"]))
        chat_client = build_chat_client(llm_options.get("client", ""), rate_limiter=limiter)
        matcher, rerank_client = build_matcher(llm_options.get("matcher"))
    forest, gbt, bnn, gpr_std = _model_configs(model_overrides)
    proposer = make_proposer(
        config,
        chat_client=chat_client,
        matcher=matcher,
        rerank_client=rerank_client,
        offline_reports=bool(llm_options.get("offline_reports", False)),
        forest_config=forest,
        gbt_config=gbt,
        bnn_config=bnn,
        gpr_standardize_targets=gpr_std,
        backoff=float(llm_options.get("backoff", 1.0)),
    )
    try:
        trajectory = run_active_learning(dataset, config, proposer)
    except RunAborted as exc:
        if exc.partial is not None and out_path is not None:
            write_trajectory(exc.partial, out_path, header_entry)
        raise
    if out_path is not None:
        write_trajectory(trajectory, out_path, header_entry)
    return summary_row(config, dataset, "ok", trajectory)


SUMMARY_FIELDS = [
    "digest",
    "proposer",
    "alpha",
    "seed",
    "repeat_index",
    "prompt_format",
    "pool_size",
    "steps",
    "iterations_to_optimum",
    "data_fraction",
    "final_best",
    "mean_match_score",
    "status",
    "error",
]


def summary_row(
    config: RunConfig,
    dataset: Dataset,
    status: str,
    trajectory: Optional[Trajectory] = None,
    error: str = "",
) -> dict:
    """One `summary.csv` row; the outcome columns stay empty without a trajectory."""
    stored_digest = trajectory.run_config_digest[:16] if trajectory is not None else ""
    row = dict.fromkeys(SUMMARY_FIELDS)
    row.update(
        digest=stored_digest or config.digest(dataset.digest())[:16],
        proposer=config.proposer.value,
        alpha=config.alpha,
        seed=config.seed,
        repeat_index=config.repeat_index,
        prompt_format=config.prompt_format.value,
        pool_size=len(dataset),
        status=status,
        error=error,
    )
    if trajectory is not None:
        row.update(
            steps=len(trajectory.steps),
            iterations_to_optimum=trajectory.reached_optimum_at,
            data_fraction=trajectory.data_fraction_used,
            final_best=trajectory.final_best,
            mean_match_score=trajectory.mean_match_score(),
        )
    return row


# --- run command -------------------------------------------------------------


def _run_config_from(cfg: dict) -> RunConfig:
    try:
        return RunConfig.from_dict(cfg)
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"bad run config: {exc}") from exc


def cmd_run(args) -> int:
    cfg = {}
    if args.config:
        with open(args.config) as fh:
            cfg = json.load(fh)
    overrides = {
        "proposer": args.proposer,
        "alpha": args.alpha,
        "seed": args.seed,
        "repeat_index": args.repeat,
        "n_initial": args.n_initial,
        "max_iterations": args.max_iterations,
        "prompt_format": args.prompt_format,
    }
    run_cfg_dict = dict(cfg.get("run", {}))
    for key, value in overrides.items():
        if value is not None:
            run_cfg_dict[key] = value
    if "proposer" not in run_cfg_dict:
        raise ConfigError("no proposer given (flag --proposer or config run.proposer)")
    dataset_like = args.dataset or cfg.get("dataset")
    if dataset_like is None:
        raise ConfigError("no dataset given (flag --dataset or config dataset)")
    dataset, header_entry = build_dataset(dataset_like)
    config = _run_config_from(run_cfg_dict)
    config.validate(len(dataset))

    llm_options = dict(cfg.get("llm", {}))
    if args.client:
        llm_options["client"] = args.client
    if args.matcher:
        llm_options["matcher"] = args.matcher
    if args.offline_reports:
        llm_options["offline_reports"] = True

    out_path = args.out or f"run_{config.digest(dataset.digest())[:16]}.jsonl"
    summary = execute_run(
        dataset, header_entry, config, out_path, llm_options, cfg.get("model_overrides")
    )
    frac = summary["data_fraction"]
    print(
        f"{config.proposer.value} on {dataset.name}: "
        f"iterations_to_optimum={summary['iterations_to_optimum']} "
        f"data_fraction={frac:.3f} best={summary['final_best']:g} -> {out_path}"
    )
    return EXIT_OK


# --- sweep command -----------------------------------------------------------

# What reading a stored trajectory raises when the file is missing, torn or
# malformed (json.JSONDecodeError is a ValueError).
_UNREADABLE = (OSError, ValueError, KeyError, TypeError, AlbenchError)


def _is_int(value, low: int) -> bool:
    """An integer >= low; bool is an int subclass, and JSON true/false is no count."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= low


def expand_sweep(cfg: dict) -> list[dict]:
    """Factorial grid over proposers, alphas, seeds, repeats, and formats."""
    proposers = cfg.get("proposers")
    kinds = [k.value for k in ProposerKind]
    if not (isinstance(proposers, list) and proposers and all(p in kinds for p in proposers)):
        raise ConfigError(f"'proposers' must be a non-empty list of {kinds}, got {proposers!r}")
    alphas = cfg.get("alphas", [0, 1, 2, 3, 4, 5])
    seeds = cfg.get("seeds", [38, 39, 40, 41, 42])
    # bool is an int subclass, and JSON true/false is no alpha or seed
    if not (isinstance(alphas, list) and alphas and all(
        isinstance(a, (int, float)) and not isinstance(a, bool) and math.isfinite(a) and a >= 0
        for a in alphas
    )):
        raise ConfigError(f"'alphas' must be a non-empty list of finite numbers >= 0, got {alphas!r}")
    if not (isinstance(seeds, list) and seeds and all(
        isinstance(s, int) and not isinstance(s, bool) for s in seeds
    )):
        raise ConfigError(f"'seeds' must be a non-empty list of integers, got {seeds!r}")
    prompt_formats = cfg.get("prompt_formats", ["parameter"])
    formats = [f.value for f in PromptFormat]
    if not (isinstance(prompt_formats, list) and prompt_formats and all(f in formats for f in prompt_formats)):
        raise ConfigError(f"'prompt_formats' must be a non-empty list of {formats}, got {prompt_formats!r}")
    repeats = cfg.get("repeats_at_seed", {"42": 5})
    try:
        repeats_at_seed = {int(k): v for k, v in repeats.items()}
    except (AttributeError, TypeError, ValueError):
        repeats_at_seed = None
    if repeats_at_seed is None or not all(_is_int(v, 1) for v in repeats_at_seed.values()):
        raise ConfigError(f"'repeats_at_seed' must map integer seeds to integers >= 1, got {repeats!r}")
    base = {
        "n_initial": cfg.get("n_initial", 1),
        "max_iterations": cfg.get("max_iterations"),
    }
    tasks = []
    for name in proposers:
        kind = ProposerKind(name)
        alpha_grid = alphas if kind in FIT_PREDICT else [0.0]  # only surrogates use alpha
        format_grid = prompt_formats if kind is ProposerKind.LLM else ["parameter"]
        for fmt in format_grid:
            for alpha in alpha_grid:
                for seed in seeds:
                    repeats = [0]
                    if kind is ProposerKind.LLM:
                        repeats += list(range(1, repeats_at_seed.get(int(seed), 1)))
                    for rep in repeats:
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


def _read_complete(path, dataset: Dataset) -> Optional[tuple[dict, list[StepRecord]]]:
    """The stored (header, steps) if the run at `path` is complete, else None.

    A run is complete if it hit the optimum or its iteration cap. A file
    that cannot be read, is torn, has a malformed header or ran on another
    pool counts as incomplete, so its cell runs again.
    """
    try:
        header, steps = read_trajectory(path)
        config = RunConfig.from_dict(header["run_config"])
    except _UNREADABLE:
        return None
    if not steps or header.get("dataset_digest") != dataset.digest():
        return None
    reached = reached_optimum_at(steps, dataset.optimum_value) is not None
    if reached or len(steps) >= config.resolved_max_iterations(len(dataset)):
        return header, steps
    return None


def _run_cell(dataset: Dataset, header_entry: dict, task: dict) -> dict:
    """Execute one sweep cell on an already-built pool; errors become a failed row."""
    config = RunConfig.from_dict(task["run"])
    try:
        return execute_run(
            dataset,
            header_entry,
            config,
            task["out_path"],
            task.get("llm"),
            task.get("model_overrides"),
        )
    except AlbenchError as exc:
        return summary_row(config, dataset, "failed", error=str(exc))


# (pool, header entry) of a sweep worker process; set by _init_sweep_worker
_worker_pool: Optional[tuple[Dataset, dict]] = None


def _init_sweep_worker(dataset_entry: dict) -> None:
    """Process-pool initializer: build the sweep's pool once per worker."""
    global _worker_pool
    _worker_pool = build_dataset(dataset_entry)


def _sweep_worker(task: dict) -> dict:
    """Execute one sweep cell in a worker process, on the worker's pool."""
    return _run_cell(*_worker_pool, task)


def cmd_sweep(args) -> int:
    """Run every cell of the sweep grid that has no complete stored run.

    The pool is built once per process: serial cells share the sweep's
    Dataset, and each worker process builds its own once. This relies on
    Dataset being immutable, since each caches its digest and z-scores.
    """
    with open(args.config) as fh:
        cfg = json.load(fh)
    if "dataset" not in cfg:
        raise ConfigError("sweep config needs a 'dataset' entry")
    dataset, header_entry = build_dataset(cfg["dataset"])
    grid = expand_sweep(cfg)
    configs = [_run_config_from(cell) for cell in grid]
    for config in configs:
        config.validate(len(dataset))
    _model_configs(cfg.get("model_overrides"))  # a bad override fails the sweep, not each cell
    parallelism = cfg.get("parallelism", 0)
    if not _is_int(parallelism, 0):
        raise ConfigError(f"'parallelism' must be an integer >= 0 (0: one worker per core), got {parallelism!r}")
    llm_cfg = cfg.get("llm") or {}
    if not isinstance(llm_cfg, dict):
        raise ConfigError(f"'llm' must be an object, got {llm_cfg!r}")
    if llm_cfg.get("rate_limit") is not None and not _is_int(llm_cfg["rate_limit"], 1):
        raise ConfigError(f"'llm.rate_limit' must be an integer >= 1 (requests/minute), got {llm_cfg['rate_limit']!r}")
    out_dir = Path(args.out_dir or cfg.get("out_dir") or "sweep_results")
    runs_dir = out_dir / "runs"
    runs_dir.mkdir(parents=True, exist_ok=True)

    parallelism = parallelism or (os.cpu_count() or 1)
    llm_cfg = dict(llm_cfg)
    any_llm = any(cell["proposer"] == "llm" for cell in grid)
    if any_llm and not llm_cfg.get("rate_limit"):
        parallelism = 1  # serialize LLM calls unless a rate limit is configured
    elif llm_cfg.get("rate_limit") and parallelism > 1:
        # workers hold independent buckets; split the budget between them
        llm_cfg["rate_limit"] = max(1, int(llm_cfg["rate_limit"]) // parallelism)

    tasks, skipped = [], []
    for config in configs:
        digest = config.digest(dataset.digest())[:16]
        out_path = runs_dir / f"{digest}.jsonl"
        stored = _read_complete(out_path, dataset) if out_path.exists() else None
        if stored is not None:
            skipped.append(stored)
            continue
        tasks.append(
            {
                "run": config.to_dict(),
                "out_path": str(out_path),
                "llm": llm_cfg,
                "model_overrides": cfg.get("model_overrides"),
            }
        )

    results = []
    if parallelism > 1 and len(tasks) > 1:
        if any(t["run"]["proposer"] == ProposerKind.GPR.value for t in tasks):
            from . import gpr  # noqa: F401 -- load scipy once; the forked workers share it

        with concurrent.futures.ProcessPoolExecutor(
            max_workers=parallelism, initializer=_init_sweep_worker, initargs=(header_entry,)
        ) as pool:
            results.extend(pool.map(_sweep_worker, tasks))
    else:
        results.extend(_run_cell(dataset, header_entry, t) for t in tasks)

    for header, steps in skipped:
        trajectory = rebuild_trajectory(header, steps, dataset)
        results.append(summary_row(trajectory.config, dataset, "skipped", trajectory))

    results.sort(key=lambda r: (r["proposer"], r["prompt_format"], r["alpha"], r["seed"], r["repeat_index"]))
    summary_path = out_dir / "summary.csv"
    with open(summary_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=SUMMARY_FIELDS)
        writer.writeheader()
        writer.writerows(results)

    failed = [r for r in results if r["status"] == "failed"]
    print(
        f"sweep: {len(results)} runs ({len(skipped)} resumed, {len(failed)} failed) "
        f"-> {summary_path}"
    )
    try:
        _export_reports(runs_dir, out_dir / "reports")
    except AlbenchError as exc:
        logger.warning("report export skipped: %s", exc)
    return EXIT_PARTIAL_SWEEP if failed else EXIT_OK


# --- report command ----------------------------------------------------------


def _load_records(results_dir: Path):
    """Parse every trajectory in a directory, skipping corrupt files."""
    records = []
    pools: dict[str, tuple[Dataset, str]] = {}  # header digest -> (pool, its actual digest)
    for path in sorted(results_dir.glob("*.jsonl")):
        try:
            header, steps = read_trajectory(path)
            entry = header.get("dataset")
            if entry is None:
                raise ConfigError("no dataset entry in header")
            digest = header.get("dataset_digest", "")
            if digest not in pools:
                pool = dataset_from_header_entry(entry)
                pools[digest] = (pool, pool.digest())
            pool, actual = pools[digest]
            if actual != digest:
                raise ConfigError(
                    f"the rebuilt pool has digest {actual} but the run recorded {digest}; "
                    "was the dataset edited after the run?"
                )
            trajectory = rebuild_trajectory(header, steps, pool)
            records.append(analytics.RunRecord(trajectory=trajectory, pool=pool))
        except _UNREADABLE as exc:
            logger.warning("skipping %s: %s", path, exc)
    return records


def _export_reports(results_dir: Path, out_dir: Path) -> None:
    records = _load_records(results_dir)
    if not records:
        raise ConfigError(f"no readable trajectories in {results_dir}")
    out_dir.mkdir(parents=True, exist_ok=True)
    by_pool: dict[str, list[analytics.RunRecord]] = {}
    for rec in records:
        by_pool.setdefault(rec.trajectory.dataset_digest, []).append(rec)
    multi = len(by_pool) > 1
    for digest, group in by_pool.items():
        suffix = f"_{group[0].pool.name}" if multi else ""
        analytics.export_running_best(group, out_dir / f"running_best{suffix}.csv")
        analytics.export_distance_curves(group, out_dir / f"distance_curves{suffix}.csv")
        analytics.export_pca(
            group, out_dir / f"pca_coordinates{suffix}.csv", out_dir / f"pca_trajectories{suffix}.csv"
        )
        summaries = [analytics.summarize_trajectory(r.trajectory, r.pool) for r in group]
        finished = [s for s in summaries if s.iterations_to_optimum is not None]
        variability_path = out_dir / f"variability{suffix}.csv"
        if finished:
            analytics.export_variability(finished, variability_path)
        else:  # keep the family present even when no run reached the optimum
            with open(variability_path, "w", newline="", encoding="utf-8") as fh:
                csv.DictWriter(
                    fh,
                    fieldnames=["proposer", "alpha", "count", "mean", "std", "min", "max", "q1", "median", "q3"],
                ).writeheader()
        analytics.export_similarity_scores(group, out_dir / f"similarity_scores{suffix}.csv")


def cmd_report(args) -> int:
    results_dir = Path(args.results)
    if not results_dir.is_dir():
        raise ConfigError(f"{results_dir} is not a directory")
    _export_reports(results_dir, Path(args.out_dir or results_dir / "reports"))
    print(f"report exports written to {args.out_dir or results_dir / 'reports'}")
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
    p_run.add_argument("--repeat", type=int)
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
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (OSError, json.JSONDecodeError) as exc:
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
