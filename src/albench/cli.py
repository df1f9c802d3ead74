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
import os
import sys
from dataclasses import fields
from pathlib import Path
from typing import Optional

from . import analytics
from .bnn import BNNConfig
from .clients import (
    ConstantChatClient,
    LiveChatClient,
    LiveRerankClient,
    ScriptedChatClient,
    TokenBucket,
    load_fixtures,
)
from .data import DatasetSpec, dataset_from_header_entry, dataset_header_entry, load_csv, parse_synthetic_string
from .engine import (
    read_trajectory,
    rebuild_trajectory,
    run_active_learning,
    write_trajectory,
)
from .errors import AlbenchError, ConfigError, RunAborted
from .forest_gbt import ForestConfig, GBTConfig
from .proposers import FIT_PREDICT, make_proposer
from .types import Dataset, PromptFormat, ProposerKind, RunConfig, Trajectory, is_int, is_real

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUN_FAILURE = 2
EXIT_PARTIAL_SWEEP = 3


# --- config assembly ---------------------------------------------------------


def build_dataset(spec_like) -> tuple[Dataset, dict]:
    """Resolve a dataset description into (pool, header entry).

    Accepts 'synthetic:<kind>:<n>[:<seed>]' strings, header entries, and
    `dataset` objects, which `DatasetSpec.from_dict` checks.
    """
    if isinstance(spec_like, str):
        if spec_like.startswith("synthetic:"):
            return parse_synthetic_string(spec_like), {"source": spec_like}
        raise ConfigError(f"unrecognized dataset string {spec_like!r}")
    if not isinstance(spec_like, dict):
        raise ConfigError(f"dataset must be a string or object, got {type(spec_like).__name__}")
    if "source" in spec_like:  # header entry round-trip
        return dataset_from_header_entry(spec_like), dict(spec_like)
    spec = DatasetSpec.from_dict(spec_like)
    dataset = load_csv(spec)
    return dataset, dataset_header_entry(dataset, spec)


def _section(cfg: dict, name: str, parent: str = "") -> dict:
    """cfg[name] as an object ({} when absent or null); `parent` prefixes its name in errors."""
    value = cfg.get(name)
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ConfigError(f"'{parent}{name}' must be an object, got {value!r}")
    return value


def _chat_client_factory(descriptor, rate_limiter):
    """Parse 'mock:TEXT', 'replay:PATH' or 'live:ENDPOINT|MODEL' into a
    function that builds a fresh client: a replay client's position
    belongs to one run. Replay fixtures are read once, here."""
    kind, _, rest = descriptor.partition(":") if isinstance(descriptor, str) else (None, "", "")
    if kind == "mock":
        return lambda: ConstantChatClient(rest)
    if kind == "replay":
        try:
            records = load_fixtures(rest)
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad replay fixtures in {rest}: {exc!r}") from exc
        return lambda: ScriptedChatClient(records)
    endpoint, _, model = rest.partition("|")
    if kind == "live" and endpoint and model:
        return lambda: LiveChatClient(endpoint=endpoint, model=model, rate_limiter=rate_limiter)
    raise ConfigError(f"'llm.client' must be mock:TEXT, replay:PATH or live:ENDPOINT|MODEL, got {descriptor!r}")


def _rerank_client(descriptor) -> Optional[LiveRerankClient]:
    """None for 'offline' (the default); a client for 'rerank:ENDPOINT[|MODEL]'."""
    if descriptor in (None, "", "offline"):
        return None
    kind, _, rest = descriptor.partition(":") if isinstance(descriptor, str) else (None, "", "")
    endpoint, _, model = rest.partition("|")
    if kind != "rerank" or not endpoint:
        raise ConfigError(f"'llm.matcher' must be offline or rerank:ENDPOINT[|MODEL], got {descriptor!r}")
    return LiveRerankClient(endpoint=endpoint, model=model)


def _model_configs(overrides: dict) -> dict:
    """make_proposer's model keywords from a config's model_overrides.

    Raises ConfigError on an unknown section or key, or a value of the wrong type.
    """
    classes = {"forest": ForestConfig, "gbt": GBTConfig, "bnn": BNNConfig}
    # forest and bnn fits take a fresh seed from the run's model stream every
    # step, so a seed override would select nothing
    known = {name: {f.name for f in fields(cls)} - {"seed"} for name, cls in classes.items()}
    known["gpr"] = {"standardize_targets"}
    built = {}
    for section in overrides:
        if section not in known:
            raise ConfigError(f"unknown model_overrides section {section!r}; known: {sorted(known)}")
        values = _section(overrides, section, "model_overrides.")
        unknown = sorted(set(values) - known[section])
        if unknown:
            raise ConfigError(
                f"unknown model_overrides.{section} keys {unknown}; known: {sorted(known[section])}"
            )
        if section in classes and values:
            try:
                built[f"{section}_config"] = classes[section](**values)
            except TypeError as exc:
                raise ConfigError(f"bad model_overrides.{section} value: {exc}") from exc
    standardize = _section(overrides, "gpr").get("standardize_targets", False)
    if not isinstance(standardize, bool):
        raise ConfigError(f"'model_overrides.gpr.standardize_targets' must be true or false, got {standardize!r}")
    return {**built, "gpr_standardize_targets": standardize}


def proposer_factory(cfg: dict, kinds, workers: int = 1):
    """Check a config and build, once, what the proposers of its runs share.

    The one reader of the `llm` and `model_overrides` sections: ConfigError
    on a `run`, `llm` or `model_overrides` section that is not an object,
    an unknown key, a value of the wrong type, or LLM runs among `kinds`
    without a chat client. It builds the model configs, the rerank client
    and, with `llm.rate_limit` set, one TokenBucket with that budget split
    between `workers` processes. Returns (new_proposer, workers):
    new_proposer(run_config) makes a fresh proposer, with a fresh chat
    client; workers drops to 1 when LLM runs have no rate limit, so that
    their calls are serialized.
    """
    _section(cfg, "run")
    llm = _section(cfg, "llm")
    known = ["backoff", "client", "matcher", "offline_reports", "rate_limit"]
    unknown = sorted(set(llm) - set(known))
    if unknown:
        raise ConfigError(f"unknown llm keys {unknown}; known: {known}")
    rate_limit, backoff = llm.get("rate_limit"), llm.get("backoff", 1.0)
    if rate_limit is not None and not is_int(rate_limit, 1):
        raise ConfigError(f"'llm.rate_limit' must be an integer >= 1 (requests/minute), got {rate_limit!r}")
    if not is_real(backoff, 0):
        raise ConfigError(f"'llm.backoff' must be a finite number >= 0 (seconds), got {backoff!r}")
    offline_reports = llm.get("offline_reports", False)
    if not isinstance(offline_reports, bool):
        raise ConfigError(f"'llm.offline_reports' must be true or false, got {offline_reports!r}")
    keywords = {
        "rerank_client": _rerank_client(llm.get("matcher")),
        "offline_reports": offline_reports,
        "backoff": float(backoff),
        **_model_configs(_section(cfg, "model_overrides")),
    }
    llm_runs = ProposerKind.LLM in kinds
    if llm_runs and rate_limit is None:
        workers = 1
    limiter = TokenBucket(max(1, rate_limit // workers)) if rate_limit is not None else None
    new_chat_client = None if llm.get("client") is None else _chat_client_factory(llm["client"], limiter)
    if llm_runs and new_chat_client is None:
        raise ConfigError("LLM runs need a chat client (flag --client or config llm.client)")

    def new_proposer(config: RunConfig):
        chat_client = new_chat_client() if new_chat_client and config.proposer is ProposerKind.LLM else None
        return make_proposer(config, chat_client=chat_client, **keywords)

    return new_proposer, workers


def execute_run(dataset: Dataset, header_entry: dict, config: RunConfig, out_path, new_proposer=make_proposer) -> dict:
    """Run one configuration with the proposer `new_proposer(config)` and
    persist its trajectory (partial on abort)."""
    proposer = new_proposer(config)
    try:
        trajectory = run_active_learning(dataset, config, proposer)
    except RunAborted as exc:
        if exc.partial is not None and out_path is not None:
            write_trajectory(exc.partial, out_path, header_entry)
        raise
    if out_path is not None:
        write_trajectory(trajectory, out_path, header_entry)
    return summary_row(config, dataset, "ok", trajectory)


SUMMARY_FIELDS = [*analytics.IDENTITY, "pool_size", *analytics.OUTCOME, "status", "error"]


def summary_row(
    config: RunConfig,
    dataset: Dataset,
    status: str,
    trajectory: Optional[Trajectory] = None,
    error: str = "",
) -> dict:
    """One `summary.csv` row; the outcome columns stay empty without a trajectory."""
    if trajectory is None:
        columns = analytics.run_identity(config, config.digest(dataset.digest()))
    else:
        columns = analytics.summarize_trajectory(trajectory)
        columns["digest"] = columns["digest"] or config.digest(dataset.digest())[:16]
    row = dict.fromkeys(SUMMARY_FIELDS)
    row.update(columns, pool_size=len(dataset), status=status, error=error)
    return row


# --- run command -------------------------------------------------------------


def _read_config(path) -> dict:
    with open(path) as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ConfigError(f"a config must be a JSON object, got {type(cfg).__name__} in {path}")
    return cfg


def cmd_run(args) -> int:
    cfg = _read_config(args.config) if args.config else {}
    flags = {"client": args.client, "matcher": args.matcher, "offline_reports": args.offline_reports}
    cfg["llm"] = {**_section(cfg, "llm"), **{k: v for k, v in flags.items() if v}}
    overrides = {
        "proposer": args.proposer,
        "alpha": args.alpha,
        "seed": args.seed,
        "repeat_index": args.repeat,
        "n_initial": args.n_initial,
        "max_iterations": args.max_iterations,
        "prompt_format": args.prompt_format,
    }
    run_cfg_dict = {**_section(cfg, "run"), **{k: v for k, v in overrides.items() if v is not None}}
    if "proposer" not in run_cfg_dict:
        raise ConfigError("no proposer given (flag --proposer or config run.proposer)")
    config = RunConfig.from_dict(run_cfg_dict)
    new_proposer, _ = proposer_factory(cfg, {config.proposer})
    dataset_like = args.dataset or cfg.get("dataset")
    if dataset_like is None:
        raise ConfigError("no dataset given (flag --dataset or config dataset)")
    dataset, header_entry = build_dataset(dataset_like)
    config.validate(len(dataset))
    out_path = args.out or f"run_{config.digest(dataset.digest())[:16]}.jsonl"
    summary = execute_run(dataset, header_entry, config, out_path, new_proposer)
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


def expand_sweep(cfg: dict) -> list[dict]:
    """Factorial grid over proposers, alphas, seeds, repeats, and formats."""
    proposers = cfg.get("proposers")
    kinds = [k.value for k in ProposerKind]
    if not (isinstance(proposers, list) and proposers and all(p in kinds for p in proposers)):
        raise ConfigError(f"'proposers' must be a non-empty list of {kinds}, got {proposers!r}")
    alphas = cfg.get("alphas", [0, 1, 2, 3, 4, 5])
    seeds = cfg.get("seeds", [38, 39, 40, 41, 42])
    if not (isinstance(alphas, list) and alphas and all(is_real(a, 0) for a in alphas)):
        raise ConfigError(f"'alphas' must be a non-empty list of finite numbers >= 0, got {alphas!r}")
    if not (isinstance(seeds, list) and seeds and all(is_int(s, 0) for s in seeds)):
        raise ConfigError(f"'seeds' must be a non-empty list of integers >= 0, got {seeds!r}")
    prompt_formats = cfg.get("prompt_formats", ["parameter"])
    formats = [f.value for f in PromptFormat]
    if not (isinstance(prompt_formats, list) and prompt_formats and all(f in formats for f in prompt_formats)):
        raise ConfigError(f"'prompt_formats' must be a non-empty list of {formats}, got {prompt_formats!r}")
    repeats = cfg.get("repeats_at_seed", {"42": 5})
    try:
        repeats_at_seed = {int(k): v for k, v in repeats.items()}
    except (AttributeError, TypeError, ValueError):
        repeats_at_seed = None
    if repeats_at_seed is None or not all(is_int(v, 1) for v in repeats_at_seed.values()):
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


def _read_complete(path, dataset: Dataset) -> Optional[Trajectory]:
    """The stored run at `path`, rebuilt, if it is complete, else None.

    A run is complete if it hit the optimum or its iteration cap. A file
    that cannot be read, is torn, has a malformed header or ran on another
    pool counts as incomplete, so its cell runs again.
    """
    try:
        trajectory = rebuild_trajectory(*read_trajectory(path), dataset)
    except _UNREADABLE:
        return None
    cap = trajectory.config.resolved_max_iterations(len(dataset))
    if trajectory.steps and (trajectory.reached_optimum_at is not None or len(trajectory.steps) >= cap):
        return trajectory
    return None


def _run_cell(dataset: Dataset, header_entry: dict, new_proposer, config: RunConfig, out_path) -> dict:
    """Execute one sweep cell on an already-built pool; errors become a failed row."""
    try:
        return execute_run(dataset, header_entry, config, out_path, new_proposer)
    except AlbenchError as exc:
        return summary_row(config, dataset, "failed", error=str(exc))


# (pool, header entry, new_proposer) of a sweep worker process; set by _init_sweep_worker
_worker: Optional[tuple] = None


def _init_sweep_worker(dataset_entry: dict, cfg: dict, kinds, workers: int) -> None:
    """Process-pool initializer: build the sweep's pool and proposer factory
    once per worker."""
    global _worker
    _worker = (*build_dataset(dataset_entry), proposer_factory(cfg, kinds, workers)[0])


def _sweep_worker(task: tuple[RunConfig, Path]) -> dict:
    """Execute one sweep cell in a worker process, on the worker's pool."""
    return _run_cell(*_worker, *task)


def cmd_sweep(args) -> int:
    """Run every cell of the sweep grid that has no complete stored run.

    The pool and the proposer factory are built once per process: serial
    cells share the sweep's, and each worker process builds its own once.
    This relies on Dataset being immutable, since each caches its digest
    and z-scores.
    """
    cfg = _read_config(args.config)
    if "dataset" not in cfg:
        raise ConfigError("sweep config needs a 'dataset' entry")
    configs = [RunConfig.from_dict(cell) for cell in expand_sweep(cfg)]
    parallelism = cfg.get("parallelism", 0)
    if not is_int(parallelism, 0):
        raise ConfigError(f"'parallelism' must be an integer >= 0 (0: one worker per core), got {parallelism!r}")
    kinds = {config.proposer for config in configs}
    new_proposer, workers = proposer_factory(cfg, kinds, parallelism or os.cpu_count() or 1)
    dataset, header_entry = build_dataset(cfg["dataset"])
    for config in configs:
        config.validate(len(dataset))
    out_dir = Path(args.out_dir or cfg.get("out_dir") or "sweep_results")
    runs_dir = out_dir / "runs"
    runs_dir.mkdir(parents=True, exist_ok=True)

    tasks, skipped = [], []
    for config in configs:
        out_path = runs_dir / f"{config.digest(dataset.digest())[:16]}.jsonl"
        stored = _read_complete(out_path, dataset) if out_path.exists() else None
        if stored is not None:
            skipped.append(summary_row(stored.config, dataset, "skipped", stored))
        else:
            tasks.append((config, out_path))

    if workers > 1 and len(tasks) > 1:
        if any(config.proposer is ProposerKind.GPR for config, _ in tasks):
            from . import gpr  # noqa: F401 -- load scipy once; the forked workers share it

        with concurrent.futures.ProcessPoolExecutor(
            max_workers=workers, initializer=_init_sweep_worker, initargs=(header_entry, cfg, kinds, workers)
        ) as pool:
            results = list(pool.map(_sweep_worker, tasks))
    else:
        results = [_run_cell(dataset, header_entry, new_proposer, *task) for task in tasks]

    results += skipped
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
    """Parse every trajectory in a directory, skipping corrupt files and
    runs whose pool has changed since."""
    records = []
    pools: dict[str, Dataset] = {}  # recorded pool digest -> the pool rebuilt from its header entry
    for path in sorted(results_dir.glob("*.jsonl")):
        try:
            header, steps = read_trajectory(path)
            digest = header.get("dataset_digest", "")
            if digest not in pools:
                pools[digest] = dataset_from_header_entry(header.get("dataset"))
            trajectory = rebuild_trajectory(header, steps, pools[digest])
            records.append(analytics.RunRecord(trajectory=trajectory, pool=pools[digest]))
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
        summaries = [analytics.summarize_trajectory(r.trajectory) for r in group]
        analytics.export_variability(summaries, out_dir / f"variability{suffix}.csv")
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
