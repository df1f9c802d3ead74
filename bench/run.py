"""albench benchmark: one workload, one seed, one measured run.

    python3 bench/run.py --workload {trees,bnn,gpr,sweep-report} \\
        --seed N --seconds S --trace {0,1} [--record]

Run it from the repository root (or any checkout holding src/albench).
It generates the workload's inputs from the seed, repeats passes of the
workload for about S seconds, checks every run, and prints human-readable
lines followed by one JSON object on the last line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1
alternates untraced and traced passes and reports its per-layer metrics.
--record stores the default seed's selections and output digests as the
expected ones in bench/expected.json.

Everything it writes stays in the checkout: inputs and sweep outputs under
.bench_work/ (removed at exit), results and spans under .bench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gate
from spans import Patched, Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

# BLAS is pinned to one thread; this must happen before numpy is imported.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
DEFAULT_SEED = 1
MIN_PASSES = 3
SETUP_PROBES = 5


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true")
    return parser.parse_args(argv)


def tail_percentile(samples: list[float]):
    """(p, value) for the highest of p90/p99 with at least ten samples
    beyond it, or None."""
    for p in (99, 90):
        if len(samples) * (100 - p) / 100 >= 10:
            return p, statistics.quantiles(samples, n=100, method="inclusive")[p - 1]
    return None


def repeat(run_pass, seconds: float, minimum: int) -> list:
    """Call run_pass until about `seconds` have passed (at least `minimum`
    times), stopping before a pass that would overrun."""
    results, start = [], time.perf_counter()
    while True:
        results.append(run_pass())
        elapsed = time.perf_counter() - start
        if len(results) >= minimum and elapsed * (len(results) + 1) / len(results) > seconds:
            return results


def environment(args, nproc: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except (AttributeError, KeyError, TypeError):
        blas_name = "unknown"
    commit = "unknown"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = done.stdout.strip() or commit
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "commit": commit,
    }


def setup_seconds(inputs_path: Path) -> list[float]:
    """Fresh-interpreter set-up times (import albench, load pools and fixtures)."""
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), str(inputs_path)],
            capture_output=True, text=True, check=True, timeout=120,
        )
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def peak_rss_mb(workers: int) -> float:
    """Peak RSS of this process plus, when a pass used worker processes,
    `workers` times the largest worker peak (an upper bound on their sum:
    forked workers share pages that each one's RSS counts)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + (workers * child if workers > 1 else 0)) / 1024.0


def judge(workload, passes, expected) -> tuple[int, int, list[str]]:
    """(attempted, failed, messages) over all passes.

    Each pass is checked by its own invariants, against the expected
    sequences when given, and against the first pass (a pass must repeat
    the same selections and outputs exactly).
    """
    reference = gate.as_expected(passes[0].runs, passes[0].outputs)
    per_pass = workload.attempted_per_pass()
    failed, messages = 0, []
    for k, result in enumerate(passes):
        problems = list(result.problems)
        if expected is not None:
            problems += gate.compare_expected(expected, result.runs, result.outputs)
        if k:
            problems += [(unit, f"differs from pass 0: {msg}")
                         for unit, msg in gate.compare_expected(reference, result.runs, result.outputs)]
        failed += min(per_pass, len({unit for unit, _ in problems}))
        messages += [f"pass {k}: {msg}" for _, msg in problems]
    return per_pass * len(passes), failed, messages


def layer_metrics(names: list[str], traced: list, plain: list) -> dict[str, float]:
    """Per-pass medians of each per-layer metric over the traced passes.

    A name that no traced pass produced is left out, so that the caller
    reports it as missing instead of as 0.
    """
    rows = []
    for result, totals in traced:
        row = dict(totals)
        calls = totals.get("llm.parse_proposal.calls", 0)
        errors = totals.get("llm.parse_proposal.errors", 0)
        row["llm.parse_ok_ratio"] = (calls - errors) / calls if calls else 0.0
        row["cli.sweep.resumed_ratio"] = result.resumed_ratio
        rows.append(row)
    out = {name: statistics.median(row[name] for row in rows) for name in names if name in rows[0]}
    out["trace.overhead_s"] = (
        statistics.median(r.wall_s for r, _ in traced) - statistics.median(r.wall_s for r in plain)
    )
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.record and args.seed != DEFAULT_SEED:
        print(f"error: --record stores the default seed ({DEFAULT_SEED}) only", file=sys.stderr)
        return 2
    if not (SRC / "albench" / "__init__.py").is_file():
        print(f"error: albench sources not found under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    sys.path.insert(0, str(SRC))

    import gen  # imports numpy, so only after the thread pinning above
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    nproc = len(os.sched_getaffinity(0))
    env = environment(args, nproc)
    print("env: " + json.dumps(env, sort_keys=True))

    work = ROOT / ".bench_work" / f"{workload.name}-seed{args.seed}-{os.getpid()}"
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    label = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    try:
        inputs = gen.generate(args.seed, work / "inputs", workload.pools(args.seed), workload.fixture_count)
        inputs_path = work / "inputs.json"
        inputs_path.write_text(json.dumps(inputs), encoding="utf-8")
        state = workload.load(inputs)

        if not args.trace:
            passes = repeat(lambda: workload.run_pass(state, args.seed, work, nproc), args.seconds, MIN_PASSES)
            rss = peak_rss_mb(nproc if workload.name == "sweep-report" else 0)
        else:
            plain, traced, tracers = [], [], []

            def pair():
                plain.append(workload.run_pass(state, args.seed, work, 1))
                with Patched(Tracer()) as tracer:
                    result = workload.run_pass(state, args.seed, work, 1)
                traced.append((result, tracer.layer_totals()))
                tracers.append(tracer)

            repeat(pair, args.seconds, 2)
            passes = plain + [r for r, _ in traced]
            spans_path = out_dir / f"{label}-spans.jsonl"
            spans_path.unlink(missing_ok=True)
            for k, tracer in enumerate(tracers):
                tracer.dump(spans_path, f"pass{k}")

        if args.record:
            gate.record_expected(workload.name, args.seed, passes[0].runs, passes[0].outputs)
        expected = (gate.load_expected(workload.name) or {}) if args.seed == DEFAULT_SEED else None
        attempted, failed, messages = judge(workload, passes, expected)

        if not args.trace:
            setups = setup_seconds(inputs_path)
            metrics = {
                "setup_s": statistics.median(setups),
                "wall_s": statistics.median(p.wall_s for p in passes),
                "peak_rss_mb": rss,
            }
        else:
            names = [m["name"] for m in spec["per_layer"]]
            metrics = layer_metrics(names, traced, plain)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if work.parent.exists() and not any(work.parent.iterdir()):
            work.parent.rmdir()

    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[section]}
    missing = sorted(set(units) - set(metrics))
    if missing:
        raise RuntimeError(f"benchmark produced no value for {missing}")

    print(f"workload {workload.name}: {len(passes)} passes, {attempted} runs attempted, {failed} failed")
    for msg in messages[:20]:
        print("  FAIL " + msg)
    print(f"failed_frac: {failed / attempted:.4f} ({failed}/{attempted} runs)")
    extra = {}
    if not args.trace:
        print(f"setup_s: median {metrics['setup_s']:.4f} s over {len(setups)} fresh interpreters")
        print(f"wall_s: median {metrics['wall_s']:.4f} s over {len(passes)} passes")
        steps = [s for p in passes for s in p.steps]
        if steps:
            extra["step_s.p50"] = statistics.median(steps)
            line = f"step_s.p50: {extra['step_s.p50']:.4f} s over {len(steps)} AL iterations"
            tail = tail_percentile(steps)
            if tail:
                extra[f"step_s.p{tail[0]}"] = tail[1]
                line += f"; step_s.p{tail[0]}: {tail[1]:.4f} s"
            print(line)
        for phase in passes[0].phases:
            extra[phase] = statistics.median(p.phases[phase] for p in passes)
            print(f"{phase}: median {extra[phase]:.4f} s over {len(passes)} passes")
        print(f"peak_rss_mb: {metrics['peak_rss_mb']:.1f} MB")
    else:
        for name, value in metrics.items():
            print(f"{name}: {value:.6g} {units.get(name, '')}")
    digests = {r.label: gate.digest(r.ids) for r in passes[0].runs}
    digests.update(passes[0].outputs)
    print("digests: " + json.dumps(digests, sort_keys=True))

    extra["pass_wall_s"] = [p.wall_s for p in passes]
    record = {"env": env, "metrics": metrics, "extra": extra, "digests": digests,
              "attempted": attempted, "failed": failed, "problems": messages}
    (out_dir / f"{label}.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
