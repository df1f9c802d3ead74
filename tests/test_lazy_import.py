"""`import albench` loads no submodule, set-up loads only what reading a pool
needs, `albench report` loads no proposer code, and scipy loads only for
GPR: checked in fresh interpreters.

Each public name's module loads on first access, so a caller pays only for
what it uses; `albench.gpr` imports scipy.linalg and scipy.optimize, the
largest part of albench's start-up time. Each test runs a script in a new
process with PYTHONPATH=src and reads back which modules it loaded.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# Recorded before gpr became a lazy import: the ids a 12-step GPR run on
# synthetic:quadratic2d:40:1 selects at alpha 2, seed 42.
GPR_IDS = [3, 0, 36, 34, 39, 20, 38, 35, 33, 27, 32, 37]


def run_fresh(script: str, cwd) -> dict:
    """Run `script` in a new interpreter; it prints one JSON line last."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script)],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


LOADED = """
import json, sys
print(json.dumps({m: m in sys.modules for m in ("scipy.linalg", "scipy.optimize", "requests")}))
"""


def test_import_loads_no_scipy_and_no_requests(tmp_path):
    loaded = run_fresh("import albench, albench.cli" + LOADED, tmp_path)
    assert loaded == {"scipy.linalg": False, "scipy.optimize": False, "requests": False}


def test_import_loads_no_submodule_and_no_numpy(tmp_path):
    script = """
    import json, sys
    import albench

    print(json.dumps(sorted(m for m in sys.modules if m.startswith("albench") or m == "numpy")))
    """
    assert run_fresh(script, tmp_path) == ["albench"]


def test_setup_imports_load_only_what_reading_a_pool_needs(tmp_path):
    # the benchmark's setup probe imports these; concurrent.futures costs
    # milliseconds, so it loads only where a pool is used (cli, BNN noise)
    script = """
    import json, sys
    import albench, albench.clients, albench.data

    print(json.dumps({
        "albench": sorted(m for m in sys.modules if m.startswith("albench")),
        "concurrent.futures": "concurrent.futures" in sys.modules,
    }))
    """
    assert run_fresh(script, tmp_path) == {
        "albench": ["albench", "albench.clients", "albench.data", "albench.errors", "albench.types"],
        "concurrent.futures": False,
    }


def test_non_gpr_runs_and_report_load_no_scipy(tmp_path):
    run_cfg = {"model_overrides": {"forest": {"n_trees": 10}}}
    (tmp_path / "rfr.json").write_text(json.dumps(run_cfg))
    (tmp_path / "runs").mkdir()
    script = """
    from albench.cli import main

    common = ["--dataset", "synthetic:quadratic2d:30:1", "--seed", "3", "--max-iterations", "6"]
    runs = [
        ["--proposer", "random_walk", "--out", "runs/rw.jsonl"],
        ["--proposer", "rfr", "--config", "rfr.json", "--out", "runs/rfr.jsonl"],
        ["--proposer", "llm", "--client", "mock:```\\nx1: 0.1\\nx2: -0.2\\n```",
         "--out", "runs/llm.jsonl"],
    ]
    for extra in runs:
        assert main(["run", *common, *extra]) == 0
    assert main(["report", "--results", "runs", "--out-dir", "reports"]) == 0
    """
    loaded = run_fresh(textwrap.dedent(script) + LOADED, tmp_path)
    assert not loaded["scipy.linalg"] and not loaded["scipy.optimize"]
    assert sorted(p.name for p in (tmp_path / "runs").iterdir()) == ["llm.jsonl", "rfr.jsonl", "rw.jsonl"]
    assert (tmp_path / "reports" / "running_best.csv").exists()


def test_cli_import_and_report_load_no_proposer_code(tmp_path):
    # proposers pulls in bnn, forest_gbt and acquisition; only run and sweep
    # build proposers, so `albench report` never needs them
    from albench.cli import main

    (tmp_path / "runs").mkdir()
    for proposer in ("random_walk", "rfr"):
        assert main(["run", "--dataset", "synthetic:linear1d:12:5", "--proposer", proposer, "--seed", "4",
                     "--max-iterations", "5", "--out", str(tmp_path / "runs" / f"{proposer}.jsonl")]) == 0
    script = """
    import json, sys
    import albench.cli

    PROPOSER_CODE = ("albench.proposers", "albench.bnn", "albench.forest_gbt", "albench.acquisition", "albench.llm")
    imported = sorted(m for m in PROPOSER_CODE if m in sys.modules)
    assert albench.cli.main(["report", "--results", "runs", "--out-dir", "reports"]) == 0
    print(json.dumps({"import": imported, "report": sorted(m for m in PROPOSER_CODE if m in sys.modules)}))
    """
    assert run_fresh(script, tmp_path) == {"import": [], "report": []}
    assert (tmp_path / "reports" / "running_best.csv").exists()


def test_public_names_resolve_lazily(tmp_path):
    script = """
    import json, sys
    import albench

    before = "scipy.linalg" in sys.modules
    fit = albench.fit_gpr
    from albench import engine, gpr
    namespace = {}
    exec("from albench import *", namespace)
    public = {n: getattr(albench, n) for n in albench.__all__}
    print(json.dumps({
        "before": before,
        "fit_is_gpr_fit": fit is gpr.fit_gpr,
        "engine_is_the_module": engine is sys.modules["albench.engine"],
        "star_missing": [n for n in albench.__all__ if n not in namespace],
        "dir_missing": sorted(set(albench.__all__) - set(dir(albench))),
        "not_the_defined_object": [
            n for n, obj in public.items()
            if not obj.__module__.startswith("albench.")
            or getattr(sys.modules[obj.__module__], n) is not obj or namespace[n] is not obj
        ],
        "loaded": "scipy.linalg" in sys.modules,
    }))
    """
    result = run_fresh(script, tmp_path)
    assert result == {
        "before": False,
        "fit_is_gpr_fit": True,
        "engine_is_the_module": True,
        "star_missing": [],
        "dir_missing": [],
        "not_the_defined_object": [],
        "loaded": True,
    }


def test_unknown_attribute_still_raises(tmp_path):
    script = """
    import json
    import albench

    try:
        albench.no_such_name
    except AttributeError as exc:
        print(json.dumps({"message": str(exc)}))
    """
    assert "no_such_name" in run_fresh(script, tmp_path)["message"]


def test_gpr_run_loads_scipy_and_selects_the_pinned_ids(tmp_path):
    script = """
    from albench.cli import main

    assert main(["run", "--dataset", "synthetic:quadratic2d:40:1", "--proposer", "gpr",
                 "--alpha", "2", "--seed", "42", "--max-iterations", "12", "--out", "g.jsonl"]) == 0
    """
    loaded = run_fresh(textwrap.dedent(script) + LOADED, tmp_path)
    assert loaded["scipy.linalg"] and loaded["scipy.optimize"]
    lines = (tmp_path / "g.jsonl").read_text().splitlines()[1:]
    assert [json.loads(line)["candidate_id"] for line in lines] == GPR_IDS


def test_parallel_gpr_sweep_loads_scipy_before_forking(tmp_path):
    cfg = {
        "dataset": "synthetic:quadratic2d:20:2",
        "proposers": ["gpr"],
        "alphas": [0, 2],
        "seeds": [38],
        "max_iterations": 4,
        "parallelism": 2,
    }
    (tmp_path / "sweep.json").write_text(json.dumps(cfg))
    script = """
    from albench.cli import main

    assert main(["sweep", "--config", "sweep.json", "--out-dir", "out"]) == 0
    """
    loaded = run_fresh(textwrap.dedent(script) + LOADED, tmp_path)
    assert loaded["scipy.linalg"] and loaded["scipy.optimize"]
    assert len(list((tmp_path / "out" / "runs").glob("*.jsonl"))) == 2
