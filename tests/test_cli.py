"""Command-line behavior: run, sweep with resume, report exports, exit codes."""

import csv
import hashlib
import json
import os
import re
import shutil
from pathlib import Path

import pytest

from albench import cli, data, engine
from albench.cli import EXIT_CONFIG, EXIT_OK, expand_sweep, main
from albench.clients import FixtureRecord, TokenBucket
from albench.data import build_dataset
from albench.engine import read_runs, read_trajectory
from albench.errors import ConfigError
from albench.types import ProposerKind, RunConfig

from conftest import STORED_RUN_EDITS, save_fixtures


def read_summary(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


BAD_MODEL_OVERRIDES = [
    pytest.param({"gbt": {"n_round": 5}}, "n_round", id="gbt-typo"),
    pytest.param({"gbt": {"seed": 1}}, "seed", id="gbt-seed"),
    pytest.param({"xgb": {"n_rounds": 5}}, "xgb", id="unknown-section"),
    pytest.param({"gpr": {"standardise_targets": True}}, "standardise_targets", id="gpr-typo"),
    pytest.param({"forest": [10]}, "forest", id="non-object"),
    pytest.param({"gbt": {"n_rounds": "5"}}, "gbt", id="wrong-type"),
    pytest.param({"forest": {"seed": 1}}, "seed", id="forest-seed"),
    pytest.param({"bnn": {"seed": 1}}, "seed", id="bnn-seed"),
    pytest.param({"forest": {"n_trees": 2.5}}, "n_trees", id="forest-fractional-n-trees"),
    pytest.param({"gbt": {"n_rounds": 3.5}}, "n_rounds", id="gbt-fractional-n-rounds"),
    pytest.param({"bnn": {"epochs": 2.5}}, "epochs", id="bnn-fractional-epochs"),
    pytest.param({"forest": {"n_trees": True}}, "n_trees", id="forest-boolean-n-trees"),
    pytest.param({"forest": {"n_trees": 0}}, "n_trees", id="forest-zero-n-trees"),
    pytest.param({"forest": {"bootstrap": "no"}}, "bootstrap", id="forest-string-bootstrap"),
    pytest.param({"gbt": {"max_depth": 2.5}}, "max_depth", id="gbt-fractional-max-depth"),
    pytest.param({"forest": {"max_depth": 1.5}}, "max_depth", id="forest-fractional-max-depth"),
    pytest.param({"gbt": {"learning_rate": float("nan")}}, "learning_rate", id="gbt-nan-learning-rate"),
]

MOCK = "mock:```\nx: 0.5\n```"
RUN_SECTION = {"proposer": "llm", "seed": 38, "max_iterations": 3}
SPEC = {"name": "pool", "csv_path": "pool.csv", "target_column": "y", "goal": "maximize"}
# pools and replay fixtures that fail to load, written to the working
# directory of TestMalformedConfig
BAD_FILES = {
    "four_rows.csv": "x,y\n0,1\n1,2\n2,3\n3,4\n",
    "text_cell.csv": "x,y\n0,1\nabc,2\n1,3\n",
    "no_target.csv": "x,z\n0,1\n1,2\n",
    "header_only.csv": "x,y\n",
    "repeated_column.csv": "x,x,y\n0,1,2\n1,2,3\n",
    "list_line.jsonl": '{"response_text": "x"}\n["x"]\n',
    "number_response.jsonl": '{"response_text": 5}\n',
    "number_digest.jsonl": '{"response_text": "x", "request_digest": 7}\n',
}


def bad_run_value(key, value, sweep=None):
    """A patch that puts a bad `run` value where each command reads it: in
    the `run` section for `albench run`, and for `albench sweep` at `sweep`
    (by default the top-level key of the same name)."""

    def patch(cfg):
        if "run" in cfg:
            return {**cfg, "run": {**cfg["run"], key: value}}
        return {**cfg, **({key: value} if sweep is None else sweep)}

    return patch


# Malformed configs, each as a patch over a valid config (or a function of
# it), and a text the error must name. `albench run` and `albench sweep` read
# these sections down one path, so each case fails both the same way.
MALFORMED_CONFIGS = [
    pytest.param({"llm": {"client": MOCK, "rate_limit": "x"}}, "rate_limit", id="llm-string-rate-limit"),
    pytest.param({"llm": {"client": MOCK, "rate_limit": 0}}, "rate_limit", id="llm-zero-rate-limit"),
    pytest.param({"llm": {"client": MOCK, "rate_limit": True}}, "rate_limit", id="llm-boolean-rate-limit"),
    pytest.param({"llm": {"client": MOCK, "backoff": "x"}}, "backoff", id="llm-string-backoff"),
    pytest.param({"llm": {"client": MOCK, "backoff": -1}}, "backoff", id="llm-negative-backoff"),
    pytest.param({"llm": {"client": MOCK, "backoff": float("inf")}}, "backoff", id="llm-infinite-backoff"),
    pytest.param({"llm": {"client": 5}}, "llm.client", id="llm-number-client"),
    pytest.param({"llm": {"client": "bogus:x"}}, "bogus:x", id="llm-unknown-client"),
    pytest.param({"llm": {"client": "live:http://127.0.0.1:1/v1"}}, "live:", id="llm-live-client-without-model"),
    pytest.param({"llm": {"client": MOCK, "matcher": "nearest"}}, "nearest", id="llm-unknown-matcher"),
    pytest.param({"llm": {"client": MOCK, "matcher": 5}}, "llm.matcher", id="llm-number-matcher"),
    pytest.param({"llm": {"client": MOCK, "matcher": False}}, "llm.matcher", id="llm-boolean-matcher"),
    pytest.param({"llm": {"client": MOCK, "offline_reports": "yes"}}, "offline_reports", id="llm-string-offline-reports"),
    pytest.param({"llm": {"client": MOCK, "retries": 3}}, "retries", id="llm-unknown-key"),
    pytest.param({"llm": {"matcher": "offline"}}, "chat client", id="llm-no-client"),
    pytest.param({"llm": MOCK}, "'llm'", id="llm-not-object"),
    pytest.param({"llm": {"client": "replay:list_line.jsonl"}}, "line 2", id="llm-replay-line-not-object"),
    pytest.param({"llm": {"client": "replay:number_response.jsonl"}}, "response_text", id="llm-replay-number-response"),
    pytest.param({"llm": {"client": "replay:number_digest.jsonl"}}, "request_digest", id="llm-replay-number-digest"),
    *(
        pytest.param({"model_overrides": p.values[0]}, p.values[1], id=f"model-overrides-{p.id}")
        for p in BAD_MODEL_OVERRIDES
    ),
    pytest.param({"model_overrides": {"gpr": {"standardize_targets": "yes"}}}, "standardize_targets",
                 id="model-overrides-string-standardize"),
    pytest.param({"model_overrides": ["gbt"]}, "model_overrides", id="model-overrides-not-object"),
    pytest.param({"run": 5}, "'run'", id="run-not-object"),
    pytest.param({"run": ["llm"]}, "'run'", id="run-list"),
    pytest.param(bad_run_value("seed", 1.5, {"seeds": [1.5]}), "seed", id="run-fractional-seed"),
    pytest.param(bad_run_value("alpha", "2", {"alphas": ["2"]}), "alpha", id="run-string-alpha"),
    pytest.param(bad_run_value("n_initial", True), "n_initial", id="run-boolean-n-initial"),
    pytest.param(bad_run_value("n_initial", 1.5), "n_initial", id="run-fractional-n-initial"),
    pytest.param(bad_run_value("max_iterations", 3.7), "max_iterations", id="run-fractional-max-iterations"),
    pytest.param(bad_run_value("max_iterations", True), "max_iterations", id="run-boolean-max-iterations"),
    pytest.param(bad_run_value("prompt_format", "prose", {"prompt_formats": ["prose"]}), "prose",
                 id="run-unknown-prompt-format"),
    pytest.param({"dataset": {k: v for k, v in SPEC.items() if k != "name"}}, "dataset.name",
                 id="dataset-missing-name"),
    pytest.param({"dataset": {**SPEC, "goal": "up"}}, "dataset.goal", id="dataset-unknown-goal"),
    pytest.param({"dataset": {"registry": "membrane", "csv_path": "pool.csv", "goal": "up"}}, "dataset.goal",
                 id="dataset-registry-unknown-goal"),
    pytest.param({"dataset": {**SPEC, "expected_rows": "4"}}, "dataset.expected_rows",
                 id="dataset-string-expected-rows"),
    pytest.param({"dataset": {**SPEC, "feature_columns": "x"}}, "dataset.feature_columns",
                 id="dataset-string-feature-columns"),
    pytest.param({"dataset": {**SPEC, "colour": "red"}}, "colour", id="dataset-unknown-key"),
    pytest.param({"dataset": {"registry": "membrane", "csv_path": "pool.csv", "colour": "red"}}, "colour",
                 id="dataset-registry-unknown-key"),
    pytest.param({"dataset": {**SPEC, "csv_path": "four_rows.csv", "expected_rows": 5}}, "expected 5 rows, found 4",
                 id="pool-too-few-rows"),
    pytest.param({"dataset": {**SPEC, "csv_path": "text_cell.csv"}}, "'abc' is not numeric", id="pool-text-cell"),
    pytest.param({"dataset": {**SPEC, "csv_path": "no_target.csv"}}, "target column 'y'", id="pool-no-target-column"),
    pytest.param({"dataset": {**SPEC, "csv_path": "header_only.csv"}}, "no data rows", id="pool-header-only"),
    pytest.param({"dataset": {**SPEC, "csv_path": "repeated_column.csv"}}, "repeats columns ['x']",
                 id="pool-repeated-column"),
    pytest.param({"seed": [3]}, "['seed']", id="unknown-top-level-seed"),
    pytest.param({"model_override": {"forest": {"n_trees": 5}}}, "['model_override']",
                 id="unknown-top-level-model-override"),
    pytest.param(lambda cfg: [cfg], "JSON object", id="config-list"),
    pytest.param(lambda cfg: "llm", "JSON object", id="config-string"),
]


def write_config(path, base, patch):
    path.write_text(json.dumps(patch(base) if callable(patch) else {**base, **patch}))
    return path


class TestMalformedConfig:
    """Each malformed case exits 1 from `albench run` and from `albench
    sweep`, names the bad key, and writes no trajectory or sweep directory."""

    RUN = {
        "dataset": "synthetic:linear1d:10:0",
        "run": RUN_SECTION,
        "llm": {"client": MOCK},
    }
    SWEEP = {
        "dataset": "synthetic:linear1d:10:0",
        "proposers": ["random_walk", "llm"],
        "seeds": [38, 39],
        "repeats_at_seed": {},
        "max_iterations": 3,
        "parallelism": 1,
        "llm": {"client": MOCK},
    }

    def run(self, tmp_path, patch):
        out = tmp_path / "run.jsonl"
        path = write_config(tmp_path / "run.json", self.RUN, patch)
        return main(["run", "--config", str(path), "--out", str(out)]), out

    def sweep(self, tmp_path, patch):
        out_dir = tmp_path / "results"
        path = write_config(tmp_path / "sweep.json", self.SWEEP, patch)
        return main(["sweep", "--config", str(path), "--out-dir", str(out_dir)]), out_dir

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_valid_base_config_runs(self, tmp_path, command):
        code, out = getattr(self, command)(tmp_path, {})
        assert code == EXIT_OK and out.exists()

    @pytest.mark.parametrize("patch, named", MALFORMED_CONFIGS)
    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_is_config_error_before_any_write(self, tmp_path, capsys, monkeypatch, command, patch, named):
        monkeypatch.chdir(tmp_path)
        for name, text in BAD_FILES.items():
            (tmp_path / name).write_text(text)
        code, out = getattr(self, command)(tmp_path, patch)
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert err.startswith("config error:") and named in err and "Traceback" not in err
        assert not out.exists()


class TestBuildDataset:
    """`build_dataset` reads each form of pool description, and the header
    entry it returns rebuilds the same pool and the same entry."""

    def forms(self, tmp_path):
        lab = tmp_path / "lab.csv"
        lab.write_text("a,b,y\n" + "".join(f"{i},{i % 4},{(i * 5) % 9}\n" for i in range(10)))
        membrane = tmp_path / "membrane.csv"
        membrane.write_text("p,t,elastic_modulus\n" + "".join(f"{i},{i % 7},{i * 3 % 11}\n" for i in range(73)))
        return {
            "synthetic string": "synthetic:plateau_mix:9:4",
            "dataset object": {"name": "lab", "csv_path": str(lab), "target_column": "y", "goal": "minimize",
                               "feature_columns": ["b", "a"], "context": "two knobs"},
            "registry object": {"registry": "membrane", "csv_path": str(membrane)},
        }

    @pytest.mark.parametrize("form", ["synthetic string", "dataset object", "registry object"])
    def test_header_entry_rebuilds_the_same_pool_and_entry(self, tmp_path, form):
        description = self.forms(tmp_path)[form]
        pool, entry = build_dataset(description)
        again, entry_again = build_dataset(json.loads(json.dumps(entry)))
        assert again.digest() == pool.digest()
        assert json.dumps(entry_again) == json.dumps(entry)
        if isinstance(description, str):
            assert entry == {"source": description}
        else:
            assert list(entry) == ["name", "goal", "source", "spec"] and entry["source"] == "csv"
            assert (entry["name"], entry["goal"]) == (pool.name, pool.goal.value)

    def test_registry_object_starts_from_the_registry_entry(self, tmp_path):
        pool, entry = build_dataset(self.forms(tmp_path)["registry object"])
        assert (pool.name, pool.target_name, len(pool)) == ("membrane", "elastic_modulus", 73)
        assert entry["spec"]["expected_rows"] == 73 and entry["goal"] == "maximize"

    @pytest.mark.parametrize(
        "description",
        ["quadratic2d:20", "csv", 7, ["synthetic:linear1d:8"], {"source": "csv"}, {"source": "csv", "spec": None},
         None],
        ids=["plain string", "source-like string", "number", "list", "csv without spec", "csv with null spec",
             "null"],
    )
    def test_other_descriptions_are_config_errors(self, description):
        with pytest.raises(ConfigError):
            build_dataset(description)


class TestRun:
    def test_happy_path(self, tmp_path, capsys):
        out = tmp_path / "traj.jsonl"
        code = main(
            [
                "run",
                "--dataset",
                "synthetic:quadratic2d:40:1",
                "--proposer",
                "gpr",
                "--alpha",
                "2",
                "--seed",
                "42",
                "--out",
                str(out),
            ]
        )
        assert code == EXIT_OK
        assert out.exists()
        header, steps = read_trajectory(out)
        assert header["run_config"]["proposer"] == "gpr"
        assert len(steps) >= 1
        printed = capsys.readouterr().out
        assert "data_fraction" in printed

    def test_negative_alpha_is_config_error(self, tmp_path):
        code = main(
            [
                "run",
                "--dataset",
                "synthetic:linear1d:10:0",
                "--proposer",
                "gpr",
                "--alpha",
                "-1",
                "--out",
                str(tmp_path / "x.jsonl"),
            ]
        )
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("alpha", ["nan", "inf"])
    def test_non_finite_alpha_is_config_error(self, tmp_path, alpha):
        out = tmp_path / "x.jsonl"
        code = main(
            ["run", "--dataset", "synthetic:linear1d:10:0", "--proposer", "rfr",
             "--alpha", alpha, "--out", str(out)]
        )
        assert code == EXIT_CONFIG
        assert not out.exists()

    @pytest.mark.parametrize("overrides, named", BAD_MODEL_OVERRIDES)
    def test_bad_model_override_is_config_error(self, tmp_path, capsys, overrides, named):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"model_overrides": overrides}))
        out = tmp_path / "x.jsonl"
        code = main(
            ["run", "--config", str(cfg_path), "--dataset", "synthetic:linear1d:10:0",
             "--proposer", "gbt", "--out", str(out)]
        )
        assert code == EXIT_CONFIG
        assert named in capsys.readouterr().err
        assert not out.exists()

    def test_missing_dataset_is_config_error(self):
        assert main(["run", "--proposer", "gpr"]) == EXIT_CONFIG

    def test_unknown_synthetic_kind(self, tmp_path):
        code = main(
            ["run", "--dataset", "synthetic:bogus:10", "--proposer", "gpr", "--out", str(tmp_path / "x")]
        )
        assert code == EXIT_CONFIG

    def test_llm_without_client_fails(self, tmp_path):
        code = main(
            [
                "run",
                "--dataset",
                "synthetic:linear1d:10:0",
                "--proposer",
                "llm",
                "--out",
                str(tmp_path / "x.jsonl"),
            ]
        )
        assert code == EXIT_CONFIG

    def test_replay_run_twice_identical_files(self, tmp_path):
        fixtures = tmp_path / "fx.jsonl"
        # linear1d optimum is the largest x; walk toward it in two hops
        save_fixtures(
            [
                FixtureRecord(response_text="```\nx: 0.5\n```"),
                FixtureRecord(response_text="```\nx: 0.8\n```"),
                FixtureRecord(response_text="```\nx: 1.0\n```"),
                FixtureRecord(response_text="```\nx: 1.0\n```"),
                FixtureRecord(response_text="```\nx: 1.0\n```"),
                FixtureRecord(response_text="```\nx: 1.0\n```"),
                FixtureRecord(response_text="```\nx: 1.0\n```"),
                FixtureRecord(response_text="```\nx: 1.0\n```"),
                FixtureRecord(response_text="```\nx: 1.0\n```"),
                FixtureRecord(response_text="```\nx: 1.0\n```"),
            ],
            fixtures,
        )
        outs = []
        for name in ("a.jsonl", "b.jsonl"):
            out = tmp_path / name
            code = main(
                [
                    "run",
                    "--dataset",
                    "synthetic:linear1d:8:0",
                    "--proposer",
                    "llm",
                    "--seed",
                    "40",
                    "--client",
                    f"replay:{fixtures}",
                    "--matcher",
                    "offline",
                    "--out",
                    str(out),
                ]
            )
            assert code == EXIT_OK
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_aborted_run_preserves_partial_trajectory(self, tmp_path):
        from albench.cli import EXIT_RUN_FAILURE

        cfg = {
            "dataset": "synthetic:linear1d:10:0",
            "run": {"proposer": "llm", "seed": 38, "n_initial": 2},
            # port 1 refuses instantly; zero backoff keeps retries fast
            "llm": {"client": "live:http://127.0.0.1:1/v1|m", "backoff": 0},
        }
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "partial.jsonl"
        code = main(["run", "--config", str(cfg_path), "--out", str(out)])
        assert code == EXIT_RUN_FAILURE
        assert out.exists()
        header, steps = read_trajectory(out)
        assert len(steps) == 2  # the initial observations survived the abort

    @pytest.mark.parametrize(
        "digest, message, n_steps",
        [(None, "scripted client exhausted after 1 responses", 3), ("0" * 64, "does not match recorded", 2)],
        ids=["exhausted", "digest-mismatch"],
    )
    def test_replay_failure_aborts_with_the_partial_trajectory(self, tmp_path, capsys, digest, message, n_steps):
        from albench.cli import EXIT_RUN_FAILURE

        fixtures = tmp_path / "fx.jsonl"
        save_fixtures([FixtureRecord(response_text="```\nx: 0.0\n```", request_digest=digest)], fixtures)
        out = tmp_path / "partial.jsonl"
        code = main(
            ["run", "--dataset", "synthetic:linear1d:12:1", "--proposer", "llm", "--seed", "38", "--n-initial", "2",
             "--client", f"replay:{fixtures}", "--out", str(out)]
        )
        assert code == EXIT_RUN_FAILURE
        err = capsys.readouterr().err
        assert err.startswith("run aborted:") and message in err and "partial trajectory preserved" in err
        assert len(read_trajectory(out)[1]) == n_steps

    def test_config_file_with_overrides(self, tmp_path):
        cfg = {
            "dataset": "synthetic:linear1d:12:3",
            "run": {"proposer": "random_walk", "seed": 1},
        }
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "t.jsonl"
        code = main(["run", "--config", str(cfg_path), "--seed", "7", "--out", str(out)])
        assert code == EXIT_OK
        header, _ = read_trajectory(out)
        assert header["run_config"]["seed"] == 7

    @pytest.mark.parametrize(
        "cfg, named",
        [
            ({"run": {"proposer": "random_walk", "max_iteration": 3}}, "max_iteration"),
            ({"run": {"seed": 1}}, "proposer"),
            ({"run": {"proposer": "random_walk"}, "proposers": ["gpr"]}, "['proposers']"),
            ({"run": {"proposer": "random_walk"}, "out_dir": "results"}, "['out_dir']"),
        ],
        ids=["unknown-key", "no-proposer", "sweep-key", "sweep-out-dir"],
    )
    def test_bad_run_section_is_config_error(self, tmp_path, capsys, cfg, named):
        """A bad `run` section, or a top-level key that only `albench sweep` reads."""
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"dataset": "synthetic:linear1d:12:3", **cfg}))
        out = tmp_path / "t.jsonl"
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:") and named in err
        assert not out.exists()

    def test_registry_entry_takes_every_override(self, tmp_path):
        """Keys given next to `registry` override the entry (expected_rows
        too), and a null keeps the entry's value."""
        csv_path = tmp_path / "pool.csv"
        csv_path.write_text("a,b\n" + "".join(f"{i},{i % 3}\n" for i in range(4)))
        dataset = {"registry": "membrane", "csv_path": str(csv_path), "target_column": "b",
                   "expected_rows": 4, "goal": None}
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"dataset": dataset, "run": {"proposer": "random_walk", "seed": 1}}))
        out = tmp_path / "t.jsonl"
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == EXIT_OK
        header, _ = read_trajectory(out)
        assert header["dataset"]["spec"]["expected_rows"] == 4
        assert header["dataset"]["spec"]["goal"] == "maximize"


class TestSweep:
    def sweep_config(self, tmp_path, **extra):
        cfg = {
            "dataset": "synthetic:quadratic2d:30:2",
            "proposers": ["random_walk", "gpr"],
            "alphas": [0, 2],
            "seeds": [38, 39],
            "parallelism": 1,
            **extra,
        }
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(cfg))
        return path

    def test_cardinality(self, tmp_path):
        # gpr: 2 alphas x 2 seeds = 4; random_walk ignores alpha: 2 seeds
        path = self.sweep_config(tmp_path)
        out_dir = tmp_path / "results"
        assert main(["sweep", "--config", str(path), "--out-dir", str(out_dir)]) == EXIT_OK
        rows = read_summary(out_dir / "summary.csv")
        assert len(rows) == 6
        assert all(r["status"] == "ok" for r in rows)

    def test_grid_expansion_counts(self):
        grid = expand_sweep(
            {
                "proposers": ["gpr", "rfr"],
                "alphas": [0, 1],
                "seeds": [38, 39],
            }
        )
        assert len(grid) == 8

    @pytest.mark.parametrize(
        "alphas",
        [
            pytest.param([0, float("nan")], id="nan"),
            pytest.param([0, float("inf")], id="inf"),
            pytest.param([0, "2"], id="string"),
            pytest.param([0, None], id="null"),
            pytest.param([0, True], id="boolean"),
            pytest.param([0, [1]], id="list"),
            pytest.param(2, id="not-a-list"),
            pytest.param([0, 10**400], id="huge-integer"),
        ],
    )
    def test_non_finite_alpha_rejected(self, alphas):
        # random_walk ignores alpha, so no cell would reject it later
        with pytest.raises(ConfigError, match="finite"):
            expand_sweep({"proposers": ["random_walk"], "alphas": alphas, "seeds": [38]})

    @pytest.mark.parametrize(
        "seeds",
        [["x"], [38, 1.5], [True], [None], 38, "38", [38, -1]],
        ids=["string", "fraction", "boolean", "null", "not-a-list", "string-list", "negative"],
    )
    def test_non_integer_seed_rejected(self, seeds):
        with pytest.raises(ConfigError, match="integers"):
            expand_sweep({"proposers": ["random_walk"], "alphas": [0], "seeds": seeds})

    @pytest.mark.parametrize(
        "extra, named",
        [
            ({"alphas": ["2"]}, "alphas"),
            ({"seeds": ["x"]}, "seeds"),
            ({"model_overrides": {"forest": {"seed": 1}}}, "seed"),
            ({"proposers": ["nope"]}, "nope"),
            # a bare string would be iterated per character
            ({"proposers": "random_walk"}, "proposers"),
            ({"repeats_at_seed": {"42": "x"}}, "repeats_at_seed"),
            ({"parallelism": "x"}, "parallelism"),
            ({"llm": {"rate_limit": "x"}}, "rate_limit"),
            ({"prompt_formats": "parameter"}, "prompt_formats"),
            ({"n_initial": "x"}, "n_initial"),
            ({"run": {"proposer": "gpr"}}, "['run']"),
            ({"seed": [3]}, "['seed']"),
            ({"out_dir": 5}, "out_dir"),
            ({"seeds": [38, 38]}, "'seeds' repeats"),
            ({"alphas": [1, 1.0]}, "'alphas' repeats"),
            ({"proposers": ["random_walk", "rfr", "rfr"]}, "'proposers' repeats"),
            # predict_bnn's std needs two passes; at 1 every bnn cell failed at run time
            ({"proposers": ["random_walk", "bnn"], "model_overrides": {"bnn": {"mc_samples": 1}}}, "mc_samples"),
            # int() would read each of these keys as seed 42
            ({"repeats_at_seed": {"042": 2}}, "'042'"),
            ({"repeats_at_seed": {"42": 5, "042": 2}}, "'042'"),
            ({"repeats_at_seed": {"042": 2, "42": 5}}, "'042'"),
            ({"repeats_at_seed": {"4_2": 3}}, "'4_2'"),
            ({"repeats_at_seed": {"+42": 3}}, "'+42'"),
            # a key that names no seed of the grid would drop its repeats
            ({"repeats_at_seed": {"0": 3}}, "'0'"),
            ({"repeats_at_seed": {"-1": 3}}, "'-1'"),
        ],
        ids=[
            "string-alpha",
            "string-seed",
            "forest-seed",
            "unknown-proposer",
            "string-proposers",
            "string-repeats",
            "string-parallelism",
            "string-rate-limit",
            "string-prompt-formats",
            "string-n-initial",
            "run-section",
            "seed-for-seeds",
            "number-out-dir",
            "repeated-seed",
            "int-and-float-alpha",
            "repeated-proposer",
            "one-mc-sample",
            "zero-padded-repeat-seed",
            "repeat-seed-named-twice",
            "repeat-seed-named-twice-reversed",
            "underscored-repeat-seed",
            "signed-repeat-seed",
            "repeat-seed-off-the-grid",
            "negative-repeat-seed",
        ],
    )
    def test_malformed_grid_exits_before_any_cell(self, tmp_path, capsys, extra, named):
        path = self.sweep_config(tmp_path, **extra)
        out_dir = tmp_path / "results"
        assert main(["sweep", "--config", str(path), "--out-dir", str(out_dir)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:") and named in err and "Traceback" not in err
        assert not out_dir.exists()

    def test_bad_model_override_fails_before_any_cell(self, tmp_path, capsys):
        path = self.sweep_config(tmp_path, model_overrides={"gbt": {"n_round": 5}})
        out_dir = tmp_path / "results"
        assert main(["sweep", "--config", str(path), "--out-dir", str(out_dir)]) == EXIT_CONFIG
        assert "n_round" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_serial_llm_sweep_builds_one_token_bucket(self, tmp_path, monkeypatch):
        built = []

        class CountingBucket(TokenBucket):
            def __init__(self, requests_per_minute):
                built.append(requests_per_minute)
                super().__init__(requests_per_minute)

        monkeypatch.setattr(cli, "TokenBucket", CountingBucket)
        path = self.sweep_config(
            tmp_path,
            dataset="synthetic:linear1d:10:0",
            proposers=["llm"],
            seeds=[38, 39, 40],
            repeats_at_seed={"40": 2},
            max_iterations=4,
            llm={"client": MOCK, "rate_limit": 600},
        )
        out_dir = tmp_path / "results"
        assert main(["sweep", "--config", str(path), "--out-dir", str(out_dir)]) == EXIT_OK
        assert [r["status"] for r in read_summary(out_dir / "summary.csv")] == ["ok"] * 4
        assert built == [600]

    def test_llm_repeats_at_seed(self):
        grid = expand_sweep(
            {
                "proposers": ["llm"],
                "alphas": [0, 1, 2],
                "seeds": [38, 39, 40, 41, 42],
                "repeats_at_seed": {"42": 5},
                "prompt_formats": ["parameter"],
            }
        )
        # 5 seeds at repeat 0 plus 4 extra repeats at seed 42; alphas ignored
        assert len(grid) == 9
        assert sum(1 for g in grid if g["seed"] == 42) == 5

    def test_resume_skips_completed(self, tmp_path):
        path = self.sweep_config(tmp_path)
        out_dir = tmp_path / "results"
        assert main(["sweep", "--config", str(path), "--out-dir", str(out_dir)]) == EXIT_OK
        first = {f.name: f.stat().st_mtime_ns for f in (out_dir / "runs").glob("*.jsonl")}
        assert main(["sweep", "--config", str(path), "--out-dir", str(out_dir)]) == EXIT_OK
        second = {f.name: f.stat().st_mtime_ns for f in (out_dir / "runs").glob("*.jsonl")}
        assert first == second  # nothing re-executed
        rows = read_summary(out_dir / "summary.csv")
        assert all(r["status"] == "skipped" for r in rows)

    def test_summary_columns(self, tmp_path):
        path = self.sweep_config(tmp_path, proposers=["random_walk"], seeds=[38])
        out_dir = tmp_path / "results"
        assert main(["sweep", "--config", str(path), "--out-dir", str(out_dir)]) == EXIT_OK
        header = (out_dir / "summary.csv").read_text().splitlines()[0]
        assert header == (
            "digest,proposer,alpha,seed,repeat_index,prompt_format,pool_size,steps,"
            "iterations_to_optimum,data_fraction,final_best,mean_match_score,status,error"
        )

    def test_resume_parses_each_stored_header_once(self, tmp_path, monkeypatch):
        path, out_dir, runs = self.resumable_sweep(tmp_path, 1)
        parse = RunConfig.from_dict.__func__
        parsed = []

        def counting(cls, d):
            parsed.append(d)
            return parse(cls, d)

        monkeypatch.setattr(RunConfig, "from_dict", classmethod(counting))
        monkeypatch.setattr(cli.analytics, "write_reports", lambda *args: None)
        assert main(["sweep", "--config", str(path), "--out-dir", str(out_dir)]) == EXIT_OK
        assert [r["status"] for r in read_summary(out_dir / "summary.csv")] == ["skipped"] * len(runs)
        # one parse per grid cell, and one per stored header
        assert len(parsed) == 2 * len(runs)

    def test_resume_reads_each_stored_run_once(self, tmp_path, monkeypatch):
        """The report export reuses the runs read to skip their cells."""
        path, out_dir, runs = self.resumable_sweep(tmp_path, 1)
        reports = {p.name: p.read_bytes() for p in (out_dir / "reports").glob("*.csv")}
        read = []

        def counting(p):
            read.append(Path(p).name)
            return read_trajectory(p)

        monkeypatch.setattr(engine, "read_trajectory", counting)
        assert main(["sweep", "--config", str(path), "--out-dir", str(out_dir)]) == EXIT_OK
        assert sorted(read) == sorted(runs)
        assert {p.name: p.read_bytes() for p in (out_dir / "reports").glob("*.csv")} == reports

    @pytest.mark.parametrize("parallelism", [1, 2])
    def test_fresh_sweep_reads_back_no_run(self, tmp_path, monkeypatch, parallelism):
        """The report export uses the runs the sweep holds, from workers too."""
        read = []
        monkeypatch.setattr(engine, "read_trajectory", lambda p: read.append(p) or read_trajectory(p))
        path = self.sweep_config(tmp_path, proposers=["random_walk"], seeds=[38, 39, 40], parallelism=parallelism)
        out_dir = tmp_path / "results"
        assert main(["sweep", "--config", str(path), "--out-dir", str(out_dir)]) == EXIT_OK
        assert read == []
        rows = read_summary(out_dir / "reports" / "running_best.csv")
        assert {r["digest"] for r in rows} == {p.stem for p in (out_dir / "runs").glob("*.jsonl")}

    def test_sweep_reads_back_no_run_of_a_failed_cell(self, tmp_path, monkeypatch):
        """The export gets an aborted cell's partial run from memory."""
        from albench.cli import EXIT_PARTIAL_SWEEP

        # port 1 refuses instantly, so the LLM run aborts after its initial observations
        path = self.sweep_config(
            tmp_path, dataset="synthetic:linear1d:12:1", proposers=["random_walk", "llm"], alphas=[0], seeds=[38],
            repeats_at_seed={}, llm={"client": "live:http://127.0.0.1:1/v1|m", "backoff": 0},
        )
        read = []
        monkeypatch.setattr(engine, "read_trajectory", lambda p: read.append(p) or read_trajectory(p))
        out_dir = tmp_path / "results"
        assert main(["sweep", "--config", str(path), "--out-dir", str(out_dir)]) == EXIT_PARTIAL_SWEEP
        status = {r["proposer"]: (r["digest"], r["status"]) for r in read_summary(out_dir / "summary.csv")}
        assert status == {"random_walk": (status["random_walk"][0], "ok"), "llm": (status["llm"][0], "failed")}
        assert read == []
        assert read_trajectory(out_dir / "runs" / f"{status['llm'][0]}.jsonl")[1]
        rows = read_summary(out_dir / "reports" / "running_best.csv")
        assert {r["digest"] for r in rows} == {digest for digest, _ in status.values()}

    def test_report_export_that_cannot_write_is_skipped(self, tmp_path, caplog):
        """An OSError from the export is a warning, as an AlbenchError is: the
        sweep still exits with its cells' status."""
        path = self.sweep_config(tmp_path, proposers=["random_walk"], seeds=[38])
        out_dir = tmp_path / "results"
        out_dir.mkdir()
        (out_dir / "reports").write_text("a file, not a directory\n")
        with caplog.at_level("WARNING"):
            assert main(["sweep", "--config", str(path), "--out-dir", str(out_dir)]) == EXIT_OK
        assert [r["status"] for r in read_summary(out_dir / "summary.csv")] == ["ok"]
        assert [r.message for r in caplog.records if "report export skipped" in r.message]
        assert (out_dir / "reports").read_text() == "a file, not a directory\n"

    def test_dead_worker_fails_its_cells_and_a_rerun_completes_them(self, tmp_path, monkeypatch):
        import signal

        from albench.cli import EXIT_PARTIAL_SWEEP

        parent, execute = os.getpid(), cli.execute_run

        def dying(dataset, header_entry, config, *rest):
            if os.getpid() != parent and config.seed == 41:
                os.kill(os.getpid(), signal.SIGKILL)
            return execute(dataset, header_entry, config, *rest)

        monkeypatch.setattr(cli, "execute_run", dying)
        # the first cell's worker dies at once, so the broken pool leaves the others unfinished
        path = self.sweep_config(tmp_path, proposers=["random_walk"], seeds=[41, 38, 39, 40], parallelism=2)
        out_dir = tmp_path / "results"
        assert main(["sweep", "--config", str(path), "--out-dir", str(out_dir)]) == EXIT_PARTIAL_SWEEP
        rows = {r["seed"]: r for r in read_summary(out_dir / "summary.csv")}
        lost = {seed for seed, r in rows.items() if r["status"] == "failed"}
        # the other cells the broken pool left unfinished ran again, each in a fresh worker
        assert len(rows) == 4 and lost == {"41"}
        assert {rows[seed]["error"] for seed in lost} == {"worker died"}
        reported = {r["seed"] for r in read_summary(out_dir / "reports" / "running_best.csv")}
        assert reported == set(rows) - lost
        monkeypatch.undo()
        assert main(["sweep", "--config", str(path), "--out-dir", str(out_dir)]) == EXIT_OK
        again = {r["seed"]: r["status"] for r in read_summary(out_dir / "summary.csv")}
        assert again == {seed: "ok" if seed in lost else "skipped" for seed in rows}

    def test_totals_match_trajectory_files(self, tmp_path):
        path = self.sweep_config(tmp_path)
        out_dir = tmp_path / "results"
        main(["sweep", "--config", str(path), "--out-dir", str(out_dir)])
        rows = read_summary(out_dir / "summary.csv")
        pool = build_dataset("synthetic:quadratic2d:30:2")[0]
        optimum = pool.optimum_value
        for row in rows:
            header, steps = read_trajectory(out_dir / "runs" / f"{row['digest']}.jsonl")
            assert str(len(steps)) == row["steps"]
            reached = next((s.iteration for s in steps if s.observed_value == optimum), None)
            expect = "" if reached is None else str(reached)
            assert row["iterations_to_optimum"] == expect

    def test_failed_runs_give_partial_sweep_exit(self, tmp_path):
        from albench.cli import EXIT_PARTIAL_SWEEP

        fixtures = tmp_path / "short.jsonl"
        # one response only: the second LLM call exhausts the replayer
        save_fixtures([FixtureRecord(response_text="```\nx: 0.0\n```")], fixtures)
        cfg = {
            "dataset": "synthetic:linear1d:12:1",
            "proposers": ["llm"],
            "alphas": [0],
            "seeds": [38],
            "repeats_at_seed": {},
            "parallelism": 1,
            "llm": {"client": f"replay:{fixtures}", "matcher": "offline"},
        }
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(cfg))
        out_dir = tmp_path / "results"
        assert main(["sweep", "--config", str(path), "--out-dir", str(out_dir)]) == EXIT_PARTIAL_SWEEP
        rows = read_summary(out_dir / "summary.csv")
        assert [r["status"] for r in rows] == ["failed"]
        assert rows[0]["error"] == "proposer failed at iteration 2: scripted client exhausted after 1 responses"
        # the aborted run keeps its partial trajectory, and the export reads it
        partial = out_dir / "runs" / f"{rows[0]['digest']}.jsonl"
        assert len(read_trajectory(partial)[1]) == 2
        assert {r["digest"] for r in read_summary(out_dir / "reports" / "running_best.csv")} == {rows[0]["digest"]}

    def test_parallel_and_serial_sweeps_agree(self, tmp_path):
        results = {}
        for label, workers in (("serial", 1), ("parallel", 3)):
            cfg = {
                "dataset": "synthetic:quadratic2d:25:5",
                "proposers": ["random_walk", "gbt"],
                "alphas": [0, 1],
                "seeds": [38, 39],
                "parallelism": workers,
                "model_overrides": {"gbt": {"n_rounds": 20, "max_depth": 2}},
            }
            path = tmp_path / f"{label}.json"
            path.write_text(json.dumps(cfg))
            out_dir = tmp_path / label
            assert main(["sweep", "--config", str(path), "--out-dir", str(out_dir)]) == EXIT_OK
            runs = {p.name: p.read_bytes() for p in (out_dir / "runs").glob("*.jsonl")}
            results[label] = ((out_dir / "summary.csv").read_bytes(), runs)
        assert results["serial"] == results["parallel"]

    def test_sweep_reproducible_from_config_alone(self, tmp_path):
        path = self.sweep_config(tmp_path)
        summaries = []
        for name in ("one", "two"):
            out_dir = tmp_path / name
            assert main(["sweep", "--config", str(path), "--out-dir", str(out_dir)]) == EXIT_OK
            summaries.append((out_dir / "summary.csv").read_bytes())
        assert summaries[0] == summaries[1]

    def resumable_sweep(self, tmp_path, parallelism, **extra):
        """Run a three-cell sweep; return (config path, out dir, run file bytes)."""
        path = self.sweep_config(
            tmp_path, proposers=["random_walk"], seeds=[38, 39, 40], parallelism=parallelism, **extra
        )
        out_dir = tmp_path / "results"
        assert main(["sweep", "--config", str(path), "--out-dir", str(out_dir)]) == EXIT_OK
        runs = {p.name: p.read_bytes() for p in (out_dir / "runs").glob("*.jsonl")}
        assert len(runs) == 3
        return path, out_dir, runs

    def rerun_touches_only(self, path, out_dir, runs, damaged):
        """Sweep again: only the damaged cell reruns, and it writes its
        original bytes back."""
        before = {p.name: p.stat().st_mtime_ns for p in (out_dir / "runs").glob("*.jsonl")}
        assert main(["sweep", "--config", str(path), "--out-dir", str(out_dir)]) == EXIT_OK
        status = {r["digest"] + ".jsonl": r["status"] for r in read_summary(out_dir / "summary.csv")}
        assert status == {name: "ok" if name == damaged else "skipped" for name in runs}
        for p in (out_dir / "runs").glob("*.jsonl"):
            assert p.read_bytes() == runs[p.name]
            if p.name != damaged:
                assert p.stat().st_mtime_ns == before[p.name]

    @pytest.mark.parametrize("parallelism", [1, 2])
    def test_resume_reruns_exactly_the_torn_file(self, tmp_path, parallelism):
        path, out_dir, runs = self.resumable_sweep(tmp_path, parallelism)
        torn = sorted(runs)[1]
        data = runs[torn]
        lines = data.splitlines(keepends=True)
        middle = len(lines) // 2
        cut = sum(len(line) for line in lines[:middle]) + len(lines[middle]) // 2
        (out_dir / "runs" / torn).write_bytes(data[:cut])
        self.rerun_touches_only(path, out_dir, runs, torn)

    def test_resume_warns_once_of_a_torn_cell_file_and_reruns_it(self, tmp_path, caplog):
        path, out_dir, runs = self.resumable_sweep(tmp_path, 1)
        torn = sorted(runs)[0]
        last = runs[torn].splitlines(keepends=True)[-1]
        (out_dir / "runs" / torn).write_bytes(runs[torn][: -len(last) // 2])  # half of the last step
        with caplog.at_level("WARNING"):
            self.rerun_touches_only(path, out_dir, runs, torn)
        skipped = [r.message for r in caplog.records if "skipping" in r.message]
        assert len(skipped) == 1 and torn in skipped[0]

    @pytest.mark.parametrize(
        "edit",
        [
            lambda h: {**h, "run_config": {"proposer": "nope"}},
            lambda h: {**h, "run_config": {}},
            lambda h: {k: v for k, v in h.items() if k != "settings"},  # a file from before settings were recorded
            lambda h: {**h, "settings": {"n_trees": 5}},
        ],
        ids=["unknown-proposer", "empty-run-config", "no-settings", "other-settings"],
    )
    def test_malformed_stored_header_reruns_the_cell(self, tmp_path, edit):
        path, out_dir, runs = self.resumable_sweep(tmp_path, 1)
        damaged = sorted(runs)[0]
        lines = runs[damaged].decode().splitlines(keepends=True)
        lines[0] = json.dumps(edit(json.loads(lines[0])), sort_keys=True) + "\n"
        (out_dir / "runs" / damaged).write_text("".join(lines))
        self.rerun_touches_only(path, out_dir, runs, damaged)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("candidate_id", 7.7), ("candidate_id", 9999), ("observed_value", float("nan")),
            ("running_best", float("inf")), ("match_score", "0.5"), ("match_score", True), ("proposal_text", 5),
            ("surrogate_diag", [1.0]),
        ],
        ids=[
            "fractional-id", "out-of-pool-id", "nan-value", "infinite-best",
            "string-score", "boolean-score", "number-text", "list-diag",
        ],
    )
    def test_malformed_stored_step_reruns_the_cell(self, tmp_path, key, value):
        path, out_dir, runs = self.resumable_sweep(tmp_path, 1)
        damaged = sorted(runs)[0]
        lines = runs[damaged].decode().splitlines(keepends=True)
        # the first step: an edited last step could also move the optimum hit
        lines[1] = json.dumps({**json.loads(lines[1]), key: value}, sort_keys=True) + "\n"
        (out_dir / "runs" / damaged).write_text("".join(lines))
        self.rerun_touches_only(path, out_dir, runs, damaged)
        assert "nan" not in (out_dir / "reports" / "running_best.csv").read_text()

    @pytest.mark.parametrize("edit, reason", STORED_RUN_EDITS)
    def test_run_the_protocol_could_not_produce_is_skipped_and_rerun(self, tmp_path, caplog, edit, reason):
        """`report` warns once of the edited run, naming its first bad
        iteration, and a resumed sweep reruns only that cell."""
        path, out_dir, runs = self.resumable_sweep(tmp_path, 1, n_initial=2, max_iterations=8)
        damaged = sorted(runs)[0]
        header, *steps = [json.loads(line) for line in runs[damaged].decode().splitlines()]
        pool = build_dataset(header["dataset"]["source"])[0]
        lines = [json.dumps(record, sort_keys=True) for record in (header, *edit(steps, pool))]
        (out_dir / "runs" / damaged).write_text("\n".join(lines) + "\n")
        with caplog.at_level("WARNING"):
            assert main(["report", "--results", str(out_dir / "runs"), "--out-dir", str(tmp_path / "reports")]) == EXIT_OK
        skipped = [r.message for r in caplog.records if "skipping" in r.message]
        assert len(skipped) == 1
        where, why = skipped[0].split(": ", 1)
        assert where == f"skipping {out_dir / 'runs' / damaged}" and re.search(reason, why)
        self.rerun_touches_only(path, out_dir, runs, damaged)

    def test_sweep_stored_by_an_earlier_version_resumes_every_cell(self, tmp_path):
        """Run files, digests and settings records keep their bytes: a sweep
        directory written before config values went through `read_config`
        (every proposer, integer learning_rate included) resumes in full."""
        stored = Path(__file__).parent / "data" / "stored_sweep"
        out_dir = tmp_path / "results"
        shutil.copytree(stored / "runs", out_dir / "runs")
        assert main(["sweep", "--config", str(stored / "sweep.json"), "--out-dir", str(out_dir)]) == EXIT_OK
        rows = read_summary(out_dir / "summary.csv")
        expected = [{**r, "status": "skipped"} for r in read_summary(stored / "summary.csv")]
        assert rows == expected and len(rows) == 7
        for p in (stored / "runs").glob("*.jsonl"):
            assert (out_dir / "runs" / p.name).read_bytes() == p.read_bytes()

    def test_stored_config_digests_are_those_the_run_config_gives(self):
        """A rebuilt run computes its config digest and does not read the
        header's, which every stored run agrees with."""
        runs = sorted((Path(__file__).parent / "data" / "stored_sweep" / "runs").glob("*.jsonl"))
        assert len(runs) == 7
        for path in runs:
            header = read_trajectory(path)[0]
            config = RunConfig.from_dict(header["run_config"])
            assert header["run_config_digest"] == config.digest(header["dataset_digest"])
            assert path.stem == header["run_config_digest"][:16]

    def forest_sweep(self, tmp_path, out_dir, forest):
        """The rfr cell (alpha 2, seed 3, cap 8) on synthetic:quadratic2d:40:1 with
        these forest overrides: its (summary status, trajectory header, selected ids)."""
        path = self.sweep_config(
            tmp_path, dataset="synthetic:quadratic2d:40:1", proposers=["rfr"], alphas=[2], seeds=[3],
            max_iterations=8, model_overrides={"forest": forest},
        )
        assert main(["sweep", "--config", str(path), "--out-dir", str(out_dir)]) == EXIT_OK
        [row] = read_summary(out_dir / "summary.csv")
        header, steps = read_trajectory(out_dir / "runs" / f"{row['digest']}.jsonl")
        return row["status"], header, [s.candidate_id for s in steps]

    def test_resume_reruns_a_cell_stored_with_other_model_settings(self, tmp_path):
        out_dir = tmp_path / "results"
        status, _, stumps = self.forest_sweep(tmp_path, out_dir, {"n_trees": 5, "max_depth": 1})
        assert status == "ok" and stumps == [32, 0, 21, 22, 28, 16, 3, 8]
        status, header, ids = self.forest_sweep(tmp_path, out_dir, {"n_trees": 50})
        assert status == "ok"
        assert header["settings"]["n_trees"] == 50 and header["settings"]["max_depth"] is None
        _, _, fresh = self.forest_sweep(tmp_path, tmp_path / "fresh", {"n_trees": 50})
        assert ids == fresh == [32, 0, 21, 28, 3, 5, 33, 11]

    def test_gpr_header_records_only_gpr_settings(self, tmp_path):
        path = self.sweep_config(tmp_path, proposers=["gpr"], alphas=[1], seeds=[38], max_iterations=4,
                                 model_overrides={"forest": {"n_trees": 7}, "gpr": {"standardize_targets": True}})
        out_dir = tmp_path / "results"
        assert main(["sweep", "--config", str(path), "--out-dir", str(out_dir)]) == EXIT_OK
        [run] = (out_dir / "runs").glob("*.jsonl")
        header, _ = read_trajectory(run)
        assert header["settings"] == {"standardize_targets": True}

    def llm_sweep(self, tmp_path, fixtures, parallelism=1, **llm):
        """A replay LLM and random-walk sweep in the shape of the benchmark's sweep-report workload."""
        return self.sweep_config(
            tmp_path, dataset="synthetic:linear1d:10:0", proposers=["random_walk", "llm"], alphas=[0],
            seeds=[38, 39], repeats_at_seed={"39": 2}, prompt_formats=["parameter", "report"], max_iterations=4,
            parallelism=parallelism,
            llm={"client": f"replay:{fixtures}", "matcher": "offline", "offline_reports": True, **llm},
        )

    def sweep_statuses(self, path, out_dir):
        assert main(["sweep", "--config", str(path), "--out-dir", str(out_dir)]) == EXIT_OK
        return {(r["proposer"], r["digest"]): r["status"] for r in read_summary(out_dir / "summary.csv")}

    REPLIES = [FixtureRecord(response_text=f"```\nx: {x}\n```") for x in (0.2, 0.4, 0.6, 0.8)]

    def test_parallel_replay_sweep_resumes_every_cell(self, tmp_path):
        save_fixtures(self.REPLIES, tmp_path / "fx.jsonl")
        path = self.llm_sweep(tmp_path, tmp_path / "fx.jsonl", 2, rate_limit=1_000_000, backoff=0)
        out_dir = tmp_path / "results"
        first = self.sweep_statuses(path, out_dir)
        assert len(first) == 8 and set(first.values()) == {"ok"}
        assert self.sweep_statuses(path, out_dir) == dict.fromkeys(first, "skipped")

    @pytest.mark.parametrize(
        "client, workers",
        [("replay:fx.jsonl", 2), (MOCK, 2), ("live:http://127.0.0.1:1/v1|model", 1)],
        ids=["replay", "mock", "live"],
    )
    def test_only_live_clients_without_a_rate_limit_are_serialized(self, tmp_path, monkeypatch, client, workers):
        monkeypatch.chdir(tmp_path)
        save_fixtures(self.REPLIES, tmp_path / "fx.jsonl")
        cfg = {"llm": {"client": client}}
        assert cli.proposer_factory(cfg, {ProposerKind.LLM}, 2)[2] == workers
        assert cli.proposer_factory({"llm": {"client": client, "rate_limit": 600}}, {ProposerKind.LLM}, 2)[2] == 2

    def test_parallel_replay_sweep_without_a_rate_limit_writes_the_serial_bytes(self, tmp_path):
        save_fixtures(self.REPLIES, tmp_path / "fx.jsonl")
        written = []
        for parallelism in (1, 2):
            out_dir = tmp_path / f"p{parallelism}"
            assert self.sweep_statuses(self.llm_sweep(tmp_path, tmp_path / "fx.jsonl", parallelism), out_dir)
            files = [out_dir / "summary.csv", *sorted((out_dir / "reports").glob("*.csv"))]
            written.append({p.relative_to(out_dir): p.read_bytes() for p in files})
        assert len(written[0]) == 7 and written[0] == written[1]

    @pytest.mark.parametrize("llm", [{"rate_limit": 600}, {"backoff": 0.25}], ids=["rate-limit", "backoff"])
    def test_timing_settings_keep_every_cell(self, tmp_path, llm):
        save_fixtures(self.REPLIES, tmp_path / "fx.jsonl")
        out_dir = tmp_path / "results"
        first = self.sweep_statuses(self.llm_sweep(tmp_path, tmp_path / "fx.jsonl"), out_dir)
        again = self.sweep_statuses(self.llm_sweep(tmp_path, tmp_path / "fx.jsonl", **llm), out_dir)
        assert again == dict.fromkeys(first, "skipped")

    def test_replay_fixtures_are_recorded_by_content(self, tmp_path):
        save_fixtures(self.REPLIES, tmp_path / "fx.jsonl")
        out_dir = tmp_path / "results"
        first = self.sweep_statuses(self.llm_sweep(tmp_path, tmp_path / "fx.jsonl"), out_dir)
        run = next(d for kind, d in first if kind == "llm")
        header, _ = read_trajectory(out_dir / "runs" / f"{run}.jsonl")
        assert "fx.jsonl" not in json.dumps(header["settings"])
        (tmp_path / "moved").mkdir()
        save_fixtures(self.REPLIES, tmp_path / "moved" / "copy.jsonl")
        moved = self.llm_sweep(tmp_path, tmp_path / "moved" / "copy.jsonl")
        assert self.sweep_statuses(moved, out_dir) == dict.fromkeys(first, "skipped")
        edited = [*self.REPLIES[:-1], FixtureRecord(response_text="```\nx: 0.9\n```")]
        save_fixtures(edited, tmp_path / "moved" / "copy.jsonl")
        again = self.sweep_statuses(moved, out_dir)
        assert again == {(kind, d): "ok" if kind == "llm" else "skipped" for kind, d in first}

    def test_reports_emitted(self, tmp_path):
        path = self.sweep_config(tmp_path)
        out_dir = tmp_path / "results"
        main(["sweep", "--config", str(path), "--out-dir", str(out_dir)])
        reports = out_dir / "reports"
        for family in (
            "running_best.csv",
            "distance_curves.csv",
            "pca_coordinates.csv",
            "pca_trajectories.csv",
            "variability.csv",
            "similarity_scores.csv",
        ):
            assert (reports / family).exists()


class TestReport:
    def test_report_from_directory(self, tmp_path):
        out = tmp_path / "t1.jsonl"
        main(
            [
                "run",
                "--dataset",
                "synthetic:quadratic2d:25:4",
                "--proposer",
                "random_walk",
                "--seed",
                "38",
                "--out",
                str(out),
            ]
        )
        report_dir = tmp_path / "reports"
        code = main(["report", "--results", str(tmp_path), "--out-dir", str(report_dir)])
        assert code == EXIT_OK
        assert (report_dir / "running_best.csv").exists()
        assert (report_dir / "pca_trajectories.csv").exists()

    def test_all_families_from_single_unfinished_trajectory(self, tmp_path):
        out = tmp_path / "t.jsonl"
        # cap the run below the walk's likely hitting time so it ends unfinished
        main(
            [
                "run",
                "--dataset",
                "synthetic:quadratic2d:50:6",
                "--proposer",
                "random_walk",
                "--seed",
                "44",
                "--max-iterations",
                "2",
                "--out",
                str(out),
            ]
        )
        pool = build_dataset("synthetic:quadratic2d:50:6")[0]
        _, steps = read_trajectory(out)
        assert all(s.observed_value != pool.optimum_value for s in steps)  # truly unfinished
        report_dir = tmp_path / "reports"
        assert main(["report", "--results", str(tmp_path), "--out-dir", str(report_dir)]) == EXIT_OK
        for family in (
            "running_best.csv",
            "distance_curves.csv",
            "pca_coordinates.csv",
            "pca_trajectories.csv",
            "variability.csv",
            "similarity_scores.csv",
        ):
            assert (report_dir / family).exists()

    def test_corrupt_file_skipped_with_warning(self, tmp_path, caplog):
        out = tmp_path / "good.jsonl"
        main(
            [
                "run",
                "--dataset",
                "synthetic:linear1d:10:1",
                "--proposer",
                "random_walk",
                "--seed",
                "39",
                "--out",
                str(out),
            ]
        )
        (tmp_path / "bad.jsonl").write_text("{not json at all\n")
        report_dir = tmp_path / "reports"
        with caplog.at_level("WARNING"):
            code = main(["report", "--results", str(tmp_path), "--out-dir", str(report_dir)])
        assert code == EXIT_OK
        assert any("skipping" in r.message for r in caplog.records)

    def test_header_only_file_skipped_with_warning(self, tmp_path, caplog):
        good = tmp_path / "good.jsonl"
        args = ["--dataset", "synthetic:linear1d:10:1", "--proposer", "random_walk", "--seed", "39"]
        assert main(["run", *args, "--out", str(good)]) == EXIT_OK
        (tmp_path / "empty.jsonl").write_text(good.read_text().splitlines()[0] + "\n")
        report_dir = tmp_path / "reports"
        with caplog.at_level("WARNING"):
            code = main(["report", "--results", str(tmp_path), "--out-dir", str(report_dir)])
        assert code == EXIT_OK
        assert any("skipping" in r.message and "empty.jsonl" in r.message for r in caplog.records)
        assert sorted(p.name for p in report_dir.glob("*.csv")) == [
            "distance_curves.csv", "pca_coordinates.csv", "pca_trajectories.csv", "running_best.csv",
            "similarity_scores.csv", "variability.csv",
        ]

    def test_file_with_a_non_object_line_skipped_with_warning(self, tmp_path, caplog):
        good = tmp_path / "good.jsonl"
        args = ["--dataset", "synthetic:linear1d:10:1", "--proposer", "random_walk", "--seed", "39"]
        assert main(["run", *args, "--out", str(good)]) == EXIT_OK
        header = good.read_text().splitlines()[0]
        (tmp_path / "bad.jsonl").write_text(header + "\n5\n")
        with caplog.at_level("WARNING"):
            code = main(["report", "--results", str(tmp_path), "--out-dir", str(tmp_path / "reports")])
        assert code == EXIT_OK
        assert any("skipping" in r.message and "bad.jsonl" in r.message for r in caplog.records)

    @pytest.mark.parametrize(
        "key, value",
        [("candidate_id", 7.7), ("candidate_id", 9999), ("observed_value", float("nan"))],
        ids=["fractional-id", "out-of-pool-id", "nan-value"],
    )
    def test_file_with_a_malformed_step_skipped_with_warning(self, tmp_path, caplog, key, value):
        good = tmp_path / "good.jsonl"
        args = ["--dataset", "synthetic:linear1d:10:1", "--proposer", "random_walk", "--seed", "39"]
        assert main(["run", *args, "--out", str(good)]) == EXIT_OK
        lines = good.read_text().splitlines()
        lines[-1] = json.dumps({**json.loads(lines[-1]), key: value})
        (tmp_path / "bad.jsonl").write_text("\n".join(lines) + "\n")
        with caplog.at_level("WARNING"):
            code = main(["report", "--results", str(tmp_path), "--out-dir", str(tmp_path / "reports")])
        assert code == EXIT_OK
        assert any("skipping" in r.message and "bad.jsonl" in r.message for r in caplog.records)
        running_best = read_summary(tmp_path / "reports" / "running_best.csv")
        assert running_best and "nan" not in (tmp_path / "reports" / "running_best.csv").read_text()

    def test_run_on_edited_csv_skipped_with_both_digests(self, tmp_path, caplog):
        csv_path = tmp_path / "pool.csv"
        csv_path.write_text("x1,x2,y\n" + "".join(f"{i},{i % 3},{(i * 7) % 11}\n" for i in range(12)))
        spec = {"name": "pool", "csv_path": str(csv_path), "target_column": "y", "goal": "maximize"}
        config = tmp_path / "sweep.json"
        config.write_text(
            json.dumps({"dataset": spec, "proposers": ["random_walk"], "seeds": [38, 39], "parallelism": 1})
        )
        out_dir = tmp_path / "results"
        assert main(["sweep", "--config", str(config), "--out-dir", str(out_dir)]) == EXIT_OK
        header, _ = read_trajectory(next((out_dir / "runs").glob("*.jsonl")))
        recorded = header["dataset_digest"]

        csv_path.write_text(csv_path.read_text().replace("\n3,0,10\n", "\n3,0,4\n"))
        report_dir = tmp_path / "reports"
        with caplog.at_level("WARNING"):
            code = main(["report", "--results", str(out_dir / "runs"), "--out-dir", str(report_dir)])
        assert code == EXIT_CONFIG  # both runs skipped: nothing left to report
        current = build_dataset(spec)[0].digest()
        assert current != recorded
        skipped = [r.message for r in caplog.records if "skipping" in r.message]
        assert len(skipped) == 2
        assert all(recorded in m and current in m for m in skipped)

    def test_pool_that_fails_to_rebuild_is_tried_once(self, tmp_path, caplog, monkeypatch):
        csv_path = tmp_path / "pool.csv"
        csv_path.write_text("x1,x2,y\n" + "".join(f"{i},{i % 3},{(i * 7) % 11}\n" for i in range(12)))
        spec = {"name": "pool", "csv_path": str(csv_path), "target_column": "y", "goal": "maximize"}
        config = tmp_path / "sweep.json"
        config.write_text(
            json.dumps({"dataset": spec, "proposers": ["random_walk"], "seeds": [38, 39, 40], "parallelism": 1})
        )
        out_dir = tmp_path / "results"
        assert main(["sweep", "--config", str(config), "--out-dir", str(out_dir)]) == EXIT_OK
        csv_path.unlink()
        load, calls = data.load_csv, []
        monkeypatch.setattr(data, "load_csv", lambda spec: calls.append(spec) or load(spec))
        with caplog.at_level("WARNING"):
            code = main(["report", "--results", str(out_dir / "runs"), "--out-dir", str(tmp_path / "reports")])
        assert code == EXIT_CONFIG
        assert len(calls) == 1
        skipped = [r.message for r in caplog.records if "skipping" in r.message]
        paths = sorted((out_dir / "runs").glob("*.jsonl"))
        assert [m.split(": ")[0] for m in skipped] == [f"skipping {p}" for p in paths]
        assert len({m.split(": ", 1)[1] for m in skipped}) == 1 and "pool.csv" in skipped[0]

    def test_empty_directory_nonzero_exit(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["report", "--results", str(empty)]) == EXIT_CONFIG

    def test_running_best_export_matches_analytics(self, tmp_path):
        out = tmp_path / "t.jsonl"
        main(
            [
                "run",
                "--dataset",
                "synthetic:linear1d:12:5",
                "--proposer",
                "random_walk",
                "--seed",
                "41",
                "--out",
                str(out),
            ]
        )
        report_dir = tmp_path / "reports"
        main(["report", "--results", str(tmp_path), "--out-dir", str(report_dir)])
        import numpy as np

        from albench.types import Goal

        pool = build_dataset("synthetic:linear1d:12:5")[0]
        _, steps = read_trajectory(out)
        accumulate = np.maximum.accumulate if pool.goal is Goal.MAXIMIZE else np.minimum.accumulate
        expected = accumulate([s.observed_value for s in steps])
        rows = read_summary(report_dir / "running_best.csv")
        got = [float(r["running_best"]) for r in rows]
        assert got == pytest.approx(expected)


class TestReportExports:
    """Report CSVs of one sweep directory holding the runs of two pools: a
    CSV pool and a synthetic one, each swept with random-walk and mock-LLM
    cells."""

    CLIENT = "mock:```\nx1: 0.5\nx2: 0.5\n```"

    def write_pool(self, tmp_path, name="lab", salt=0):
        csv_path = tmp_path / f"{name}_{salt}.csv"
        rows = "".join(f"{i % 5},{(i * 3) % 7},{(i * 7 + salt) % 13}\n" for i in range(20))
        csv_path.write_text("x1,x2,y\n" + rows)
        return {"name": name, "csv_path": str(csv_path), "target_column": "y", "goal": "maximize"}

    def sweep(self, tmp_path, dataset, out_dir, parallelism=1):
        cfg = {
            "dataset": dataset, "proposers": ["random_walk", "llm"], "alphas": [0], "seeds": [38, 39],
            "repeats_at_seed": {}, "parallelism": parallelism, "llm": {"client": self.CLIENT, "matcher": "offline"},
        }
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(cfg))
        assert main(["sweep", "--config", str(path), "--out-dir", str(out_dir)]) == EXIT_OK

    def two_pool_reports(self, tmp_path):
        """Sweep both pools into one directory, then report it: (the second
        sweep's own report files, the report command's), as {name: bytes}."""
        out_dir = tmp_path / "results"
        self.sweep(tmp_path, self.write_pool(tmp_path), out_dir)
        self.sweep(tmp_path, "synthetic:quadratic2d:20:3", out_dir)
        assert main(["report", "--results", str(out_dir / "runs"), "--out-dir", str(tmp_path / "report")]) == EXIT_OK
        return [{p.name: p.read_bytes() for p in d.glob("*.csv")} for d in (out_dir / "reports", tmp_path / "report")]

    # sha256 of each report CSV, as written before the exports moved to row lists
    DIGESTS = {
        "distance_curves_lab.csv": "ded572a1f56f1088ee88e8717f902b215b120774872211b83ea3a05c631d29cf",
        "distance_curves_quadratic2d_n20_s3.csv": "e942c35d38873969d05101f985efccd2129d0923c47add36c4511b0daa1874bc",
        "pca_coordinates_lab.csv": "8d88962c1d22742b58e49d86c929d1172ec2113275b10471543c78920e6b495f",
        "pca_coordinates_quadratic2d_n20_s3.csv": "ff3418abf18068cded6f7661ce5d4a6ca91cb4f679460959327b0d05827c51cc",
        "pca_trajectories_lab.csv": "2b55846ed364b5227ecd5eee513d1abe5b47f14ff8239d52d91c770fdfe2f0f8",
        "pca_trajectories_quadratic2d_n20_s3.csv": "95afcee2ff10472aa049e345b22c4eea1ab9e3f7a8d95c148b323bdcc130fe2b",
        "running_best_lab.csv": "60356c444d667d1bad14991de41d854056997a7117da60f2407dfe4aae2630af",
        "running_best_quadratic2d_n20_s3.csv": "bfa7b1eee49d64ac3e9f8ca6d01df879c0cae2c6e3012298bd273f9f5578a9ea",
        "similarity_scores_lab.csv": "93f833e701d00941700edd51907ba826fc7d43774dc344732b169fbc733c8ff7",
        "similarity_scores_quadratic2d_n20_s3.csv": "9df8877a769219d1bb12c6c3cc9f5ef5bb224f294318639b71c12f663e878696",
        "variability_lab.csv": "11aa7806a4ceb042acb8064b5b6c40fb16f8b45aba8c2162402f8d76b4ff5bd5",
        "variability_quadratic2d_n20_s3.csv": "d5945d9bfc2eb53c70f229e053ec46f07a5d0413b94adb5f7fdfc02ebc0d3142",
    }

    def test_report_bytes_are_pinned(self, tmp_path):
        _, reports = self.two_pool_reports(tmp_path)
        digests = {name: hashlib.sha256(data).hexdigest() for name, data in reports.items()}
        assert digests == self.DIGESTS

    def test_sweep_reports_equal_the_report_command(self, tmp_path):
        swept, reported = self.two_pool_reports(tmp_path)
        assert len(reported) == 12 and swept == reported

    @pytest.mark.parametrize("parallelism", [1, 2])
    def test_sweep_loads_its_csv_once(self, tmp_path, monkeypatch, parallelism):
        """The parent loads the pool; workers and the report export reuse it."""
        from albench import data

        load, parent, calls = data.load_csv, os.getpid(), []

        def counting(spec):
            if os.getpid() != parent:
                raise AssertionError("a sweep worker loaded the pool")
            calls.append(spec.csv_path)
            return load(spec)

        monkeypatch.setattr(data, "load_csv", counting)
        self.sweep(tmp_path, self.write_pool(tmp_path), tmp_path / "results", parallelism)
        assert len(calls) == 1
        assert len(list((tmp_path / "results" / "reports").glob("*.csv"))) == 6

    def test_export_with_a_matching_pool_map_loads_no_csv(self, tmp_path, monkeypatch):
        from albench import analytics, data

        spec = self.write_pool(tmp_path)
        self.sweep(tmp_path, spec, tmp_path / "results")
        pool = build_dataset(spec)[0]

        def refuse(spec):
            raise AssertionError("loaded a CSV")

        exported = []
        for name in ("export_distance_curves", "export_pca"):
            export = getattr(analytics, name)
            monkeypatch.setattr(analytics, name, lambda p, runs, *paths, export=export: (
                exported.append((p, len(runs))) or export(p, runs, *paths)))
        monkeypatch.setattr(data, "load_csv", refuse)
        pools = {pool.digest(): pool}
        runs = read_runs(tmp_path / "results" / "runs", pools)
        assert pools == {pool.digest(): pool} and len(runs) == 4
        analytics.write_reports(tmp_path / "report", pools, [run for _, run in runs.values()])
        assert len(exported) == 2 and all(p is pool and n == 4 for p, n in exported)
        assert len(list((tmp_path / "report").glob("*.csv"))) == 6

    def test_export_removes_only_the_family_files_it_did_not_write(self, tmp_path):
        out_dir = tmp_path / "results"
        self.sweep(tmp_path, self.write_pool(tmp_path), out_dir)
        reports = out_dir / "reports"
        single = {p.name for p in reports.glob("*.csv")}
        assert len(single) == 6
        stale = ["running_best_old.csv", "variability_other_1234abcd.csv"]
        others = ["notes.csv", "running.csv", "summary_running_best.csv", "running_best.txt"]
        for name in [*stale, *others]:
            (reports / name).write_text("x\n")
        self.sweep(tmp_path, "synthetic:quadratic2d:20:3", out_dir)
        families = {p.name for p in reports.glob("*.csv")} - set(others)
        assert len(families) == 12 and not families & {*single, *stale}
        assert all((reports / name).read_text() == "x\n" for name in others)

    def test_same_named_pools_get_digest_suffixes(self, tmp_path):
        out_dir = tmp_path / "results"
        specs = [self.write_pool(tmp_path, "lab", salt) for salt in (0, 1)]
        for spec in specs:
            self.sweep(tmp_path, spec, out_dir)
        assert main(["report", "--results", str(out_dir / "runs"), "--out-dir", str(tmp_path / "report")]) == EXIT_OK
        runs = {}
        for path in (out_dir / "runs").glob("*.jsonl"):
            runs.setdefault(read_trajectory(path)[0]["dataset_digest"], set()).add(path.stem)
        digests = [build_dataset(spec)[0].digest() for spec in specs]
        assert sorted(runs) == sorted(digests) and digests[0][:8] != digests[1][:8]
        families = ("running_best", "distance_curves", "pca_coordinates", "pca_trajectories", "variability",
                    "similarity_scores")
        expected = {f"{family}_lab_{digest[:8]}.csv" for family in families for digest in digests}
        assert {p.name for p in (tmp_path / "report").glob("*.csv")} == expected
        for digest in digests:
            rows = read_summary(tmp_path / "report" / f"running_best_lab_{digest[:8]}.csv")
            assert {r["digest"] for r in rows} == runs[digest] and len(runs[digest]) == 4

    @pytest.mark.parametrize(
        "names, suffixes",
        [
            (("lab/a", "lab"), ("lab_a", "lab")),
            # "lab/a" and "lab_a" would share a file name, so each adds its digest
            (("lab/a", "lab_a"), ("lab_a_{digest8}", "lab_a_{digest8}")),
        ],
        ids=["separator", "separator-collision"],
    )
    def test_pool_names_with_path_separators_stay_in_the_report_directory(self, tmp_path, names, suffixes):
        from albench import analytics

        out_dir = tmp_path / "results"
        specs = []
        for salt, name in enumerate(names):
            specs.append({**self.write_pool(tmp_path, "pool", salt), "name": name})
            self.sweep(tmp_path, specs[-1], out_dir)  # the second sweep exports both pools
        digests = [build_dataset(spec)[0].digest() for spec in specs]
        stems = [suffix.format(digest8=digest[:8]) for suffix, digest in zip(suffixes, digests)]
        expected = {f"{family}_{stem}.csv" for family in analytics.REPORT_FAMILIES for stem in stems}
        assert len(expected) == 12 and {p.name for p in (out_dir / "reports").iterdir()} == expected
        assert main(["report", "--results", str(out_dir / "runs"), "--out-dir", str(tmp_path / "report")]) == EXIT_OK
        assert {p.name for p in (tmp_path / "report").iterdir()} == expected
        for stem in stems:
            rows = read_summary(tmp_path / "report" / f"running_best_{stem}.csv")
            assert len({r["digest"] for r in rows}) == 4
