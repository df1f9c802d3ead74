"""Command-line behavior: run, sweep with resume, report exports, exit codes."""

import csv
import json

import pytest

from albench import cli
from albench.cli import EXIT_CONFIG, EXIT_OK, expand_sweep, main
from albench.clients import FixtureRecord, TokenBucket
from albench.engine import read_trajectory
from albench.errors import ConfigError
from albench.types import RunConfig

from conftest import save_fixtures


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
]

MOCK = "mock:```\nx: 0.5\n```"
RUN_SECTION = {"proposer": "llm", "seed": 38, "max_iterations": 3}
SPEC = {"name": "pool", "csv_path": "pool.csv", "target_column": "y", "goal": "maximize"}


def bad_run_value(key, value, sweep=None):
    """A bad `run` value for `albench run`, plus the same value where a sweep
    reads it (by default the top-level key of the same name)."""
    return {"run": {**RUN_SECTION, key: value}, **({key: value} if sweep is None else sweep)}


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
    pytest.param({"llm": {"client": MOCK, "offline_reports": "yes"}}, "offline_reports", id="llm-string-offline-reports"),
    pytest.param({"llm": {"client": MOCK, "retries": 3}}, "retries", id="llm-unknown-key"),
    pytest.param({"llm": {"matcher": "offline"}}, "chat client", id="llm-no-client"),
    pytest.param({"llm": MOCK}, "'llm'", id="llm-not-object"),
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
    def test_is_config_error_before_any_write(self, tmp_path, capsys, command, patch, named):
        code, out = getattr(self, command)(tmp_path, patch)
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert err.startswith("config error:") and named in err and "Traceback" not in err
        assert not out.exists()


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
        "run, named",
        [({"proposer": "random_walk", "max_iteration": 3}, "max_iteration"), ({"seed": 1}, "proposer")],
        ids=["unknown-key", "no-proposer"],
    )
    def test_bad_run_section_is_config_error(self, tmp_path, capsys, run, named):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"dataset": "synthetic:linear1d:12:3", "run": run}))
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
            ({"n_initial": "x"}, "bad run config"),
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
        monkeypatch.setattr(cli, "_export_reports", lambda *args: None)
        assert main(["sweep", "--config", str(path), "--out-dir", str(out_dir)]) == EXIT_OK
        assert [r["status"] for r in read_summary(out_dir / "summary.csv")] == ["skipped"] * len(runs)
        # one parse per grid cell, and one per stored header
        assert len(parsed) == 2 * len(runs)

    def test_totals_match_trajectory_files(self, tmp_path):
        path = self.sweep_config(tmp_path)
        out_dir = tmp_path / "results"
        main(["sweep", "--config", str(path), "--out-dir", str(out_dir)])
        rows = read_summary(out_dir / "summary.csv")
        from albench.data import parse_synthetic_string

        pool = parse_synthetic_string("synthetic:quadratic2d:30:2")
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
        assert "exhausted" in rows[0]["error"]

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

    def resumable_sweep(self, tmp_path, parallelism):
        """Run a three-cell sweep; return (config path, out dir, run file bytes)."""
        path = self.sweep_config(
            tmp_path, proposers=["random_walk"], seeds=[38, 39, 40], parallelism=parallelism
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

    @pytest.mark.parametrize(
        "run_config", [{"proposer": "nope"}, {}], ids=["unknown-proposer", "empty-run-config"]
    )
    def test_malformed_stored_header_reruns_the_cell(self, tmp_path, run_config):
        path, out_dir, runs = self.resumable_sweep(tmp_path, 1)
        damaged = sorted(runs)[0]
        lines = runs[damaged].decode().splitlines(keepends=True)
        header = json.loads(lines[0])
        header["run_config"] = run_config
        lines[0] = json.dumps(header, sort_keys=True) + "\n"
        (out_dir / "runs" / damaged).write_text("".join(lines))
        self.rerun_touches_only(path, out_dir, runs, damaged)

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
        from albench.data import parse_synthetic_string

        pool = parse_synthetic_string("synthetic:quadratic2d:50:6")
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
        from albench.cli import build_dataset

        current = build_dataset(spec)[0].digest()
        assert current != recorded
        skipped = [r.message for r in caplog.records if "skipping" in r.message]
        assert len(skipped) == 2
        assert all(recorded in m and current in m for m in skipped)

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
        from albench.analytics import running_best
        from albench.data import parse_synthetic_string

        pool = parse_synthetic_string("synthetic:linear1d:12:5")
        _, steps = read_trajectory(out)
        expected = running_best([s.observed_value for s in steps], pool.goal)
        rows = read_summary(report_dir / "running_best.csv")
        got = [float(r["running_best"]) for r in rows]
        assert got == pytest.approx(expected)
