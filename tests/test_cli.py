"""Command-line behavior: run, sweep with resume, report exports, exit codes."""

import csv
import json

import pytest

from albench.cli import EXIT_CONFIG, EXIT_OK, expand_sweep, main
from albench.clients import save_fixtures, FixtureRecord
from albench.engine import read_trajectory


def read_summary(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


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
