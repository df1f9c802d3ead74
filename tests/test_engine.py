"""Engine contracts: initialization, standardization, stopping, the loop."""

import os
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from albench.data import synthetic_pool
from albench.engine import (
    Suggestion,
    reached_optimum_at,
    read_trajectory,
    rebuild_trajectory,
    run_active_learning,
    select_initial,
    standardize_features,
    trajectory_to_jsonl,
    unlabeled_pool_ids,
    write_trajectory,
)
from albench.errors import (
    ConfigError,
    NumericalError,
    ProposerError,
    ProtocolViolationError,
    RunAborted,
    ShapeError,
)
from albench.proposers import RandomWalkProposer, make_proposer
from albench.types import Goal, ProposerKind, RunConfig, StepRecord

from conftest import make_pool


def check_stopping(trajectory, dataset) -> bool:
    """True iff some observed value equals the pool optimum, exactly."""
    return reached_optimum_at(trajectory.steps, dataset.optimum_value) is not None


@dataclass
class ScriptedProposer:
    """Emits a fixed id sequence."""

    ids: list[int]
    position: int = 0

    def propose(self, dataset, observed_ids, observed_values) -> Suggestion:
        cid = self.ids[self.position]
        self.position += 1
        return Suggestion(candidate_id=cid)


class TestSelectInitial:
    def test_forced_distinctness(self):
        pool = make_pool([1, 2, 3, 4, 5])
        ids = select_initial(pool, seed=7, n_initial=4)
        assert len(ids) == 4
        assert len(set(ids)) == 4
        assert set(ids) <= {0, 1, 2, 3, 4}

    def test_deterministic(self):
        pool = make_pool([1, 2, 3, 4, 5])
        assert select_initial(pool, 42, 1) == select_initial(pool, 42, 1)

    def test_matches_documented_prng_stream(self):
        # oracle: replay the documented algorithm independently
        pool = synthetic_pool("linear1d", 73, seed=0)
        for seed in (38, 39):
            ids = select_initial(pool, seed, 5)
            expected = np.random.default_rng(seed).choice(73, size=5, replace=False)
            assert ids == [int(i) for i in expected]
        assert select_initial(pool, 38, 5) != select_initial(pool, 39, 5)

    def test_range_validation(self):
        pool = make_pool([1, 2, 3])
        with pytest.raises(ConfigError):
            select_initial(pool, 0, 0)
        with pytest.raises(ConfigError):
            select_initial(pool, 0, 3)


class TestStandardize:
    def test_two_point_reference(self):
        z = standardize_features([[0.0], [2.0]], [[0.0], [2.0]])
        assert z.tolist() == [[-1.0], [1.0]]

    def test_constant_column_maps_to_zero(self):
        ref = [[1.0, 5.0], [2.0, 5.0], [3.0, 5.0]]
        z = standardize_features(ref, [[2.0, 5.0], [9.0, -4.0]])
        assert np.all(z[:, 1] == 0.0)

    def test_moments_of_self_standardized_reference(self, rng):
        ref = rng.normal(size=(10, 3)) * 4 + 2
        z = standardize_features(ref, ref)
        assert np.allclose(z.mean(axis=0), 0.0, atol=1e-12)
        assert np.allclose(z.std(axis=0), 1.0, atol=1e-12)

    def test_single_reference_point(self):
        z = standardize_features([[3.0, 4.0]], [[3.0, 4.0], [10.0, -1.0]])
        assert np.all(z == 0.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            standardize_features([[1.0, 2.0]], [[1.0]])


class TestCheckStopping:
    def test_not_yet(self):
        pool = make_pool([1, 5, 3])
        seed = next(s for s in range(20) if select_initial(pool, s, 1)[0] != 1)
        cfg = RunConfig(ProposerKind.RANDOM_WALK, seed=seed, max_iterations=1)
        traj = run_active_learning(pool, cfg, RandomWalkProposer(seed))
        assert check_stopping(traj, pool) is False

    def test_hits_on_maximum(self, ramp_pool):
        cfg = RunConfig(ProposerKind.RANDOM_WALK, seed=1)
        traj = run_active_learning(ramp_pool, cfg, RandomWalkProposer(1))
        assert check_stopping(traj, ramp_pool) is True
        assert traj.steps[-1].observed_value == 5.0

    def test_value_based_on_duplicate_minima(self):
        pool = make_pool([0.0, 0.0, 2.0], goal=Goal.MINIMIZE)
        # scripted: first proposal is one of the zeros
        cfg = RunConfig(ProposerKind.RANDOM_WALK, seed=0, n_initial=1)
        traj = run_active_learning(pool, cfg, ScriptedProposer(ids=[0, 1]))
        assert traj.reached_optimum_at is not None


class TestPoolHelpers:
    @settings(max_examples=50, deadline=None)
    @given(st.integers(1, 40).flatmap(lambda n: st.tuples(st.just(n), st.lists(st.integers(0, n - 1), unique=True))))
    def test_unlabeled_ids_are_the_sorted_set_difference(self, case):
        n, observed = case
        got = unlabeled_pool_ids(n, observed)
        assert got.tolist() == sorted(set(range(n)) - set(observed))

    def test_reached_optimum_at_is_the_first_exact_hit(self):
        values = [1.0, 5.0 - 1e-12, 5.0, 2.0, 5.0]
        steps = [StepRecord(i, i, v, max(values[: i + 1])) for i, v in enumerate(values)]
        assert reached_optimum_at(steps, 5.0) == 2
        assert reached_optimum_at(steps[:2], 5.0) is None
        assert reached_optimum_at([], 5.0) is None


class TestRunLoop:
    def test_scripted_optimum_first(self, ramp_pool):
        # optimum of ramp_pool is id 1 (value 5)
        cfg = RunConfig(ProposerKind.RANDOM_WALK, seed=3, n_initial=1)
        init = select_initial(ramp_pool, 3, 1)
        script = [i for i in (1, 0, 2, 3, 4) if i not in init]
        traj = run_active_learning(ramp_pool, cfg, ScriptedProposer(ids=script))
        if ramp_pool.candidates[init[0]].target == 5.0:
            assert traj.reached_optimum_at < cfg.n_initial
        else:
            assert traj.reached_optimum_at == cfg.n_initial

    def test_random_walk_exhaustion_and_halt(self):
        targets = [3, 1, 4, 1, 5, 9, 2, 6, 8, 7]
        pool = make_pool(targets)
        cfg = RunConfig(ProposerKind.RANDOM_WALK, seed=11, max_iterations=10)
        traj = run_active_learning(pool, cfg, RandomWalkProposer(11))
        ids = traj.selected_ids()
        assert len(ids) == len(set(ids))
        assert traj.steps[-1].observed_value == 9
        assert traj.reached_optimum_at == len(traj.steps) - 1

    def test_gpr_run_twice_byte_identical(self):
        pool = synthetic_pool("quadratic2d", 25, seed=1)
        cfg = RunConfig(ProposerKind.GPR, alpha=2.0, seed=40)
        a = run_active_learning(pool, cfg, make_proposer(cfg))
        b = run_active_learning(pool, cfg, make_proposer(cfg))
        assert trajectory_to_jsonl(a) == trajectory_to_jsonl(b)

    def test_batch_size_one_accounting(self, ramp_pool):
        cfg = RunConfig(ProposerKind.RANDOM_WALK, seed=5, n_initial=2, max_iterations=5)
        traj = run_active_learning(ramp_pool, cfg, RandomWalkProposer(5))
        for t, step in enumerate(traj.steps):
            assert step.iteration == t
            observed_so_far = len({s.candidate_id for s in traj.steps[: t + 1]})
            assert observed_so_far == t + 1

    def test_running_best_monotone(self):
        pool = make_pool([5, 1, 4, 2, 3], goal=Goal.MINIMIZE)
        cfg = RunConfig(ProposerKind.RANDOM_WALK, seed=2)
        traj = run_active_learning(pool, cfg, RandomWalkProposer(2))
        series = traj.running_best_series()
        assert all(b <= a for a, b in zip(series, series[1:]))

    def test_reselection_is_protocol_violation(self, ramp_pool):
        cfg = RunConfig(ProposerKind.RANDOM_WALK, seed=3, n_initial=1)
        init = select_initial(ramp_pool, 3, 1)
        with pytest.raises(ProtocolViolationError):
            run_active_learning(ramp_pool, cfg, ScriptedProposer(ids=[init[0]]))

    def test_proposer_failure_aborts_with_partial(self, ramp_pool):
        class Failing:
            def propose(self, dataset, observed_ids, observed_values):
                raise ProposerError("boom")

        cfg = RunConfig(ProposerKind.LLM, seed=3, n_initial=2)
        with pytest.raises(RunAborted) as exc_info:
            run_active_learning(ramp_pool, cfg, Failing())
        partial = exc_info.value.partial
        assert partial is not None
        assert len(partial.steps) == 2

    def test_data_fraction(self, ramp_pool):
        cfg = RunConfig(ProposerKind.RANDOM_WALK, seed=9, max_iterations=3)
        traj = run_active_learning(ramp_pool, cfg, RandomWalkProposer(9))
        assert traj.data_fraction_used == len(traj.steps) / len(ramp_pool)

    def test_alpha_validation(self, ramp_pool):
        with pytest.raises(ConfigError):
            RunConfig(ProposerKind.GPR, alpha=-1.0).validate(len(ramp_pool))

    @pytest.mark.parametrize("alpha", [float("nan"), float("inf")])
    def test_non_finite_alpha_rejected(self, ramp_pool, alpha):
        with pytest.raises(ConfigError, match="finite"):
            RunConfig(ProposerKind.RFR, alpha=alpha).validate(len(ramp_pool))

    def test_max_iterations_below_n_initial(self, ramp_pool):
        with pytest.raises(ConfigError):
            RunConfig(ProposerKind.GPR, n_initial=3, max_iterations=2).validate(len(ramp_pool))

    def test_proposer_kind_mismatch_rejected(self, ramp_pool):
        cfg = RunConfig(ProposerKind.GPR, seed=1)
        with pytest.raises(ConfigError):
            run_active_learning(ramp_pool, cfg, RandomWalkProposer(1))


class TestStoppingMinimality:
    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_reached_is_first_hit(self, seed):
        pool = make_pool([2, 7, 7, 1, 5, 7])
        cfg = RunConfig(ProposerKind.RANDOM_WALK, seed=seed)
        traj = run_active_learning(pool, cfg, RandomWalkProposer(seed))
        hits = [s.iteration for s in traj.steps if s.observed_value == 7]
        assert traj.reached_optimum_at == hits[0]
        assert traj.steps[-1].iteration == traj.reached_optimum_at


class TestRunConfigFromDict:
    def test_round_trip_and_defaults(self):
        cfg = RunConfig(ProposerKind.GPR, alpha=1.5, seed=3, repeat_index=2, n_initial=4, max_iterations=9)
        assert RunConfig.from_dict(cfg.to_dict()) == cfg
        assert RunConfig.from_dict({"proposer": "gpr"}) == RunConfig(ProposerKind.GPR)

    def test_integer_alpha_is_stored_as_float(self):
        alpha = RunConfig.from_dict({"proposer": "gpr", "alpha": 2}).alpha
        assert alpha == 2.0 and isinstance(alpha, float)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("proposer", "nope"),
            ("proposer", None),
            ("alpha", "2"),
            ("alpha", -1),
            ("alpha", float("nan")),
            ("alpha", True),
            ("seed", 1.5),
            ("seed", -1),
            ("seed", "1"),
            ("repeat_index", -1),
            ("n_initial", True),
            ("n_initial", 0),
            ("n_initial", 1.0),
            ("max_iterations", 3.7),
            ("max_iterations", False),
            ("prompt_format", "prose"),
            ("colour", "red"),
        ],
    )
    def test_bad_value_is_config_error_naming_the_key(self, key, value):
        with pytest.raises(ConfigError, match=key):
            RunConfig.from_dict({"proposer": "gpr", key: value})

    @pytest.mark.parametrize("d", [[], "gpr", None])
    def test_non_object_is_config_error(self, d):
        with pytest.raises(ConfigError):
            RunConfig.from_dict(d)


class TestTrajectoryIO:
    def test_round_trip(self, tmp_path, ramp_pool):
        cfg = RunConfig(ProposerKind.RANDOM_WALK, seed=6, n_initial=2)
        traj = run_active_learning(ramp_pool, cfg, RandomWalkProposer(6))
        path = tmp_path / "t.jsonl"
        write_trajectory(traj, path, {"source": "synthetic:test"})
        header, steps = read_trajectory(path)
        assert RunConfig.from_dict(header["run_config"]) == cfg
        assert header["dataset_digest"] == ramp_pool.digest()
        assert [s.to_dict() for s in steps] == [s.to_dict() for s in traj.steps]
        rebuilt = rebuild_trajectory(header, steps, ramp_pool)
        assert rebuilt.reached_optimum_at == traj.reached_optimum_at
        assert rebuilt.data_fraction_used == traj.data_fraction_used

    def test_rebuild_against_another_pool_names_both_digests(self, tmp_path, ramp_pool):
        cfg = RunConfig(ProposerKind.RANDOM_WALK, seed=6, n_initial=2)
        write_trajectory(run_active_learning(ramp_pool, cfg, RandomWalkProposer(6)), tmp_path / "t.jsonl")
        header, steps = read_trajectory(tmp_path / "t.jsonl")
        edited = make_pool([1.0, 5.0, 3.0, 2.0, 4.5])
        with pytest.raises(ConfigError) as info:
            rebuild_trajectory(header, steps, edited)
        assert ramp_pool.digest() in str(info.value) and edited.digest() in str(info.value)

    @pytest.mark.parametrize("header", ['"run_config"', '["run_config"]'])
    def test_header_that_is_not_an_object_is_config_error(self, tmp_path, header):
        (tmp_path / "t.jsonl").write_text(header + "\n")
        with pytest.raises(ConfigError, match="no header"):
            read_trajectory(tmp_path / "t.jsonl")

    def test_non_finite_value_is_refused(self, tmp_path, ramp_pool):
        cfg = RunConfig(ProposerKind.RANDOM_WALK, seed=6, n_initial=2)
        traj = run_active_learning(ramp_pool, cfg, RandomWalkProposer(6))
        path = tmp_path / "t.jsonl"
        write_trajectory(traj, path)
        before = path.read_text()
        for bad in (float("nan"), float("inf"), float("-inf")):
            traj.steps[-1] = replace(traj.steps[-1], match_score=bad)
            with pytest.raises(NumericalError):
                trajectory_to_jsonl(traj)
            with pytest.raises(NumericalError):
                write_trajectory(traj, path)
            assert path.read_text() == before
        assert os.listdir(tmp_path) == ["t.jsonl"]

    def test_failed_write_keeps_previous_file(self, tmp_path, ramp_pool, monkeypatch):
        path = tmp_path / "t.jsonl"
        first = run_active_learning(ramp_pool, RunConfig(ProposerKind.RANDOM_WALK, seed=6, n_initial=2), RandomWalkProposer(6))
        write_trajectory(first, path)
        before = path.read_text()

        def killed(src, dst):
            # the new text was written in full; the writer dies before the rename
            assert Path(src).read_text() == trajectory_to_jsonl(second)
            raise KeyboardInterrupt

        second = run_active_learning(ramp_pool, RunConfig(ProposerKind.RANDOM_WALK, seed=7, n_initial=3), RandomWalkProposer(7))
        monkeypatch.setattr("albench.engine.os.replace", killed)
        with pytest.raises(KeyboardInterrupt):
            write_trajectory(second, path)
        assert path.read_text() == before
        assert os.listdir(tmp_path) == ["t.jsonl"]
        monkeypatch.undo()
        write_trajectory(second, path)
        assert path.read_text() == trajectory_to_jsonl(second) != before

    def test_header_reconstructs_exact_config(self, tmp_path, ramp_pool):
        cfg = RunConfig(
            ProposerKind.RANDOM_WALK,
            alpha=0.0,
            seed=13,
            repeat_index=2,
            n_initial=1,
            max_iterations=4,
        )
        traj = run_active_learning(ramp_pool, cfg, RandomWalkProposer(13))
        path = tmp_path / "t.jsonl"
        write_trajectory(traj, path)
        header, _ = read_trajectory(path)
        assert RunConfig.from_dict(header["run_config"]) == cfg
