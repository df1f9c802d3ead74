"""Engine contracts: initialization, standardization, stopping, the loop."""

import json
import os
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from albench.data import build_dataset, synthetic_pool
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
from albench.bnn import BNNConfig
from albench.forest_gbt import ForestConfig, GBTConfig
from albench.proposers import DEFAULT_SETTINGS, GPRConfig, ProposerSettings, RandomWalkProposer, make_proposer
from albench.types import Goal, PromptFormat, ProposerKind, RunConfig, StepRecord

from conftest import STORED_RUN_EDITS, append_step, make_pool


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
        if ramp_pool.targets[init[0]] == 5.0:
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

    @pytest.mark.parametrize("bad_id", [3.7, 3.0, "3"])
    def test_non_integer_id_is_protocol_violation(self, ramp_pool, bad_id):
        """A proposer's id is never truncated: 3.7 does not observe candidate 3."""
        cfg = RunConfig(ProposerKind.RANDOM_WALK, seed=3, n_initial=1)
        with pytest.raises(ProtocolViolationError, match="non-integer"):
            run_active_learning(ramp_pool, cfg, ScriptedProposer(ids=[bad_id]))

    @pytest.mark.parametrize("bad_id", [-1, 5])
    def test_unknown_id_names_its_iteration(self, ramp_pool, bad_id):
        cfg = RunConfig(ProposerKind.RANDOM_WALK, seed=3, n_initial=1)
        init = select_initial(ramp_pool, 3, 1)
        valid = next(i for i in (0, 2, 3, 4) if i not in init)  # not the optimum, candidate 1
        with pytest.raises(ProtocolViolationError, match=f"unknown candidate id {bad_id} at iteration 2$"):
            run_active_learning(ramp_pool, cfg, ScriptedProposer(ids=[valid, bad_id]))

    def test_numpy_integer_id_is_accepted(self, ramp_pool):
        cfg = RunConfig(ProposerKind.RANDOM_WALK, seed=3, n_initial=1, max_iterations=2)
        init = select_initial(ramp_pool, 3, 1)
        cid = np.int64(next(i for i in range(len(ramp_pool)) if i not in init))
        traj = run_active_learning(ramp_pool, cfg, ScriptedProposer(ids=[cid]))
        assert traj.selected_ids()[-1] == cid

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

    @pytest.mark.parametrize(
        "values",
        [{"alpha": -1.0}, {"seed": -1}, {"repeat_index": -1}, {"n_initial": 0}, {"n_initial": 3, "max_iterations": 2}],
        ids=["alpha", "seed", "repeat-index", "n-initial", "max-iterations"],
    )
    def test_out_of_range_value_raises_at_construction(self, values):
        with pytest.raises(ConfigError, match=next(iter(values))):
            RunConfig(ProposerKind.GPR, **values)

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
            ("alpha", 10**400),
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


class CyclingChatClient:
    """Answers with `replies` in turn, round and round."""

    def __init__(self, replies):
        self.replies, self.calls = replies, 0

    def send(self, messages, temperature):
        self.calls += 1
        return self.replies[(self.calls - 1) % len(self.replies)]


# small models, so every proposer kind runs in well under a second
TINY_SETTINGS = ProposerSettings(
    forest=ForestConfig(n_trees=5), gbt=GBTConfig(n_rounds=5),
    bnn=BNNConfig(hidden_layers=1, width=8, epochs=20, mc_samples=8), offline_reports=True,
)

# a 30-row pool on which random walk at seed 38 (n_initial 2) takes 8 steps
# without reaching the optimum: what `conftest.STORED_RUN_EDITS` edits
EDIT_POOL = "synthetic:quadratic2d:30:2"
EDIT_CONFIG = RunConfig(ProposerKind.RANDOM_WALK, seed=38, n_initial=2, max_iterations=8)


def stored_run(tmp_path, pool, cfg):
    """(header, step dicts) of a random-walk run on `pool`, as written."""
    write_trajectory(run_active_learning(pool, cfg, RandomWalkProposer(cfg.seed)), tmp_path / "t.jsonl")
    lines = (tmp_path / "t.jsonl").read_text().splitlines()
    return json.loads(lines[0]), [json.loads(line) for line in lines[1:]]


class TestTrajectoryIO:
    @pytest.mark.parametrize(
        "kind, prompt_format",
        [(ProposerKind.RANDOM_WALK, "parameter"), (ProposerKind.LLM, "parameter"), (ProposerKind.LLM, "report"),
         (ProposerKind.RFR, "parameter"), (ProposerKind.GBT, "parameter"), (ProposerKind.BNN, "parameter"),
         (ProposerKind.GPR, "parameter")],
        ids=["random_walk", "llm-parameter", "llm-report", "rfr", "gbt", "bnn", "gpr"],
    )
    def test_round_trip(self, tmp_path, kind, prompt_format):
        """Every kind's steps, with their proposal text, match score and
        diagnostics, read back to the run that wrote them."""
        features = [(float(i % 4), float(i // 4)) for i in range(12)]
        pool = make_pool([float((5 * i) % 12) for i in range(12)], features=features)
        cfg = RunConfig(kind, alpha=1.0, seed=6, n_initial=2, max_iterations=7, prompt_format=PromptFormat(prompt_format))
        # two unparsable replies make the LLM fall back to a random draw
        client = CyclingChatClient(["prose", "prose", "```\nx1: 3\nx2: 0\n```"])
        traj = run_active_learning(pool, cfg, make_proposer(cfg, TINY_SETTINGS, chat_client=client))
        path = tmp_path / "t.jsonl"
        write_trajectory(traj, path, {"source": "synthetic:test"}, TINY_SETTINGS.record(kind))
        header, steps = read_trajectory(path)
        assert RunConfig.from_dict(header["run_config"]) == cfg
        assert header["dataset_digest"] == pool.digest()
        assert [s.to_dict() for s in steps] == [s.to_dict() for s in traj.steps]
        assert rebuild_trajectory(header, steps, pool) == traj
        assert len(steps) > cfg.n_initial
        if kind is ProposerKind.LLM:
            assert {s.surrogate_diag is not None and "parse_fallback" in s.surrogate_diag for s in steps} == {True, False}
            assert any(s.proposal_text and s.match_score is not None for s in steps)
        elif kind in (ProposerKind.BNN, ProposerKind.GPR):  # the trees record no diagnostics
            assert all(s.surrogate_diag for s in steps[cfg.n_initial:])

    @pytest.mark.parametrize("edit, reason", STORED_RUN_EDITS)
    def test_rebuild_refuses_a_run_the_protocol_could_not_produce(self, tmp_path, edit, reason):
        pool = build_dataset(EDIT_POOL)[0]
        header, steps = stored_run(tmp_path, pool, EDIT_CONFIG)
        assert len(steps) == 8 and steps[-1]["running_best"] != pool.optimum_value
        rebuild_trajectory(header, [StepRecord.from_dict(s) for s in steps], pool)
        edited = [StepRecord.from_dict(s) for s in edit(steps, pool)]
        with pytest.raises(ConfigError, match=reason):
            rebuild_trajectory(header, edited, pool)

    def test_rebuild_refuses_a_step_after_the_optimum(self, tmp_path):
        pool = build_dataset(EDIT_POOL)[0]
        header, steps = stored_run(tmp_path, pool, replace(EDIT_CONFIG, max_iterations=None))
        assert steps[-1]["observed_value"] == pool.optimum_value and len(steps) < len(pool)
        edited = [StepRecord.from_dict(s) for s in append_step(steps, pool)]
        with pytest.raises(ConfigError, match=f"^iteration {len(steps)}: the run had already reached the pool optimum$"):
            rebuild_trajectory(header, edited, pool)

    def test_rebuild_reads_every_prefix_of_a_valid_run(self, tmp_path):
        pool = build_dataset(EDIT_POOL)[0]
        header, steps = stored_run(tmp_path, pool, EDIT_CONFIG)
        records = [StepRecord.from_dict(s) for s in steps]
        for n in range(1, len(records) + 1):
            assert rebuild_trajectory(header, records[:n], pool).steps == records[:n]

    def test_every_initial_draw_is_recorded_even_after_the_optimum(self, tmp_path):
        """The first draw is the optimum: the second is still observed, and
        the stored run reads."""
        first = select_initial(make_pool([0.0] * 6), 3, 2)[0]
        pool = make_pool([10.0 if i == first else float(i) for i in range(6)])
        cfg = RunConfig(ProposerKind.RANDOM_WALK, seed=3, n_initial=2)
        run = run_active_learning(pool, cfg, RandomWalkProposer(3))
        assert run.selected_ids() == select_initial(pool, 3, 2) and run.reached_optimum_at == 0
        write_trajectory(run, tmp_path / "t.jsonl")
        assert rebuild_trajectory(*read_trajectory(tmp_path / "t.jsonl"), pool) == run

    def test_partial_run_round_trip(self, tmp_path, ramp_pool):
        """The partial run that `execute_run` writes on an abort rebuilds to
        the one the RunAborted carries."""
        from albench.cli import execute_run

        class FailingSecond(ScriptedProposer):
            def propose(self, dataset, observed_ids, observed_values):
                if self.position == 1:
                    raise ProposerError("boom")
                return Suggestion(super().propose(dataset, observed_ids, observed_values).candidate_id,
                                  proposal_text="x1: 4", match_score=0.5, surrogate_diag={"parse_fallback": 0.0})

        cfg = RunConfig(ProposerKind.LLM, seed=3, n_initial=2)
        initial = select_initial(ramp_pool, 3, 2)
        # the worst candidate first, so the run cannot stop before the abort
        unlabeled = sorted((i for i in range(len(ramp_pool)) if i not in initial), key=ramp_pool.targets.__getitem__)
        path = tmp_path / "t.jsonl"
        with pytest.raises(RunAborted) as info:
            execute_run(ramp_pool, {"source": "synthetic:test"}, cfg, path,
                        lambda config: FailingSecond(ids=unlabeled), DEFAULT_SETTINGS)
        partial = info.value.partial
        assert len(partial.steps) == 3 and partial.steps[-1].proposal_text == "x1: 4"
        assert rebuild_trajectory(*read_trajectory(path), ramp_pool) == partial

    def test_rebuild_against_another_pool_names_both_digests(self, tmp_path, ramp_pool):
        cfg = RunConfig(ProposerKind.RANDOM_WALK, seed=6, n_initial=2)
        write_trajectory(run_active_learning(ramp_pool, cfg, RandomWalkProposer(6)), tmp_path / "t.jsonl")
        header, steps = read_trajectory(tmp_path / "t.jsonl")
        edited = make_pool([1.0, 5.0, 3.0, 2.0, 4.5])
        with pytest.raises(ConfigError) as info:
            rebuild_trajectory(header, steps, edited)
        assert ramp_pool.digest() in str(info.value) and edited.digest() in str(info.value)

    @pytest.mark.parametrize(
        "new_id, reason",
        [(lambda steps: 5, "candidate_id 5 is outside the 5-row pool"),
         (lambda steps: steps[0].candidate_id, "repeats an earlier id")],
        ids=["outside-the-pool", "repeated"],
    )
    def test_rebuild_names_the_first_step_with_a_bad_id(self, tmp_path, ramp_pool, new_id, reason):
        cfg = RunConfig(ProposerKind.RANDOM_WALK, seed=6, n_initial=2)
        write_trajectory(run_active_learning(ramp_pool, cfg, RandomWalkProposer(6)), tmp_path / "t.jsonl")
        header, steps = read_trajectory(tmp_path / "t.jsonl")
        steps[-1] = replace(steps[-1], candidate_id=new_id(steps))
        with pytest.raises(ConfigError, match=f"^iteration {len(steps) - 1}: .*{reason}$"):
            rebuild_trajectory(header, steps, ramp_pool)

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

    @pytest.mark.parametrize(
        "key, value, error",
        [
            ("candidate_id", 7.7, ConfigError),
            ("candidate_id", True, ConfigError),
            ("iteration", "1", ConfigError),
            ("observed_value", "NaN", ConfigError),
            ("running_best", None, ConfigError),
            ("observed_value", float("nan"), NumericalError),
            ("running_best", float("inf"), NumericalError),
            ("match_score", float("-inf"), NumericalError),
            ("match_score", "0.5", ConfigError),
            ("match_score", True, ConfigError),
            ("proposal_text", 5, ConfigError),
            ("proposal_text", ["x"], ConfigError),
            ("surrogate_diag", "x", ConfigError),
            ("surrogate_diag", [1.0], ConfigError),
        ],
    )
    def test_malformed_stored_step_is_refused(self, tmp_path, ramp_pool, key, value, error):
        """Reading mirrors writing: no truncated id, no NaN or infinity."""
        cfg = RunConfig(ProposerKind.RANDOM_WALK, seed=6, n_initial=2)
        path = tmp_path / "t.jsonl"
        write_trajectory(run_active_learning(ramp_pool, cfg, RandomWalkProposer(6)), path)
        lines = path.read_text().splitlines()
        lines[1] = json.dumps({**json.loads(lines[1]), key: value})
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(error):
            read_trajectory(path)

    @pytest.mark.parametrize("step", [{"iteration": 0}, [0, 1, 2.0, 2.0]], ids=["missing-keys", "list"])
    def test_stored_step_that_is_no_step_is_refused(self, tmp_path, ramp_pool, step):
        cfg = RunConfig(ProposerKind.RANDOM_WALK, seed=6, n_initial=2)
        path = tmp_path / "t.jsonl"
        write_trajectory(run_active_learning(ramp_pool, cfg, RandomWalkProposer(6)), path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join([lines[0], json.dumps(step), *lines[2:]]) + "\n")
        with pytest.raises(ConfigError, match="malformed stored step"):
            read_trajectory(path)

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

    def test_header_records_the_settings_given(self, tmp_path, ramp_pool):
        traj = run_active_learning(ramp_pool, RunConfig(ProposerKind.RANDOM_WALK, seed=6), RandomWalkProposer(6))
        write_trajectory(traj, tmp_path / "bare.jsonl")
        write_trajectory(traj, tmp_path / "rfr.jsonl", None, DEFAULT_SETTINGS.record(ProposerKind.RFR))
        assert read_trajectory(tmp_path / "bare.jsonl")[0]["settings"] is None
        assert read_trajectory(tmp_path / "rfr.jsonl")[0]["settings"]["n_trees"] == 400

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


class TestSettingsRecord:
    MODELS = {ProposerKind.RFR: ForestConfig, ProposerKind.GBT: GBTConfig, ProposerKind.BNN: BNNConfig}

    @pytest.mark.parametrize("kind", list(MODELS), ids=lambda k: k.value)
    def test_model_record_is_every_config_field(self, kind):
        names = {f.name for f in fields(self.MODELS[kind])}
        assert set(DEFAULT_SETTINGS.record(kind)) == names

    def test_records_hold_only_what_their_kind_reads(self):
        changed = ProposerSettings(
            forest=ForestConfig(n_trees=3, max_depth=2),
            gpr=GPRConfig(standardize_targets=True),
            matcher="rerank:http://127.0.0.1:1|m",
            offline_reports=True,
            client="mock:x",
        )
        assert changed.record(ProposerKind.RFR) == {
            "n_trees": 3, "bootstrap": True, "max_depth": 2, "min_samples_split": 2, "min_samples_leaf": 1,
        }
        assert changed.record(ProposerKind.GBT) == DEFAULT_SETTINGS.record(ProposerKind.GBT)
        assert changed.record(ProposerKind.GPR) == {"standardize_targets": True}
        assert changed.record(ProposerKind.LLM) == {
            "client": "mock:x", "matcher": "rerank:http://127.0.0.1:1|m", "offline_reports": True,
        }
        assert changed.record(ProposerKind.RANDOM_WALK) == {}

    def test_make_proposer_defaults_select_the_ids_they_always_did(self):
        # recorded when make_proposer still took one keyword per model config
        pool = synthetic_pool("quadratic2d", 30, seed=2)
        cfg = RunConfig(ProposerKind.RFR, alpha=1.0, seed=3, max_iterations=6)
        proposer = make_proposer(cfg)
        assert proposer.settings == DEFAULT_SETTINGS == ProposerSettings()
        assert run_active_learning(pool, cfg, proposer).selected_ids() == [24, 0, 1, 12, 6, 14]
