"""Prompt construction, proposal parsing, pool matching, and the chat clients."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from albench.clients import (
    ConstantChatClient,
    FixtureRecord,
    ScriptedChatClient,
    load_fixtures,
    message_digest,
)
from albench import llm
from albench.engine import run_active_learning, select_initial
from albench.errors import (
    ProposalParseError,
    ProposerError,
    ReplayExhaustedError,
    ReplayMismatchError,
    TransportError,
)
from albench.llm import (
    LLMProposer,
    match_to_pool,
    offline_report,
    parse_proposal,
    propose_next,
    render_parameter_prompt,
    render_report_prompt,
)
from albench.types import Goal, PromptFormat, ProposerKind, RunConfig

from conftest import make_pool, save_fixtures


def two_feature_pool():
    return make_pool(
        targets=[3.0, 10.0, 7.0],
        features=[(1.0, 2.0), (4.0, 6.0), (0.0, -1.0)],
        context="Catalyst screening runs with two tunable knobs.",
    )


class RecordingChatClient:
    """Wraps another client and captures its replies as replay fixtures."""

    def __init__(self, inner):
        self.inner = inner
        self.records: list[FixtureRecord] = []

    def send(self, messages, temperature):
        text = self.inner.send(messages, temperature)
        self.records.append(
            FixtureRecord(response_text=text, request_digest=message_digest(messages, temperature))
        )
        return text

    def dump(self, path) -> None:
        save_fixtures(self.records, path)


class StaticRerankClient:
    """Scores documents by a fixed callable, or fails every call."""

    def __init__(self, scorer, fail: bool = False):
        self.scorer = scorer
        self.fail = fail
        self.calls = 0

    def rerank(self, query, documents, top_n=1):
        self.calls += 1
        if self.fail:
            raise TransportError("static rerank client configured to fail")
        scored = sorted(
            ((i, float(self.scorer(query, doc))) for i, doc in enumerate(documents)),
            key=lambda t: -t[1],
        )
        return scored[:top_n]


class TestParameterPrompt:
    def test_observation_block_contents(self):
        pool = two_feature_pool()
        observed = [(pool.candidates[0], 3.0)]
        text = render_parameter_prompt(pool, observed, pool.goal)
        block = text[text.index("Observed experiments:") : text.index("Propose the")]
        assert block.count("x1=1") == 1
        assert block.count("x2=2") == 1
        assert block.count("3") == 1

    def test_contains_context_objective_and_instruction(self):
        pool = two_feature_pool()
        text = render_parameter_prompt(pool, [(pool.candidates[1], 10.0)], pool.goal)
        assert pool.context in text
        assert "maximize y" in text
        assert "x1, x2" in text

    def test_zero_context_still_renders(self):
        pool = make_pool([1.0, 2.0], features=[(0.0,), (1.0,)])
        text = render_parameter_prompt(pool, [(pool.candidates[0], 1.0)], pool.goal)
        assert text.startswith("The objective is to maximize")

    def test_minimize_objective_wording(self):
        pool = make_pool([1.0, 2.0], goal=Goal.MINIMIZE)
        text = render_parameter_prompt(pool, [(pool.candidates[0], 1.0)], pool.goal)
        assert "minimize y" in text

    def test_byte_identical_rendering(self):
        pool = two_feature_pool()
        observed = [(pool.candidates[0], 3.0), (pool.candidates[2], 7.0)]
        assert render_parameter_prompt(pool, observed, pool.goal) == render_parameter_prompt(
            pool, observed, pool.goal
        )


class TestReportPrompt:
    def test_constant_mock_cached_once_per_candidate(self):
        pool = two_feature_pool()
        client = ConstantChatClient("R")
        cache = {}
        observed = [(pool.candidates[0], 3.0), (pool.candidates[1], 10.0)]
        text = render_report_prompt(pool, observed, pool.goal, client, cache)
        assert text.count("- R Result:") == 2
        assert client.calls == 2
        # re-render: cache prevents any further calls
        render_report_prompt(pool, observed, pool.goal, client, cache)
        assert client.calls == 2

    def test_offline_template(self):
        pool = make_pool([5.0], features=[(1.0,)], name="single")
        report = offline_report(pool.candidates[0], pool)
        assert "x1" in report
        assert "1" in report
        cache = {}
        text = render_report_prompt(pool, [(pool.candidates[0], 5.0)], pool.goal, None, cache)
        assert report in text

    def test_precomputed_report_text_wins(self):
        from albench.types import Candidate, Dataset

        cand = Candidate(id=0, features=(1.0,), target=2.0, report_text="archived report")
        pool = Dataset(
            name="d", candidates=[cand], feature_names=["x1"], target_name="y", goal=Goal.MAXIMIZE
        )
        cache = {}
        text = render_report_prompt(pool, [(cand, 2.0)], pool.goal, ConstantChatClient("X"), cache)
        assert "archived report" in text


class TestProposeNext:
    def test_constant_mock(self):
        assert propose_next("p", ConstantChatClient("answer")) == "answer"

    def test_replayer_exhaustion_is_loud(self):
        client = ScriptedChatClient(["one", "two"])
        assert propose_next("p", client) == "one"
        assert propose_next("p", client) == "two"
        # exhaustion is a fixture mismatch, never silently retried
        with pytest.raises(ReplayExhaustedError):
            propose_next("p", client)

    def test_transport_retries_then_fails(self):
        class Flaky:
            def __init__(self, fail_times):
                self.fail_times = fail_times
                self.calls = 0

            def send(self, messages, temperature):
                self.calls += 1
                if self.calls <= self.fail_times:
                    raise TransportError("down")
                return "ok"

        sleeps = []
        client = Flaky(fail_times=2)
        assert propose_next("p", client, backoff=1.0, sleep=sleeps.append) == "ok"
        assert sleeps == [1.0, 2.0]  # exponential backoff
        client = Flaky(fail_times=3)
        with pytest.raises(ProposerError):
            propose_next("p", client, sleep=lambda s: None)
        assert client.calls == 3

    def test_temperature_zero(self):
        seen = {}

        class Spy:
            def send(self, messages, temperature):
                seen["temperature"] = temperature
                return "x"

        propose_next("p", Spy())
        assert seen["temperature"] == 0.0


class TestScriptedClient:
    def test_digest_verification(self):
        messages = [{"role": "user", "text": "hello"}]
        digest = message_digest(messages, 0.0)
        client = ScriptedChatClient([FixtureRecord(response_text="hi", request_digest=digest)])
        assert client.send(messages, 0.0) == "hi"
        client = ScriptedChatClient([FixtureRecord(response_text="hi", request_digest=digest)])
        with pytest.raises(ReplayMismatchError):
            client.send([{"role": "user", "text": "other"}], 0.0)

    def test_fixture_round_trip(self, tmp_path):
        records = [
            FixtureRecord(response_text="a", request_digest=None),
            FixtureRecord(response_text="b", request_digest="00ff"),
        ]
        path = tmp_path / "fx.jsonl"
        save_fixtures(records, path)
        loaded = load_fixtures(path)
        assert [(r.response_text, r.request_digest) for r in loaded] == [
            ("a", None),
            ("b", "00ff"),
        ]

    def test_recording_wrapper(self, tmp_path):
        inner = ConstantChatClient("res")
        rec = RecordingChatClient(inner)
        rec.send([{"role": "user", "text": "q"}], 0.0)
        path = tmp_path / "rec.jsonl"
        rec.dump(path)
        replay = ScriptedChatClient(load_fixtures(path))
        assert replay.send([{"role": "user", "text": "q"}], 0.0) == "res"


class TestParseProposal:
    def test_simple_block(self):
        pool = two_feature_pool()
        text = "Next try this:\n```\nx1: 1.5\nx2: 2.0\n```\n"
        assert parse_proposal(text, pool) == {"x1": 1.5, "x2": 2.0}

    def test_case_insensitive_and_equals_separator(self):
        pool = two_feature_pool()
        text = "```\nX1 = -3\nX2: 0.25\n```"
        assert parse_proposal(text, pool) == {"x1": -3.0, "x2": 0.25}

    def test_last_fenced_block_wins(self):
        pool = two_feature_pool()
        text = "```\nx1: 1\nx2: 1\n```\nwait, better:\n```\nx1: 9\nx2: 9\n```"
        assert parse_proposal(text, pool) == {"x1": 9.0, "x2": 9.0}

    def test_mean_fill_of_missing_feature(self, caplog):
        pool = two_feature_pool()
        observed = [(pool.candidates[0], 3.0), (pool.candidates[1], 10.0)]
        # x2 observed values are 2 and 6 -> fill 4
        with caplog.at_level("INFO", logger="albench.llm"):
            parsed = parse_proposal("```\nx1: 7\n```", pool, observed)
        assert parsed == {"x1": 7.0, "x2": 4.0}
        assert any("filled" in r.message for r in caplog.records)

    def test_prose_only_is_parse_error(self):
        pool = two_feature_pool()
        with pytest.raises(ProposalParseError):
            parse_proposal("I would suggest trying a higher value of x1.", pool)

    def test_block_without_pairs_is_parse_error(self):
        pool = two_feature_pool()
        with pytest.raises(ProposalParseError):
            parse_proposal("```\nnothing useful\n```", pool)

    @pytest.mark.parametrize("raw", ["nan", "NaN", "inf", "-inf", "Infinity", "1e999"])
    def test_non_finite_value_is_parse_error(self, raw):
        pool = two_feature_pool()
        with pytest.raises(ProposalParseError, match="non-finite"):
            parse_proposal(f"```\nx1: {raw}\nx2: 2\n```", pool)

    def test_unknown_keys_ignored(self):
        pool = two_feature_pool()
        text = "```\nx1: 1\nx2: 2\ntemperature: 300\n```"
        assert parse_proposal(text, pool) == {"x1": 1.0, "x2": 2.0}


# replies shaped like the model's: fenced key/value blocks with real,
# mis-cased and unknown keys, both separators, and values that parse,
# overflow, are non-finite or are not numbers at all
_keys = st.sampled_from(["x1", "X1", " x2 ", "x2", "x3", "", "- x1", "* X2", "x1 x2"])
_values = st.one_of(
    st.floats().map(repr),
    st.integers().map(str),
    st.sampled_from(["nan", "-inf", "Infinity", "1e309", "-1e-320", "1_0", "abc", ""]),
    st.text(max_size=6),
)
_lines = st.one_of(
    st.builds(lambda k, sep, v: f"{k}{sep}{v}", _keys, st.sampled_from([":", "=", " ", ": ", "=="]), _values),
    st.text(max_size=12),
)
_replies = st.builds(
    lambda before, info, body, after: f"{before}```{info}\n{body}\n```{after}",
    st.text(max_size=10),
    st.sampled_from(["", "yaml", "text x1: 9"]),
    st.lists(_lines, max_size=5).map("\n".join),
    st.text(max_size=10),
)
_texts = st.one_of(st.text(), _replies, st.lists(_replies, min_size=2, max_size=3).map("\n".join))


class TestParseProposalFuzz:
    @settings(max_examples=400, deadline=None)
    @given(text=_texts, with_observed=st.booleans())
    def test_any_text_parses_to_every_feature_finite_or_raises(self, text, with_observed):
        pool = two_feature_pool()
        observed = [(pool.candidates[0], 3.0), (pool.candidates[2], 7.0)] if with_observed else []
        try:
            parsed = parse_proposal(text, pool, observed)
        except ProposalParseError:
            return
        assert sorted(parsed) == sorted(pool.feature_names)
        assert all(isinstance(v, float) and math.isfinite(v) for v in parsed.values())


class TestMatchToPool:
    def test_exact_feature_match_scores_one(self):
        pool = two_feature_pool()
        cid, score = match_to_pool({"x1": 4.0, "x2": 6.0}, "raw", pool, [0, 1, 2])
        assert cid == 1
        assert score == 1.0

    def test_observed_exact_match_excluded(self):
        pool = two_feature_pool()
        cid, score = match_to_pool({"x1": 4.0, "x2": 6.0}, "raw", pool, [0, 2])
        assert cid in (0, 2)
        assert score < 1.0

    def test_matches_brute_force_nearest_oracle(self, rng):
        features = [tuple(map(float, row)) for row in rng.normal(size=(5, 3))]
        pool = make_pool(targets=[1, 2, 3, 4, 5], features=features)
        query = {"x1": 0.3, "x2": -0.4, "x3": 1.0}
        unlabeled = [0, 2, 3, 4]
        cid, _ = match_to_pool(query, "raw", pool, unlabeled)
        # oracle: exhaustive standardized distances
        mat = pool.feature_matrix
        mu, sd = mat.mean(0), mat.std(0)
        sd[sd == 0] = 1.0
        q = (np.array([query["x1"], query["x2"], query["x3"]]) - mu) / sd
        dists = {i: float(np.linalg.norm((mat[i] - mu) / sd - q)) for i in unlabeled}
        assert cid == min(unlabeled, key=lambda i: (dists[i], i))

    def test_tie_breaks_to_lowest_id(self):
        pool = make_pool(targets=[1, 2, 3], features=[(0.0,), (2.0,), (2.0,)])
        cid, _ = match_to_pool({"x1": 2.0}, "raw", pool, [0, 1, 2])
        assert cid == 1

    def test_rerank_backend(self):
        pool = two_feature_pool()
        client = StaticRerankClient(lambda q, d: 0.9 if "x1=0" in d else 0.2)
        cid, score = match_to_pool(
            {"x1": 0.0, "x2": -1.0},
            "prefer the third",
            pool,
            [0, 1, 2],
            rerank_client=client,
        )
        assert cid == 2
        assert score == 0.9
        assert client.calls == 1

    def test_rerank_failure_falls_back_to_nearest(self, caplog):
        pool = two_feature_pool()
        client = StaticRerankClient(lambda q, d: 1.0, fail=True)
        with caplog.at_level("WARNING", logger="albench.llm"):
            cid, score = match_to_pool(
                {"x1": 4.0, "x2": 6.0},
                "raw",
                pool,
                [0, 1, 2],
                rerank_client=client,
            )
        assert cid == 1
        assert any("falling back" in r.message for r in caplog.records)


def reference_offline_nearest(parsed, dataset, unlabeled_ids):
    """The offline matcher as it was before the full-pool z-scores were
    cached: the pool statistics, the query and every unlabeled row are
    standardized again on each call. `unlabeled_ids` must be sorted."""
    pool_matrix = dataset.feature_matrix
    query = np.array([parsed[name] for name in dataset.feature_names])
    rows = np.vstack([query, pool_matrix[list(unlabeled_ids)]])
    mean = pool_matrix.mean(axis=0)
    std = pool_matrix.std(axis=0)
    degenerate = std == 0.0
    z = (rows - mean) / np.where(degenerate, 1.0, std)
    z[:, degenerate] = 0.0
    dists = np.linalg.norm(z[1:] - z[0], axis=1)
    best = int(np.argmin(dists))
    return int(unlabeled_ids[best]), float(1.0 / (1.0 + dists[best]))


@st.composite
def matcher_problems(draw):
    """A pool, a parsed query and an unordered unlabeled subset. Few grid
    levels give duplicate rows and tied distances; a constant column takes
    the degenerate-std path."""
    n = draw(st.integers(2, 40))
    d = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    levels = draw(st.sampled_from([2, 3, 1000]))
    features = rng.integers(0, levels, size=(n, d)) * draw(st.sampled_from([0.5, 1.0, 3.7])) - 1.0
    if draw(st.booleans()):
        features[:, draw(st.integers(0, d - 1))] = draw(st.sampled_from([0.0, -2.5]))
    if draw(st.booleans()):
        features[draw(st.integers(0, n - 1))] = features[0]
    if draw(st.booleans()):
        query = features[rng.integers(n)]
    else:
        query = rng.integers(-1, levels + 1, size=d) * 0.5
    share = draw(st.sampled_from([0.1, 0.5, 1.0]))
    unlabeled = np.flatnonzero(rng.random(n) < share)
    if unlabeled.size == 0:
        unlabeled = np.array([n - 1])
    pool = make_pool(targets=list(range(n)), features=[tuple(row) for row in features])
    parsed = {f"x{j + 1}": float(v) for j, v in enumerate(query)}
    return pool, parsed, rng.permutation(unlabeled).tolist()


class TestMatcherMatchesReference:
    @settings(max_examples=150, deadline=None)
    @given(matcher_problems())
    def test_id_and_score_bit_identical(self, problem):
        pool, parsed, unlabeled = problem
        want_id, want_score = reference_offline_nearest(parsed, pool, sorted(unlabeled))
        got_id, got_score = match_to_pool(parsed, "raw", pool, unlabeled)
        assert got_id == want_id
        assert got_score.hex() == want_score.hex()


class TestLLMProposer:
    def _pool(self):
        return make_pool(
            targets=[1.0, 2.0, 9.0, 4.0],
            features=[(0.0, 0.0), (1.0, 0.0), (2.0, 2.0), (0.0, 1.0)],
        )

    def test_proposal_flow_records_text_and_score(self):
        pool = self._pool()
        client = ConstantChatClient("```\nx1: 2\nx2: 2\n```")
        proposer = LLMProposer(client, seed=0)
        suggestion = proposer.propose(pool, [0], [1.0])
        assert suggestion.candidate_id == 2
        assert suggestion.match_score == 1.0
        assert "x1: 2" in suggestion.proposal_text

    def test_reprompt_once_then_random_fallback(self, caplog):
        pool = self._pool()
        client = ScriptedChatClient(["no fences here", "still prose"])
        proposer = LLMProposer(client, seed=5)
        with caplog.at_level("WARNING", logger="albench.llm"):
            suggestion = proposer.propose(pool, [0], [1.0])
        assert client.position == 2  # initial + one stricter re-prompt
        assert suggestion.candidate_id in (1, 2, 3)
        assert suggestion.surrogate_diag == {"parse_fallback": 1.0}
        assert suggestion.match_score is None

    def test_reprompt_recovers_on_second_answer(self):
        pool = self._pool()
        client = ScriptedChatClient(["prose", "```\nx1: 1\nx2: 0\n```"])
        proposer = LLMProposer(client, seed=5)
        suggestion = proposer.propose(pool, [0], [1.0])
        assert suggestion.candidate_id == 1
        assert suggestion.match_score == 1.0

    @pytest.mark.parametrize("raw", ["nan", "inf", "-inf"])
    def test_non_finite_reply_reprompts_instead_of_matching(self, raw):
        pool = self._pool()
        client = ScriptedChatClient([f"```\nx1: {raw}\nx2: 0\n```", "```\nx1: 2\nx2: 2\n```"])
        suggestion = LLMProposer(client, seed=5).propose(pool, [0], [1.0])
        assert client.position == 2
        assert suggestion.candidate_id == 2
        assert suggestion.match_score == 1.0

    def test_never_returns_observed_id(self):
        pool = self._pool()
        # proposal sits exactly on an observed candidate; matcher must skip it
        client = ConstantChatClient("```\nx1: 0\nx2: 0\n```")
        proposer = LLMProposer(client, seed=0)
        suggestion = proposer.propose(pool, [0], [1.0])
        assert suggestion.candidate_id != 0

    def test_end_to_end_replay_run_deterministic(self):
        pool = self._pool()
        fixtures = [
            "```\nx1: 1\nx2: 0\n```",
            "```\nx1: 2\nx2: 2\n```",
        ]
        outs = []
        for _ in range(2):
            cfg = RunConfig(ProposerKind.LLM, seed=1, n_initial=1)
            proposer = LLMProposer(ScriptedChatClient(list(fixtures)), seed=1)
            traj = run_active_learning(pool, cfg, proposer)
            from albench.engine import trajectory_to_jsonl

            outs.append(trajectory_to_jsonl(traj))
        assert outs[0] == outs[1]

    def test_report_format_uses_cache_and_replay(self):
        pool = self._pool()
        # report format: one report call per observed candidate, then proposals
        init = select_initial(pool, 2, 1)
        fixtures = ["report text"] * 1 + ["```\nx1: 2\nx2: 2\n```"]
        cfg = RunConfig(ProposerKind.LLM, seed=2, n_initial=1, prompt_format=PromptFormat.REPORT)
        proposer = LLMProposer(
            ScriptedChatClient(fixtures), seed=2, prompt_format=PromptFormat.REPORT
        )
        traj = run_active_learning(pool, cfg, proposer)
        assert traj.reached_optimum_at is not None

    def test_golden_replay_reproduces_prompt_bytes(self, tmp_path):
        pool = self._pool()
        # record a session against a stand-in "live" client
        class Live:
            def send(self, messages, temperature):
                return "```\nx1: 2\nx2: 2\n```"

        recorder = RecordingChatClient(Live())
        cfg = RunConfig(ProposerKind.LLM, seed=3, n_initial=1)
        run_active_learning(pool, cfg, LLMProposer(recorder, seed=3))
        fixture_path = tmp_path / "session.jsonl"
        recorder.dump(fixture_path)
        # replay: digests verify the rebuilt prompts byte-for-byte
        replayer = ScriptedChatClient(load_fixtures(fixture_path))
        traj = run_active_learning(pool, cfg, LLMProposer(replayer, seed=3))
        assert traj.reached_optimum_at is not None


class TestPromptLineCache:
    """Each observation line is rendered once per run, with the same bytes."""

    def test_cached_prompts_equal_uncached_renders_through_a_run(self, monkeypatch, rng):
        features = [tuple(row) for row in np.round(rng.normal(size=(30, 2)), 3)]
        # the optimum is the candidate farthest from the constant proposal,
        # which the matcher reaches last
        targets = [float(np.hypot(a - 0.1, b + 0.2)) for a, b in features]
        pool = make_pool(targets=targets, features=features)
        original = llm.render_parameter_prompt
        rendered = []

        def render_and_compare(dataset, observed, goal, cache=None):
            assert cache is not None
            prompt = original(dataset, observed, goal, cache)
            assert prompt == original(dataset, observed, goal)
            rendered.append(len(observed))
            return prompt

        monkeypatch.setattr(llm, "render_parameter_prompt", render_and_compare)
        cfg = RunConfig(ProposerKind.LLM, seed=4, n_initial=2, max_iterations=20)
        client = ConstantChatClient("```\nx1: 0.1\nx2: -0.2\n```")
        traj = run_active_learning(pool, cfg, LLMProposer(client, seed=4))
        assert len(traj.steps) == 20
        assert rendered == list(range(2, 20))

    @pytest.mark.parametrize("prompt_format", list(PromptFormat))
    def test_a_proposer_reused_on_another_pool_renders_that_pool(self, prompt_format):
        class Capture:
            def __init__(self):
                self.prompts = []

            def send(self, messages, temperature):
                self.prompts.append(messages[0]["text"])
                return "```\nx1: 1\nx2: 1\n```"

        def fresh_render(pool):
            observed = [(pool.candidates[0], 3.0)]
            if prompt_format is PromptFormat.REPORT:
                return render_report_prompt(pool, observed, pool.goal, None, {})
            return render_parameter_prompt(pool, observed, pool.goal)

        first = two_feature_pool()
        second = make_pool(targets=[3.0, 1.0, 2.0], features=[(9.0, 8.0), (7.0, 6.0), (5.0, 4.0)])
        client = Capture()
        proposer = LLMProposer(client, seed=0, prompt_format=prompt_format, offline_reports=True)
        proposer.propose(first, [0], [3.0])
        proposer.propose(second, [0], [3.0])
        assert client.prompts == [fresh_render(first), fresh_render(second)]
