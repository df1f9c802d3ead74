"""LLM-driven proposer: prompt construction, parsing, and pool matching.

The model never sees candidate ids. It reads the dataset context, the
objective, and the observations so far (as few-shot examples), then
answers with a fenced key:value block naming the next experiment. That
free-text proposal is matched back to an unlabeled pool candidate either
by a rerank API (proposal text vs. candidate text renderings) or by
nearest-neighbor distance in standardized feature space.
"""

from __future__ import annotations

import logging
import re
import time
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from .acquisition import random_walk_select
from .clients import ChatClient, RerankClient
from .engine import STREAM_LLM, Suggestion, pool_zscores, substream, unlabeled_pool_ids
from .engine import standardize_features  # noqa: F401 -- bench/spans.py traces calls under this name
from .errors import ProposalParseError, ProposerError, TransportError
from .types import Candidate, Dataset, Goal, PromptFormat, ProposerKind

logger = logging.getLogger(__name__)

FENCE_RE = re.compile(r"```[^\n]*\n(.*?)```", re.DOTALL)


def _fmt(value: float) -> str:
    return f"{value:g}"


def format_candidate_parameters(candidate: Candidate, dataset: Dataset) -> str:
    """Raw parameter string, e.g. 'a=1, b=2'."""
    return ", ".join(
        f"{name}={_fmt(v)}" for name, v in zip(dataset.feature_names, candidate.features)
    )


def candidate_document(candidate: Candidate, dataset: Dataset) -> str:
    """Text rendering used as a rerank document."""
    if candidate.report_text:
        return candidate.report_text
    return format_candidate_parameters(candidate, dataset)


def _objective_sentence(dataset: Dataset) -> str:
    verb = "maximize" if dataset.goal is Goal.MAXIMIZE else "minimize"
    return f"The objective is to {verb} {dataset.target_name}."


def _instruction_block(dataset: Dataset, strict: bool = False) -> str:
    names = ", ".join(dataset.feature_names)
    lines = [
        "Propose the single next experiment most likely to improve on the observations above.",
        "Reply with exactly one fenced code block containing one `name: value` line for each of "
        f"these features and nothing else: {names}.",
    ]
    if strict:
        lines.insert(
            0,
            "Your previous reply could not be parsed. Follow the output format exactly this time.",
        )
    return "\n".join(lines)


def render_parameter_prompt(
    dataset: Dataset,
    observed: Sequence[tuple[Candidate, float]],
    goal: Goal,
    cache: Optional[dict[int, str]] = None,
) -> str:
    """Concise feature=value prompt; byte-identical for identical inputs.

    `cache` maps a candidate id to its rendered observation line, so a run
    that passes one dict to every step formats each line once. Its lines
    hold the observed values, so share it only between prompts for the
    same pool (in a run, a candidate's observed value never changes).
    """
    if cache is None:
        cache = {}
    parts = []
    if dataset.context:
        parts.append(dataset.context)
    parts.append(_objective_sentence(dataset))
    obs_lines = ["Observed experiments:"]
    for cand, value in observed:
        line = cache.get(cand.id)
        if line is None:
            line = f"- {format_candidate_parameters(cand, dataset)} -> {dataset.target_name}={_fmt(value)}"
            cache[cand.id] = line
        obs_lines.append(line)
    parts.append("\n".join(obs_lines))
    parts.append(_instruction_block(dataset))
    return "\n\n".join(parts)


def offline_report(candidate: Candidate, dataset: Dataset) -> str:
    """Deterministic sentence template standing in for an LLM-written report."""
    clauses = ", ".join(
        f"{name} set to {_fmt(v)}" for name, v in zip(dataset.feature_names, candidate.features)
    )
    return f"An experiment was prepared with {clauses}."


REPORT_WRITER_INSTRUCTION = (
    "Rewrite the following experimental parameters as a short narrative report of the "
    "procedure, one paragraph, without numbers invented beyond those given.\n\n{params}\n\n"
    "Reply with the report text only."
)


def generate_report(
    candidate: Candidate,
    dataset: Dataset,
    client: Optional[ChatClient],
    cache: dict[int, str],
) -> str:
    """Report text for one candidate, generated at most once per run."""
    if candidate.id in cache:
        return cache[candidate.id]
    if candidate.report_text:
        text = candidate.report_text
    elif client is None:
        text = offline_report(candidate, dataset)
    else:
        prompt = REPORT_WRITER_INSTRUCTION.format(
            params=format_candidate_parameters(candidate, dataset)
        )
        text = propose_next(prompt, client)
    cache[candidate.id] = text
    return text


def render_report_prompt(
    dataset: Dataset,
    observed: Sequence[tuple[Candidate, float]],
    goal: Goal,
    client: Optional[ChatClient],
    cache: dict[int, str],
) -> str:
    """Narrative prompt: each observation expanded into a short report.

    With client=None the offline template is used and no calls are made.
    """
    parts = []
    if dataset.context:
        parts.append(dataset.context)
    parts.append(_objective_sentence(dataset))
    obs_lines = ["Observed experiments:"]
    for cand, value in observed:
        report = generate_report(cand, dataset, client, cache)
        obs_lines.append(f"- {report} Result: {dataset.target_name}={_fmt(value)}.")
    parts.append("\n".join(obs_lines))
    parts.append(_instruction_block(dataset))
    return "\n\n".join(parts)


def propose_next(
    prompt: str,
    client: ChatClient,
    *,
    max_retries: int = 3,
    backoff: float = 1.0,
    sleep=time.sleep,
) -> str:
    """One chat call at temperature 0, with retries on transport failure."""
    if not prompt:
        raise ProposerError("empty prompt")
    messages = [{"role": "user", "text": prompt}]
    last_error = None
    for attempt in range(max_retries):
        try:
            return client.send(messages, temperature=0.0)
        except TransportError as exc:
            last_error = exc
            if attempt < max_retries - 1:
                sleep(backoff * 2**attempt)
    raise ProposerError(f"chat client failed after {max_retries} attempts: {last_error}")


def parse_proposal(
    text: str, dataset: Dataset, observed: Sequence[tuple[Candidate, float]] = ()
) -> dict[str, float]:
    """Extract the last fenced key:value block as a feature map.

    Keys match feature names case-insensitively; features the reply omits
    are filled with the mean of the observed values for that feature (and
    the fill is logged). No block, a block with zero parsable pairs, or a
    non-finite value (nan, inf) raises ProposalParseError.
    """
    blocks = FENCE_RE.findall(text or "")
    if not blocks:
        raise ProposalParseError("no fenced block in proposal")
    canonical = {name.lower(): name for name in dataset.feature_names}
    parsed: dict[str, float] = {}
    for line in blocks[-1].splitlines():
        line = line.strip().lstrip("-*").strip()
        if not line:
            continue
        for sep in (":", "="):
            if sep in line:
                key, _, raw = line.partition(sep)
                name = canonical.get(key.strip().lower())
                if name is None:
                    break
                try:
                    value = float(raw.strip())
                except ValueError:
                    break
                if not np.isfinite(value):
                    raise ProposalParseError(f"non-finite value {raw.strip()!r} for feature {name!r}")
                parsed[name] = value
                break
    if not parsed:
        raise ProposalParseError("fenced block contained no parsable feature pairs")
    missing = [n for n in dataset.feature_names if n not in parsed]
    if missing:
        if observed:
            col = {name: i for i, name in enumerate(dataset.feature_names)}
            for name in missing:
                fill = float(np.mean([cand.features[col[name]] for cand, _ in observed]))
                parsed[name] = fill
                logger.info("proposal missing feature %r; filled with observed mean %g", name, fill)
        else:
            raise ProposalParseError(f"proposal missing features {missing} and nothing observed to fill from")
    return parsed


class MatcherBackend(str, Enum):
    RERANK_API = "rerank_api"
    OFFLINE_NEAREST = "offline_nearest"


def _offline_nearest(
    parsed: dict[str, float], dataset: Dataset, unlabeled_ids: np.ndarray
) -> tuple[int, float]:
    """Nearest unlabeled candidate in full-pool z-score space; `unlabeled_ids`
    is a sorted int array, so ties pick the lowest id."""
    scale, z_pool = pool_zscores(dataset)
    query = scale.apply([parsed[name] for name in dataset.feature_names])[0]
    dists = np.linalg.norm(z_pool[unlabeled_ids] - query, axis=1)
    best = int(np.argmin(dists))
    return int(unlabeled_ids[best]), float(1.0 / (1.0 + dists[best]))


def match_to_pool(
    parsed: dict[str, float],
    raw_text: str,
    dataset: Dataset,
    unlabeled_ids: Sequence[int],
    backend: MatcherBackend = MatcherBackend.OFFLINE_NEAREST,
    rerank_client: Optional[RerankClient] = None,
) -> tuple[int, float]:
    """Resolve a proposal to one unlabeled candidate id plus a score in [0,1].

    Rerank transport failures fall back to the offline nearest-neighbor
    matcher with a logged warning, so a run never dies on the matcher.
    """
    unlabeled_ids = np.sort(np.asarray(unlabeled_ids, dtype=np.intp))
    if unlabeled_ids.size == 0:
        raise ProposerError("no unlabeled candidates left to match against")
    if backend is MatcherBackend.RERANK_API and rerank_client is not None:
        documents = [candidate_document(dataset.by_id(i), dataset) for i in unlabeled_ids.tolist()]
        try:
            ranked = rerank_client.rerank(raw_text, documents, top_n=1)
            index, score = ranked[0]
            return int(unlabeled_ids[index]), float(min(max(score, 0.0), 1.0))
        except TransportError as exc:
            logger.warning("rerank failed (%s); falling back to offline nearest neighbor", exc)
    return _offline_nearest(parsed, dataset, unlabeled_ids)


class LLMProposer:
    """Chat-driven proposer with parse retry and random fallback.

    One parse failure triggers a single stricter re-prompt; a second
    failure selects uniformly at random from the unlabeled pool (logged
    and tagged in the step diagnostics) so the loop always advances.
    """

    kind = ProposerKind.LLM

    def __init__(
        self,
        client: ChatClient,
        seed: int,
        prompt_format: PromptFormat = PromptFormat.PARAMETER,
        matcher: MatcherBackend = MatcherBackend.OFFLINE_NEAREST,
        rerank_client: Optional[RerankClient] = None,
        report_client: Optional[ChatClient] = None,
        backoff: float = 1.0,
        sleep=time.sleep,
    ):
        self.client = client
        self.prompt_format = prompt_format
        self.matcher = matcher
        self.rerank_client = rerank_client
        # report writing defaults to the main client; pass None explicitly
        # via use_offline_reports to avoid any calls.
        self.report_client = report_client if report_client is not None else client
        # reports and parameter-prompt lines by candidate id, for _cache_pool
        self.report_cache: dict[int, str] = {}
        self.line_cache: dict[int, str] = {}
        self._cache_pool: Optional[Dataset] = None
        self.backoff = backoff
        self.sleep = sleep
        self._fallback_rng = substream(seed, STREAM_LLM)

    def use_offline_reports(self) -> "LLMProposer":
        self.report_client = None
        return self

    def _render(self, dataset: Dataset, observed) -> str:
        if dataset is not self._cache_pool:
            # an id names another candidate in another pool
            self.report_cache, self.line_cache = {}, {}
            self._cache_pool = dataset
        if self.prompt_format is PromptFormat.REPORT:
            return render_report_prompt(
                dataset, observed, dataset.goal, self.report_client, self.report_cache
            )
        return render_parameter_prompt(dataset, observed, dataset.goal, self.line_cache)

    def propose(self, dataset: Dataset, observed_ids, observed_values) -> Suggestion:
        observed = [
            (dataset.by_id(i), v) for i, v in zip(observed_ids, observed_values)
        ]
        unlabeled = unlabeled_pool_ids(len(dataset), observed_ids)
        prompt = self._render(dataset, observed)
        raw = propose_next(prompt, self.client, backoff=self.backoff, sleep=self.sleep)
        try:
            parsed = parse_proposal(raw, dataset, observed)
        except ProposalParseError:
            strict_prompt = prompt + "\n\n" + _instruction_block(dataset, strict=True)
            raw = propose_next(strict_prompt, self.client, backoff=self.backoff, sleep=self.sleep)
            try:
                parsed = parse_proposal(raw, dataset, observed)
            except ProposalParseError as exc:
                logger.warning("proposal unparsable twice (%s); selecting at random", exc)
                cid = random_walk_select(unlabeled, self._fallback_rng)
                return Suggestion(
                    candidate_id=cid,
                    proposal_text=raw,
                    match_score=None,
                    surrogate_diag={"parse_fallback": 1.0},
                )
        cid, score = match_to_pool(
            parsed, raw, dataset, unlabeled, backend=self.matcher, rerank_client=self.rerank_client
        )
        return Suggestion(candidate_id=cid, proposal_text=raw, match_score=score)
