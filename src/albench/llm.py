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
from typing import Optional, Sequence

import numpy as np

from .acquisition import random_walk_select
from .clients import ChatClient, RerankClient
from .engine import STREAM_LLM, Suggestion, pool_zscores, substream, unlabeled_pool_ids
from .engine import standardize_features  # noqa: F401 -- bench/spans.py traces calls under this name
from .errors import ProposalParseError, ProposerError, TransportError
from .types import Dataset, Goal, PromptFormat, ProposerKind

logger = logging.getLogger(__name__)

FENCE_RE = re.compile(r"```[^\n]*\n(.*?)```", re.DOTALL)
MAX_ATTEMPTS = 3  # chat calls for one prompt before ProposerError


def _fmt(value: float) -> str:
    return f"{value:g}"


def format_candidate_parameters(candidate_id: int, dataset: Dataset) -> str:
    """Raw parameter string, e.g. 'a=1, b=2'; also the candidate's rerank document."""
    row = dataset.feature_matrix[candidate_id].tolist()
    return ", ".join(f"{name}={_fmt(v)}" for name, v in zip(dataset.feature_names, row))


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


def _prompt(dataset: Dataset, observation_lines) -> str:
    """The prompt body both formats share: context, objective, one line per
    observation, then the instruction."""
    parts = [dataset.context] if dataset.context else []
    parts.append(_objective_sentence(dataset))
    parts.append("\n".join(["Observed experiments:", *observation_lines]))
    parts.append(_instruction_block(dataset))
    return "\n\n".join(parts)


def render_parameter_prompt(
    dataset: Dataset,
    observed: Sequence[tuple[int, float]],
    cache: Optional[dict[int, str]] = None,
) -> str:
    """Concise feature=value prompt over (candidate id, observed value)
    pairs; byte-identical for identical inputs.

    `cache` maps a candidate id to its rendered observation line, so a run
    that passes one dict to every step formats each line once. Its lines
    hold the observed values, so share it only between prompts for the
    same pool (in a run, a candidate's observed value never changes).
    """
    return _prompt(dataset, _cached_lines(
        observed, {} if cache is None else cache,
        lambda cid, value: f"- {format_candidate_parameters(cid, dataset)} -> {dataset.target_name}={_fmt(value)}",
    ))


def _cached_lines(observed, cache: dict[int, str], render) -> list[str]:
    """One line per (candidate id, value) pair: `cache`'s, or else
    `render(cid, value)`, which is then cached."""
    lines = []
    for cid, value in observed:
        line = cache.get(cid)
        if line is None:
            line = cache[cid] = render(cid, value)
        lines.append(line)
    return lines


def offline_report(candidate_id: int, dataset: Dataset) -> str:
    """Deterministic sentence template standing in for an LLM-written report."""
    row = dataset.feature_matrix[candidate_id].tolist()
    clauses = ", ".join(f"{name} set to {_fmt(v)}" for name, v in zip(dataset.feature_names, row))
    return f"An experiment was prepared with {clauses}."


REPORT_WRITER_INSTRUCTION = (
    "Rewrite the following experimental parameters as a short narrative report of the "
    "procedure, one paragraph, without numbers invented beyond those given.\n\n{params}\n\n"
    "Reply with the report text only."
)


def generate_report(
    candidate_id: int, dataset: Dataset, client: Optional[ChatClient], *, backoff: float = 1.0, sleep=time.sleep
) -> str:
    """Report text for one candidate: the offline template without a client,
    else one `propose_next` call with this `backoff` and `sleep`."""
    if client is None:
        return offline_report(candidate_id, dataset)
    prompt = REPORT_WRITER_INSTRUCTION.format(params=format_candidate_parameters(candidate_id, dataset))
    return propose_next(prompt, client, backoff=backoff, sleep=sleep)


def render_report_prompt(
    dataset: Dataset,
    observed: Sequence[tuple[int, float]],
    client: Optional[ChatClient],
    cache: Optional[dict[int, str]] = None,
    *,
    backoff: float = 1.0,
    sleep=time.sleep,
) -> str:
    """Narrative prompt over (candidate id, observed value) pairs: each
    observation expanded into a short report.

    With client=None the offline template is used and no calls are made;
    a chat call retries with `backoff` and `sleep`, as `propose_next` does.
    `cache` holds the rendered observation lines, shared as
    `render_parameter_prompt`'s is; a report is generated only for a line
    it lacks, so a run that passes one dict to every step asks for each
    candidate's report once.
    """
    return _prompt(dataset, _cached_lines(
        observed, {} if cache is None else cache,
        lambda cid, value: f"- {generate_report(cid, dataset, client, backoff=backoff, sleep=sleep)} Result: "
        f"{dataset.target_name}={_fmt(value)}.",
    ))


def propose_next(
    prompt: str,
    client: ChatClient,
    *,
    backoff: float = 1.0,
    sleep=time.sleep,
) -> str:
    """One chat call at temperature 0, with retries on transport failure."""
    if not prompt:
        raise ProposerError("empty prompt")
    messages = [{"role": "user", "text": prompt}]
    last_error = None
    for attempt in range(MAX_ATTEMPTS):
        try:
            return client.send(messages, temperature=0.0)
        except TransportError as exc:
            last_error = exc
            if attempt < MAX_ATTEMPTS - 1:
                sleep(backoff * 2**attempt)
    raise ProposerError(f"chat client failed after {MAX_ATTEMPTS} attempts: {last_error}")


def parse_proposal(
    text: str, dataset: Dataset, observed: Sequence[tuple[int, float]] = ()
) -> dict[str, float]:
    """Extract the last fenced key:value block as a feature map.

    Keys match feature names case-insensitively; features the reply omits
    are filled with the mean of that feature over the observed (candidate
    id, value) pairs (and the fill is logged). No block, a block with zero
    parsable pairs, or a non-finite value (nan, inf) raises
    ProposalParseError.
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
            ids = [cid for cid, _ in observed]
            for name in missing:
                fill = float(np.mean(dataset.feature_matrix[ids, dataset.feature_names.index(name)]))
                parsed[name] = fill
                logger.info("proposal missing feature %r; filled with observed mean %g", name, fill)
        else:
            raise ProposalParseError(f"proposal missing features {missing} and nothing observed to fill from")
    return parsed


def _offline_nearest(
    parsed: dict[str, float], dataset: Dataset, unlabeled_ids: np.ndarray
) -> tuple[int, float]:
    """Nearest unlabeled candidate in full-pool z-score space; `unlabeled_ids`
    is an ascending int array, so ties pick the lowest id.

    One pass over the pool's z-score columns gives every squared distance.
    It adds a row's d terms in another order than numpy's row sum (which
    goes pairwise from 8 terms on), so the two may differ in the last
    bits, though each is within a relative d*eps/2 of the true sum. The
    exact formula then runs only on the rows within 4*d*eps of the fast
    minimum, a band that holds every row whose exact distance ties the
    minimum, so the id and the score keep that formula's bits for any d.
    """
    scale, z_pool, z_columns = pool_zscores(dataset)
    query = scale.apply([parsed[name] for name in dataset.feature_names])[0]
    diff = z_columns - query[:, None]
    np.multiply(diff, diff, out=diff)
    sq = diff.sum(axis=0)[unlabeled_ids]
    band = unlabeled_ids[sq <= sq.min() * (1 + 4 * len(query) * np.finfo(np.float64).eps)]
    dists = np.linalg.norm(z_pool[band] - query, axis=1)
    best = int(np.argmin(dists))
    return int(band[best]), float(1.0 / (1.0 + dists[best]))


def match_to_pool(
    parsed: dict[str, float],
    raw_text: str,
    dataset: Dataset,
    unlabeled_ids: Sequence[int],
    rerank_client: Optional[RerankClient] = None,
    diag: Optional[dict[str, float]] = None,
) -> tuple[int, float]:
    """Resolve a proposal to one unlabeled candidate id plus a score in [0,1].

    With a rerank client the raw text is ranked against the candidates'
    text renderings; without one, the offline nearest-neighbor matcher
    picks. A rerank transport failure, or a reply with no result, an index
    out of range or a non-finite score, falls back to the offline matcher with
    a logged warning and `diag["rerank_fallback"] = 1.0` (when a `diag`
    dict is given), so a run never dies on the matcher.
    """
    unlabeled_ids = np.asarray(unlabeled_ids, dtype=np.intp)
    if unlabeled_ids.size == 0:
        raise ProposerError("no unlabeled candidates left to match against")
    if (unlabeled_ids[1:] < unlabeled_ids[:-1]).any():  # `unlabeled_pool_ids` are ascending already
        unlabeled_ids = np.sort(unlabeled_ids)
    if rerank_client is not None:
        documents = [format_candidate_parameters(i, dataset) for i in unlabeled_ids.tolist()]
        try:
            ranked = rerank_client.rerank(raw_text, documents, top_n=1)
            index, score = ranked[0] if ranked else (-1, 0.0)
            if not (0 <= index < len(documents) and np.isfinite(score)):
                raise TransportError(f"unusable rerank reply {ranked[:1]!r} for {len(documents)} documents")
            return int(unlabeled_ids[index]), float(min(max(score, 0.0), 1.0))
        except TransportError as exc:
            logger.warning("rerank failed (%s); falling back to offline nearest neighbor", exc)
            if diag is not None:
                diag["rerank_fallback"] = 1.0
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
        rerank_client: Optional[RerankClient] = None,
        offline_reports: bool = False,
        backoff: float = 1.0,
        sleep=time.sleep,
    ):
        self.client = client
        self.prompt_format = prompt_format
        self.rerank_client = rerank_client
        # the chat client writes the report prompt's reports, unless the
        # offline template stands in for them
        self.offline_reports = offline_reports
        # prompt lines by candidate id, for _cache_pool
        self.line_cache: dict[int, str] = {}
        self._cache_pool: Optional[Dataset] = None
        self.backoff = backoff
        self.sleep = sleep
        self._fallback_rng = substream(seed, STREAM_LLM)

    def _render(self, dataset: Dataset, observed) -> str:
        if dataset is not self._cache_pool:
            # an id names another candidate in another pool
            self.line_cache = {}
            self._cache_pool = dataset
        if self.prompt_format is PromptFormat.REPORT:
            report_client = None if self.offline_reports else self.client
            return render_report_prompt(
                dataset, observed, report_client, self.line_cache, backoff=self.backoff, sleep=self.sleep
            )
        return render_parameter_prompt(dataset, observed, self.line_cache)

    def propose(self, dataset: Dataset, observed_ids, observed_values) -> Suggestion:
        observed = list(zip(observed_ids, observed_values))
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
        diag: dict[str, float] = {}
        cid, score = match_to_pool(parsed, raw, dataset, unlabeled, self.rerank_client, diag)
        return Suggestion(candidate_id=cid, proposal_text=raw, match_score=score, surrogate_diag=diag or None)
