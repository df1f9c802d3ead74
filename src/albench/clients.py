"""Chat and rerank clients: live HTTP, scripted replay, constant mock.

Providers are configuration, not code structure: endpoints, model names,
and credentials all arrive via constructor arguments or the environment
(LLM_API_KEY, RERANK_API_KEY). Fixture files for the replayer are JSON
lines of {"request_digest", "response_text"}.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from dataclasses import dataclass
from typing import Optional, Protocol, Sequence

from .errors import ConfigError, ReplayExhaustedError, ReplayMismatchError, TransportError

Message = dict  # {"role": ..., "text": ...}


class ChatClient(Protocol):
    def send(self, messages: Sequence[Message], temperature: float) -> str: ...


def message_digest(messages: Sequence[Message], temperature: float) -> str:
    payload = json.dumps({"messages": list(messages), "temperature": temperature}, sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


class ConstantChatClient:
    """Always answers with the same text; handy for caching contracts."""

    def __init__(self, text: str):
        self.text = text
        self.calls = 0

    def send(self, messages, temperature):
        self.calls += 1
        return self.text


@dataclass
class FixtureRecord:
    response_text: str
    request_digest: Optional[str] = None


def load_fixtures(path) -> list[FixtureRecord]:
    """Read a fixture file; ValueError names the first line (and, for a JSON
    syntax error, the column) that is not a JSON object with a string
    `response_text` and a string or null `request_digest`."""
    records = []
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"line {line_no}, column {exc.colno}: {exc.msg}") from None
            if not (
                isinstance(obj, dict) and isinstance(obj.get("response_text"), str)
                and isinstance(obj.get("request_digest"), (str, type(None)))
            ):
                raise ValueError(
                    f"line {line_no} is not an object with a string 'response_text' "
                    f"and a string or null 'request_digest': {obj!r}"
                )
            records.append(FixtureRecord(obj["response_text"], obj.get("request_digest")))
    return records


class ScriptedChatClient:
    """Replays recorded responses in order; fails loudly on exhaustion.

    When a fixture carries a request digest, the incoming request must
    hash to it; a None digest skips the check (handwritten fixtures).
    """

    def __init__(self, records: Sequence[FixtureRecord | str]):
        self.records = [
            r if isinstance(r, FixtureRecord) else FixtureRecord(response_text=r) for r in records
        ]
        self.position = 0

    def send(self, messages, temperature):
        if self.position >= len(self.records):
            raise ReplayExhaustedError(
                f"scripted client exhausted after {len(self.records)} responses"
            )
        record = self.records[self.position]
        if record.request_digest is not None:
            got = message_digest(messages, temperature)
            if got != record.request_digest:
                raise ReplayMismatchError(
                    f"request {self.position} digest {got[:12]}... does not match "
                    f"recorded {record.request_digest[:12]}..."
                )
        self.position += 1
        return record.response_text


class TokenBucket:
    """Simple requests-per-minute limiter shared across runs."""

    def __init__(self, requests_per_minute: int):
        if requests_per_minute < 1:
            raise ConfigError("requests_per_minute must be >= 1")
        self.capacity = requests_per_minute
        self.tokens = float(requests_per_minute)
        self.refill_per_sec = requests_per_minute / 60.0
        self.updated = time.monotonic()
        self._lock = threading.Lock()

    def acquire(self) -> None:
        while True:
            with self._lock:
                now = time.monotonic()
                self.tokens = min(self.capacity, self.tokens + (now - self.updated) * self.refill_per_sec)
                self.updated = now
                if self.tokens >= 1.0:
                    self.tokens -= 1.0
                    return
                wait = (1.0 - self.tokens) / self.refill_per_sec
            time.sleep(wait)


def _post_json(what: str, endpoint: str, body: dict, auth: dict, timeout: float, read):
    """POST `body` to `endpoint` as JSON and return `read(the reply's JSON)`.

    TransportError on a network failure, a status other than 200, a body
    that is not JSON, or one that `read` fails on (KeyError, IndexError,
    TypeError or ValueError); `what` names the endpoint in its message.
    """
    import requests

    try:
        resp = requests.post(endpoint, json=body, headers={"Content-Type": "application/json", **auth}, timeout=timeout)
    except requests.RequestException as exc:
        raise TransportError(f"{what} request failed: {exc}") from exc
    if resp.status_code != 200:
        raise TransportError(f"{what} endpoint returned {resp.status_code}: {resp.text[:200]}")
    try:
        return read(resp.json())
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise TransportError(f"unrecognized {what} response: {exc!r}") from exc


def _chat_text(payload) -> str:
    """The reply text of an OpenAI- or Anthropic-style chat response body."""
    text = payload["choices"][0]["message"]["content"] if "choices" in payload else payload["content"][0]["text"]
    if not isinstance(text, str):
        raise TypeError(f"the reply text is a {type(text).__name__}")
    return text


class LiveChatClient:
    """JSON-over-HTTP chat completion client.

    Accepts either OpenAI-style ({choices: [{message: {content}}]}) or
    Anthropic-style ({content: [{text}]}) response bodies. Not exercised
    by the test suite; opt-in for real experiments.
    """

    def __init__(
        self,
        endpoint: str,
        model: str,
        api_key: Optional[str] = None,
        timeout: float = 120.0,
        rate_limiter: Optional[TokenBucket] = None,
    ):
        self.endpoint = endpoint
        self.model = model
        self.api_key = api_key or os.environ.get("LLM_API_KEY", "")
        self.timeout = timeout
        self.rate_limiter = rate_limiter

    def send(self, messages, temperature):
        if self.rate_limiter is not None:
            self.rate_limiter.acquire()
        body = {
            "model": self.model,
            "temperature": temperature,
            "messages": [{"role": m["role"], "content": m["text"]} for m in messages],
        }
        auth = {"Authorization": f"Bearer {self.api_key}", "x-api-key": self.api_key} if self.api_key else {}
        return _post_json("chat", self.endpoint, body, auth, self.timeout, _chat_text)


class RerankClient(Protocol):
    def rerank(self, query: str, documents: Sequence[str], top_n: int) -> list[tuple[int, float]]: ...


class LiveRerankClient:
    """JSON-over-HTTP rerank client returning (document index, score) pairs."""

    def __init__(
        self,
        endpoint: str,
        model: str = "",
        api_key: Optional[str] = None,
        timeout: float = 60.0,
    ):
        self.endpoint = endpoint
        self.model = model
        self.api_key = api_key or os.environ.get("RERANK_API_KEY", "")
        self.timeout = timeout

    def rerank(self, query, documents, top_n=1):
        body = {"query": query, "documents": list(documents), "top_n": top_n}
        if self.model:
            body["model"] = self.model
        auth = {"Authorization": f"Bearer {self.api_key}"} if self.api_key else {}
        return _post_json("rerank", self.endpoint, body, auth, self.timeout, lambda payload: [
            (int(r["index"]), float(r["relevance_score"])) for r in payload["results"]
        ])
