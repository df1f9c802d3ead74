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
        import requests

        if self.rate_limiter is not None:
            self.rate_limiter.acquire()
        body = {
            "model": self.model,
            "temperature": temperature,
            "messages": [{"role": m["role"], "content": m["text"]} for m in messages],
        }
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
            headers["x-api-key"] = self.api_key
        try:
            resp = requests.post(self.endpoint, json=body, headers=headers, timeout=self.timeout)
        except requests.RequestException as exc:
            raise TransportError(f"chat request failed: {exc}") from exc
        if resp.status_code != 200:
            raise TransportError(f"chat endpoint returned {resp.status_code}: {resp.text[:200]}")
        payload = resp.json()
        try:
            if "choices" in payload:
                return payload["choices"][0]["message"]["content"]
            return payload["content"][0]["text"]
        except (KeyError, IndexError, TypeError) as exc:
            raise TransportError(f"unrecognized chat response shape: {exc}") from exc


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
        import requests

        body = {"query": query, "documents": list(documents), "top_n": top_n}
        if self.model:
            body["model"] = self.model
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        try:
            resp = requests.post(self.endpoint, json=body, headers=headers, timeout=self.timeout)
        except requests.RequestException as exc:
            raise TransportError(f"rerank request failed: {exc}") from exc
        if resp.status_code != 200:
            raise TransportError(f"rerank endpoint returned {resp.status_code}: {resp.text[:200]}")
        payload = resp.json()
        try:
            results = payload["results"]
            return [(int(r["index"]), float(r["relevance_score"])) for r in results]
        except (KeyError, TypeError, ValueError) as exc:
            raise TransportError(f"unrecognized rerank response shape: {exc}") from exc

