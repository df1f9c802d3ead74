"""HTTP client request/response handling against a faked transport layer."""

import csv
import json

import pytest
import requests

from albench.clients import LiveChatClient, LiveRerankClient
from albench.errors import TransportError


def html_response():
    """A 200 reply whose body is an HTML page, as a misconfigured proxy sends."""
    resp = requests.models.Response()
    resp.status_code, resp._content = 200, b"<html><body>gateway</body></html>"
    return resp


class FakeResponse:
    def __init__(self, status_code=200, payload=None):
        self.status_code = status_code
        self._payload = payload or {}
        self.text = json.dumps(self._payload)

    def json(self):
        return self._payload


class TestLiveChatClient:
    def _client(self):
        return LiveChatClient(endpoint="https://chat.example/v1", model="m", api_key="k")

    def test_openai_shape(self, monkeypatch):
        captured = {}

        def fake_post(url, json=None, headers=None, timeout=None):
            captured.update(url=url, body=json, headers=headers)
            return FakeResponse(payload={"choices": [{"message": {"content": "hi"}}]})

        monkeypatch.setattr(requests, "post", fake_post)
        out = self._client().send([{"role": "user", "text": "q"}], temperature=0.0)
        assert out == "hi"
        assert captured["body"]["temperature"] == 0.0
        assert captured["body"]["messages"] == [{"role": "user", "content": "q"}]
        assert captured["headers"]["x-api-key"] == "k"

    def test_anthropic_shape(self, monkeypatch):
        monkeypatch.setattr(
            requests, "post", lambda *a, **k: FakeResponse(payload={"content": [{"text": "yo"}]})
        )
        assert self._client().send([{"role": "user", "text": "q"}], 0.0) == "yo"

    def test_http_error_status(self, monkeypatch):
        monkeypatch.setattr(requests, "post", lambda *a, **k: FakeResponse(status_code=500))
        with pytest.raises(TransportError):
            self._client().send([{"role": "user", "text": "q"}], 0.0)

    def test_network_failure(self, monkeypatch):
        def boom(*a, **k):
            raise requests.ConnectionError("refused")

        monkeypatch.setattr(requests, "post", boom)
        with pytest.raises(TransportError):
            self._client().send([{"role": "user", "text": "q"}], 0.0)

    @pytest.mark.parametrize(
        "payload",
        [{"weird": 1}, {"choices": []}, {"choices": [{"message": {"content": None}}]}, {"content": [{"text": 5}]},
         ["choices"], "text", 7],
        ids=["no-known-key", "no-choices", "null-content", "number-text", "list", "string", "number"],
    )
    def test_unrecognized_shape(self, monkeypatch, payload):
        monkeypatch.setattr(requests, "post", lambda *a, **k: FakeResponse(payload=payload))
        with pytest.raises(TransportError, match="unrecognized chat response"):
            self._client().send([{"role": "user", "text": "q"}], 0.0)

    def test_non_json_body(self, monkeypatch):
        monkeypatch.setattr(requests, "post", lambda *a, **k: html_response())
        with pytest.raises(TransportError, match="unrecognized chat response"):
            self._client().send([{"role": "user", "text": "q"}], 0.0)

    def test_html_reply_fails_the_sweep_cell_and_keeps_its_partial_run(self, tmp_path, monkeypatch):
        from albench.cli import EXIT_PARTIAL_SWEEP, main
        from albench.engine import read_trajectory

        monkeypatch.setattr(requests, "post", lambda *a, **k: html_response())
        cfg = {
            "dataset": "synthetic:linear1d:12:1", "proposers": ["llm"], "alphas": [0], "seeds": [38],
            "repeats_at_seed": {}, "llm": {"client": "live:https://chat.example/v1|m", "backoff": 0},
        }
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(cfg))
        out_dir = tmp_path / "results"
        assert main(["sweep", "--config", str(path), "--out-dir", str(out_dir)]) == EXIT_PARTIAL_SWEEP
        [row] = csv.DictReader((out_dir / "summary.csv").read_text().splitlines())
        assert row["status"] == "failed" and "unrecognized chat response" in row["error"]
        assert read_trajectory(out_dir / "runs" / f"{row['digest']}.jsonl")[1]


class TestLiveRerankClient:
    def test_result_parsing(self, monkeypatch):
        captured = {}

        def fake_post(url, json=None, headers=None, timeout=None):
            captured.update(body=json)
            return FakeResponse(
                payload={"results": [{"index": 2, "relevance_score": 0.83}]}
            )

        monkeypatch.setattr(requests, "post", fake_post)
        client = LiveRerankClient(endpoint="https://rerank.example", api_key="r")
        ranked = client.rerank("query", ["a", "b", "c"], top_n=1)
        assert ranked == [(2, 0.83)]
        assert captured["body"]["top_n"] == 1
        assert captured["body"]["documents"] == ["a", "b", "c"]

    @pytest.mark.parametrize(
        "payload",
        [{"weird": 1}, {"results": [{"index": 0}]}, {"results": [{"index": "x", "relevance_score": 0.5}]},
         {"results": 3}, ["results"]],
        ids=["no-results", "no-score", "text-index", "number-results", "list"],
    )
    def test_unrecognized_shape(self, monkeypatch, payload):
        monkeypatch.setattr(requests, "post", lambda *a, **k: FakeResponse(payload=payload))
        with pytest.raises(TransportError, match="unrecognized rerank response"):
            LiveRerankClient(endpoint="https://rerank.example").rerank("q", ["d"], top_n=1)

    def test_non_json_body(self, monkeypatch):
        monkeypatch.setattr(requests, "post", lambda *a, **k: html_response())
        with pytest.raises(TransportError, match="unrecognized rerank response"):
            LiveRerankClient(endpoint="https://rerank.example").rerank("q", ["d"], top_n=1)

    def test_transport_failure(self, monkeypatch):
        def boom(*a, **k):
            raise requests.Timeout("slow")

        monkeypatch.setattr(requests, "post", boom)
        client = LiveRerankClient(endpoint="https://rerank.example")
        with pytest.raises(TransportError):
            client.rerank("q", ["d"], top_n=1)
