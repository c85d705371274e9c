"""LiveAgentClient against a scripted HTTP server on localhost.

The server is a single-threaded ``http.server.HTTPServer`` run by one
background thread, so the fixture never starts more than one thread.
"""

import json
import os
import socket
import subprocess
import sys
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer
from pathlib import Path

import pytest

import rxnparse
from rxnparse import agents
from rxnparse.agents import (
    BackendRejectedError,
    BackendUnavailableError,
    LiveAgentClient,
    LiveBackendConfig,
    MalformedReplyError,
)


class _ScriptedHandler(BaseHTTPRequestHandler):
    def do_POST(self):
        server = self.server
        server.requests.append(json.loads(self.rfile.read(int(self.headers["Content-Length"]))))
        status, body, delay = server.script[min(len(server.requests), len(server.script)) - 1]
        if delay:
            server.release.wait(delay)
        try:
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
        except OSError:
            pass  # the client gave up waiting

    def log_message(self, *args):
        pass


@pytest.fixture
def backend(monkeypatch):
    """Start the server; the test sets ``server.script`` to (status, body, delay) replies, the last repeating."""
    monkeypatch.setenv("no_proxy", "127.0.0.1,localhost")
    server = HTTPServer(("127.0.0.1", 0), _ScriptedHandler)
    server.requests, server.script, server.release = [], [], threading.Event()
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.release.set()
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
        assert not thread.is_alive()


@pytest.fixture
def sleeps(monkeypatch):
    recorded = []
    monkeypatch.setattr(agents.time, "sleep", recorded.append)
    return recorded


def make_client(url, retries=2, timeout=5.0):
    config = LiveBackendConfig(endpoint=url, model="test-model", max_retries=retries, timeout=timeout)
    return LiveAgentClient(config, templates={"planner": "plan {{query}}"})


def url_of(server):
    host, port = server.server_address
    return f"http://{host}:{port}/v1"


def reply(payload):
    return json.dumps(payload).encode("utf-8")


def test_ok_reply_returns_content(backend, sleeps):
    backend.script = [(200, reply({"content": "[]"}), 0)]
    assert make_client(url_of(backend)).request("planner", {"query": "q"}) == "[]"
    assert backend.requests == [{"model": "test-model", "messages": [{"role": "user", "content": "plan q"}]}]
    assert sleeps == []


def test_client_error_is_not_retried(backend, sleeps):
    backend.script = [(404, reply({"error": "no such model"}), 0)]
    with pytest.raises(BackendRejectedError, match="HTTP 404"):
        make_client(url_of(backend)).request("planner", {"query": "q"})
    assert len(backend.requests) == 1
    assert sleeps == []


def test_server_error_retried_without_a_final_sleep(backend, sleeps):
    backend.script = [(503, reply({"error": "busy"}), 0)]
    with pytest.raises(BackendUnavailableError, match="after 3 attempts"):
        make_client(url_of(backend), retries=2).request("planner", {"query": "q"})
    assert len(backend.requests) == 3
    assert sleeps == [0.25, 0.5]


def test_server_error_then_success(backend, sleeps):
    backend.script = [(500, b"", 0), (200, reply({"content": "done"}), 0)]
    assert make_client(url_of(backend)).request("planner", {"query": "q"}) == "done"
    assert len(backend.requests) == 2
    assert sleeps == [0.25]


def test_timeout_is_retried(backend, sleeps):
    backend.script = [(200, reply({"content": "late"}), 5.0)]
    with pytest.raises(BackendUnavailableError):
        make_client(url_of(backend), retries=1, timeout=0.2).request("planner", {"query": "q"})
    assert sleeps == [0.25]


def test_refused_connection_is_retried(sleeps):
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    with pytest.raises(BackendUnavailableError, match="after 2 attempts"):
        make_client(f"http://127.0.0.1:{port}/v1", retries=1).request("planner", {"query": "q"})
    assert sleeps == [0.25]


@pytest.mark.parametrize(
    "body",
    [b"not json", b"\xff\xfe", reply(["a", "list"]), reply("text"), reply({"content": 3})],
    ids=["not-json", "not-utf8", "array", "string", "non-string-content"],
)
def test_malformed_reply_raises_agent_error(backend, sleeps, body):
    backend.script = [(200, body, 0)]
    with pytest.raises(MalformedReplyError):
        make_client(url_of(backend)).request("planner", {"query": "q"})
    assert len(backend.requests) == 1
    assert sleeps == []


def test_import_leaves_the_http_stack_unloaded():
    code = "import sys, rxnparse; print(sorted(m for m in ('ssl', 'http.client') if m in sys.modules))"
    env = {**os.environ, "PYTHONPATH": str(Path(rxnparse.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert out.stdout.strip() == "[]"
