"""Agent clients: live VLM backends and deterministic fixture replay.

Every request renders a role-specific prompt template (``{{variable}}``
placeholders, all of which must be bound before any I/O happens). The
mock client answers from a fixture directory keyed by
``(role, content hash)`` so identical requests return identical bytes
across runs; a missing fixture is a hard error, since test runs must be
fully covered. The live client speaks a plain JSON-over-HTTP protocol
with bounded retries, a concurrency cap and request logging.
"""

from __future__ import annotations

import base64
import hashlib
import json
import logging
import re
import threading
import time
from abc import ABC, abstractmethod
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

log = logging.getLogger(__name__)


class AgentError(Exception):
    pass


class TemplateError(AgentError):
    """Unknown role or unbound template variable."""


class FixtureMissingError(AgentError):
    """Mock mode has no recorded response for this request."""


class BackendUnavailableError(AgentError):
    """Live backend still failing after the retry budget."""


class BackendRejectedError(AgentError):
    """Live backend refused the request (HTTP 4xx); retrying cannot help."""


class MalformedReplyError(AgentError):
    """Live backend replied with something other than a JSON object with string ``content``."""


AGENT_ROLES = ("planner", "reaction_combiner")

# a ``{{`` with no ``}}`` before the next brace matches without a name, and is an error
_PLACEHOLDER = re.compile(r"\{\{(?:([^{}]*)\}\})?")


def load_default_templates() -> dict[str, str]:
    templates = {}
    prompts = resources.files("rxnparse.data").joinpath("prompts")
    for role in AGENT_ROLES:
        templates[role] = prompts.joinpath(f"{role}.txt").read_text("utf-8")
    return templates


def render_template(template: str, variables: dict[str, str]) -> str:
    """Substitute ``{{name}}`` placeholders in one pass over ``template``.

    Values are inserted verbatim, so a ``{{`` inside a value is text. A
    placeholder with no variable, or a ``{{`` that opens none, is an error.
    """

    def substitute(match: re.Match) -> str:
        name = match.group(1)
        if name not in variables:
            shown = template[match.start() : match.start() + 32] if name is None else match.group(0)
            raise TemplateError(f"unbound template variable {shown}")
        return str(variables[name])

    return _PLACEHOLDER.sub(substitute, template)


def content_hash(role: str, prompt: str, image: bytes | None = None) -> str:
    digest = hashlib.sha256()
    digest.update(role.encode("utf-8"))
    digest.update(b"\x00")
    digest.update(prompt.encode("utf-8"))
    if image:
        digest.update(b"\x00")
        digest.update(image)
    return digest.hexdigest()


class AgentClient(ABC):
    """Shared request plumbing: template lookup, rendering, logging."""

    def __init__(self, templates: dict[str, str] | None = None):
        self.templates = dict(templates) if templates is not None else load_default_templates()

    def request(self, role: str, variables: dict[str, str], image: bytes | None = None) -> str:
        if role not in self.templates:
            raise TemplateError(f"no template registered for role {role!r}")
        prompt = render_template(self.templates[role], variables)
        key = content_hash(role, prompt, image)
        started = time.monotonic()
        response = self._send(role, prompt, image, key)
        log.info(
            "agent request role=%s hash=%s latency=%.3fs",
            role,
            key[:12],
            time.monotonic() - started,
        )
        return response

    @abstractmethod
    def _send(self, role: str, prompt: str, image: bytes | None, key: str) -> str: ...


class MockAgentClient(AgentClient):
    """Replays recorded responses from ``fixture_dir/<role>/<hash>.txt``."""

    def __init__(self, fixture_dir, templates: dict[str, str] | None = None):
        super().__init__(templates)
        self.fixture_dir = Path(fixture_dir)

    def fixture_path(self, role: str, variables: dict[str, str], image: bytes | None = None) -> Path:
        prompt = render_template(self.templates[role], variables)
        return self.fixture_dir / role / f"{content_hash(role, prompt, image)}.txt"

    def store(self, role: str, variables: dict[str, str], response: str, image: bytes | None = None) -> Path:
        """Record a fixture for the exact request that will be made."""
        path = self.fixture_path(role, variables, image)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(response, encoding="utf-8")
        return path

    def _send(self, role, prompt, image, key):
        path = self.fixture_dir / role / f"{key}.txt"
        if not path.exists():
            raise FixtureMissingError(f"no fixture for role={role} hash={key} under {self.fixture_dir}")
        return path.read_text(encoding="utf-8")


@dataclass
class LiveBackendConfig:
    endpoint: str
    model: str
    api_key: str | None = None  # populate from the environment, never a config file
    max_retries: int = 3
    timeout: float = 60.0
    max_in_flight: int = 4


class LiveAgentClient(AgentClient):
    """HTTP JSON backend: POST {model, messages, image?} -> {content}."""

    def __init__(self, backend: LiveBackendConfig, templates: dict[str, str] | None = None):
        super().__init__(templates)
        self.backend = backend
        self._gate = threading.Semaphore(backend.max_in_flight)

    def _send(self, role, prompt, image, key):
        import urllib.error  # with urllib.request, loads http.client and ssl: only this backend needs them
        import urllib.request

        body: dict = {
            "model": self.backend.model,
            "messages": [{"role": "user", "content": prompt}],
        }
        if image:
            body["image"] = base64.b64encode(image).decode("ascii")
        payload = json.dumps(body).encode("utf-8")
        headers = {"Content-Type": "application/json"}
        if self.backend.api_key:
            headers["Authorization"] = f"Bearer {self.backend.api_key}"

        last_error: Exception | None = None
        for attempt in range(self.backend.max_retries + 1):
            if attempt:
                time.sleep(min(2.0 ** (attempt - 1) * 0.25, 5.0))
            try:
                with self._gate:
                    request = urllib.request.Request(self.backend.endpoint, payload, headers)
                    with urllib.request.urlopen(request, timeout=self.backend.timeout) as reply:
                        return _reply_content(reply.read())
            except urllib.error.HTTPError as exc:
                exc.close()
                if exc.code < 500:
                    raise BackendRejectedError(f"backend {self.backend.endpoint}: HTTP {exc.code} {exc.reason}") from exc
                last_error = exc
            except OSError as exc:  # refused or dropped connections and timeouts, wrapped or not
                last_error = exc
            log.warning("agent backend attempt %d failed: %s", attempt + 1, last_error)
        raise BackendUnavailableError(
            f"backend {self.backend.endpoint} unavailable after "
            f"{self.backend.max_retries + 1} attempts: {last_error}"
        )


def _reply_content(body: bytes) -> str:
    try:
        data = json.loads(body.decode("utf-8"))
    except ValueError as exc:  # undecodable bytes or invalid JSON
        raise MalformedReplyError(f"reply is not JSON: {exc}") from exc
    content = data.get("content", "") if isinstance(data, dict) else None
    if not isinstance(content, str):
        raise MalformedReplyError(f"reply is not a JSON object with string content: {body[:80]!r}")
    return content
