"""End-to-end orchestration: plan, ingest, reason, post-process, emit.

A batch run maps every detection file to a reaction JSON file and
yields a manifest recording per-document status (ok / partial / failed
with the error class), stage timings and output paths. Documents are
isolated: one failure never aborts the batch. With the mock agent
backend the whole run is a pure function of (inputs, config, fixtures),
so two runs produce byte-identical reaction output.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, fields
from functools import lru_cache
from pathlib import Path

from .agents import AgentClient, LiveAgentClient, LiveBackendConfig, MockAgentClient
from .config import ConfigError, ReasoningConfig
from .entities import ReactionDocument, load_document
from .outputs import EXIT_FAILED, EXIT_OK, EXIT_PARTIAL, write_atomic
from .planner import AgentPlan, extract_features, route
from .reactions import Reaction, reactions_to_json
from .reasoning import (
    build_chem_graph,
    build_spatial_graph,
    cluster_entities,
    collect_hypotheses,
    fuse,
    infer_reactions,
    load_weights,
    post_process,
    propagate,
    random_weights,
)
from .reasoning.spatial import SpatialWeights

log = logging.getLogger(__name__)

DEFAULT_QUERY = "extract all reactions"


def _checked(cls, values: dict, prefix: str) -> dict:
    """Return ``values`` once each key names a field of ``cls`` and each value has its default's type.

    An int default takes an int, a float default any number, a bool
    default a bool, a str default a str, and a None default (an optional
    path or name) a str or None. A bool is never a number.
    """
    defaults = {f.name: f.default for f in fields(cls)}
    unknown = sorted(prefix + key for key in set(values) - set(defaults))
    if unknown:
        raise ConfigError(f"unknown config keys: {unknown}")
    for key, value in values.items():
        default = defaults[key]
        number = isinstance(value, (int, float)) and not isinstance(value, bool)
        if isinstance(default, bool):
            ok, wanted = isinstance(value, bool), "true or false"
        elif isinstance(default, int):
            ok, wanted = number and isinstance(value, int), "an integer"
        elif isinstance(default, float):
            ok, wanted = number, "a number"
        elif default is None:
            ok, wanted = value is None or isinstance(value, str), "a string or null"
        else:
            ok, wanted = isinstance(value, str), "a string"
        if not ok:
            raise ConfigError(f"{prefix}{key} must be {wanted}, got {value!r}")
    return values


@dataclass(frozen=True)
class PipelineConfig:
    reasoning: ReasoningConfig = field(default_factory=ReasoningConfig)
    backend: str = "mock"  # "mock" | "live"
    fixtures_dir: str | None = None
    endpoint: str | None = None
    model: str | None = None
    weights_file: str | None = None
    output_dir: str = "out"
    max_workers: int = 1
    cluster_workers: int = 1
    query: str = DEFAULT_QUERY
    planner_policy: str = "rule"  # "rule" | "vlm"
    plan_fallback: bool = False  # fall back to the rule policy on bad VLM plans

    def __post_init__(self):
        if self.backend not in ("mock", "live"):
            raise ConfigError(f"backend must be 'mock' or 'live', got {self.backend!r}")
        if self.backend == "mock" and not self.fixtures_dir:
            raise ConfigError("mock backend needs fixtures_dir")
        if self.backend == "live" and not (self.endpoint and self.model):
            raise ConfigError("live backend needs endpoint and model")
        if self.planner_policy not in ("rule", "vlm"):
            raise ConfigError(f"planner_policy must be 'rule' or 'vlm', got {self.planner_policy!r}")
        if not self.query:
            raise ConfigError("query must be non-empty")
        for name in ("max_workers", "cluster_workers"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        for name in ("fixtures_dir", "weights_file"):
            value = getattr(self, name)
            if value is not None and not Path(value).exists():
                raise ConfigError(f"{name} does not exist: {value}")

    @classmethod
    def from_file(cls, path, overrides: dict | None = None) -> "PipelineConfig":
        try:
            data = json.loads(Path(path).read_text(encoding="utf-8"))
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        except ValueError as exc:  # invalid JSON or invalid UTF-8
            raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
        return cls.from_dict(data, overrides)

    @classmethod
    def from_dict(cls, data: dict, overrides: dict | None = None) -> "PipelineConfig":
        """Build a config from its JSON form; non-None ``overrides`` (flags) win.

        Unknown keys at either level raise :class:`ConfigError`, and so
        does a value whose type differs from its field's default.
        """
        if not isinstance(data, dict):
            raise ConfigError(f"config must be a JSON object, got {type(data).__name__}")
        data = dict(data)
        reasoning = data.pop("reasoning", {})
        if not isinstance(reasoning, dict):
            raise ConfigError(f"reasoning must be a JSON object, got {reasoning!r}")
        reasoning = dict(reasoning)
        for key, value in (overrides or {}).items():
            if value is not None:
                (reasoning if key in ReasoningConfig.__dataclass_fields__ else data)[key] = value
        reasoning = ReasoningConfig(**_checked(ReasoningConfig, reasoning, "reasoning."))
        return cls(reasoning=reasoning, **_checked(cls, data, ""))

    def to_dict(self) -> dict:
        return asdict(self)

    @lru_cache(maxsize=16)  # a pure function of the frozen config, computed once per distinct config
    def config_hash(self) -> str:
        canonical = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def make_client(config: PipelineConfig) -> AgentClient:
    if config.backend == "mock":
        return MockAgentClient(config.fixtures_dir)
    backend = LiveBackendConfig(
        endpoint=config.endpoint,
        model=config.model,
        api_key=os.environ.get("RXNPARSE_API_KEY"),
    )
    return LiveAgentClient(backend)


def load_pipeline_weights(config: PipelineConfig) -> SpatialWeights:
    """The weights file, which must match the config's ``layers`` and ``dim``, or the seeded fallback without one."""
    reasoning = config.reasoning
    if not config.weights_file:
        return random_weights(reasoning.layers, reasoning.dim)
    weights = load_weights(config.weights_file)
    if (weights.layers, weights.dim) != (reasoning.layers, reasoning.dim):
        raise ConfigError(
            f"weights file {config.weights_file} has layers {weights.layers} and dim {weights.dim}, "
            f"the config layers {reasoning.layers} and dim {reasoning.dim}"
        )
    return weights


def load_pipeline_lexicon(config: PipelineConfig) -> None:
    """A no-op, kept for callers written when entities carried lexicon-normalised text tokens."""


@dataclass
class DocumentResult:
    source: str
    status: str = "ok"  # ok | partial | failed
    error: str | None = None
    stages: dict = field(default_factory=dict)  # stage -> seconds
    outputs: list = field(default_factory=list)
    warnings: list = field(default_factory=list)


@dataclass
class RunManifest:
    config_hash: str
    documents: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {"config_hash": self.config_hash, "documents": [asdict(d) for d in self.documents]}

    @property
    def exit_code(self) -> int:
        statuses = [d.status for d in self.documents]
        if not statuses or all(s == "failed" for s in statuses):
            return EXIT_FAILED if statuses else EXIT_OK
        if any(s != "ok" for s in statuses):
            return EXIT_PARTIAL
        return EXIT_OK


@dataclass
class ReasoningOutcome:
    plan: AgentPlan
    reactions: list[Reaction]
    warnings: tuple[str, ...] = ()


def run_document(
    doc: ReactionDocument,
    config: PipelineConfig,
    client: AgentClient,
    weights: SpatialWeights | None = None,
    timings: dict | None = None,
) -> ReasoningOutcome:
    """Full single-document pass: plan, reason, post-process."""
    timings = timings if timings is not None else {}
    reasoning = config.reasoning

    started = time.perf_counter()
    features = extract_features(doc)
    policy = client if config.planner_policy == "vlm" else "rule"
    plan = route(config.query, features, policy=policy, fallback_to_rule=config.plan_fallback)
    timings["plan"] = time.perf_counter() - started

    if "reaction_expert" not in plan.steps:  # the perception roles' output is the loaded document itself
        return ReasoningOutcome(plan=plan, reactions=[])

    started = time.perf_counter()
    if weights is None:
        weights = load_pipeline_weights(config)
    spatial = propagate(build_spatial_graph(doc, reasoning, weights))
    chem = build_chem_graph(doc, reasoning)
    clusters = cluster_entities(doc, reasoning)
    hypotheses = collect_hypotheses(
        clusters, client, doc, reasoning, max_workers=config.cluster_workers
    )
    fused = fuse(spatial, chem, hypotheses, reasoning)
    timings["reason"] = time.perf_counter() - started

    started = time.perf_counter()
    inferred = infer_reactions(fused, doc, reasoning)
    reactions = post_process(inferred, doc, reasoning)
    timings["post"] = time.perf_counter() - started
    return ReasoningOutcome(plan=plan, reactions=reactions, warnings=hypotheses.warnings)


def run_batch(inputs, config: PipelineConfig, client: AgentClient | None = None) -> RunManifest:
    """Process detection files into reaction JSON files plus a manifest."""
    client = client or make_client(config)
    weights = load_pipeline_weights(config)
    output_dir = Path(config.output_dir)
    output_dir.mkdir(parents=True, exist_ok=True)
    manifest = RunManifest(config_hash=config.config_hash())

    def process(path: Path) -> DocumentResult:
        result = DocumentResult(source=str(path))
        if stems[path.stem] > 1:  # inputs sharing a stem would overwrite each other's output
            same = ", ".join(str(p) for p in paths if p.stem == path.stem)
            result.status, result.error = "failed", f"OutputCollision: {same} all map to {path.stem}.reactions.json"
            return result
        try:
            started = time.perf_counter()
            doc = load_document(path.read_bytes())
            result.stages["load"] = time.perf_counter() - started
            table = doc.table  # the document holds its table weakly: held here, emit reads the one reasoning built
            outcome = run_document(doc, config, client, weights, result.stages)
            started = time.perf_counter()
            out_path = output_dir / f"{path.stem}.reactions.json"
            write_atomic(out_path, reactions_to_json(outcome.reactions, doc) + "\n")
            result.stages["emit"] = time.perf_counter() - started
            result.outputs.append(str(out_path))
            result.warnings.extend(doc.warnings)
            result.warnings.extend(outcome.warnings)
            if outcome.warnings:
                result.status = "partial"
        except Exception as exc:  # per-document isolation
            log.exception("document %s failed", path)
            result.status = "failed"
            result.error = f"{type(exc).__name__}: {exc}"
        return result

    paths = [Path(p) for p in inputs]
    stems = Counter(p.stem for p in paths)
    if config.max_workers > 1 and len(paths) > 1:
        with ThreadPoolExecutor(max_workers=config.max_workers) as pool:
            results = list(pool.map(process, paths))
    else:
        results = [process(p) for p in paths]
    manifest.documents.extend(results)
    return manifest
