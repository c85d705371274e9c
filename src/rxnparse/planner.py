"""Query-conditioned agent routing.

The router maps (query, diagram features) to an ordered plan over the
four expert roles. The default policy is a deterministic keyword rule
set so the pipeline runs offline; a VLM policy delegates the decision
to the planner agent and parses its JSON plan. Either way the emitted
plan is canonical: perception roles in fixed order, ``reaction_expert``
always last.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .agents import AgentClient
from .entities import EntityKind, ReactionDocument

ROLES = ("molecule_expert", "arrow_expert", "text_expert", "reaction_expert")

_FULL_KEYWORDS = ("reaction", "pathway", "parse")
_MOLECULE_KEYWORDS = ("smiles", "structure only")
_TEXT_KEYWORDS = ("condition", "text")


class PlanParseError(ValueError):
    """A VLM plan response violates the expected JSON structure."""


@dataclass(frozen=True)
class DiagramFeatures:
    """Per-diagram statistics handed to the router."""

    kind_counts: dict


@dataclass(frozen=True)
class AgentPlan:
    steps: tuple[str, ...]
    provenance: str = "rule-policy"

    def __post_init__(self):
        if not self.steps:
            raise ValueError("a plan must contain at least one role")
        if len(set(self.steps)) != len(self.steps):
            raise ValueError("duplicate roles in plan")
        for step in self.steps:
            if step not in ROLES:
                raise ValueError(f"unknown role {step!r}")
        if "reaction_expert" in self.steps and self.steps[-1] != "reaction_expert":
            raise ValueError("reaction_expert must come last")

    @classmethod
    def from_roles(cls, roles, provenance: str = "rule-policy") -> "AgentPlan":
        """Canonical plan for a role set: fixed perception order, reaction last."""
        chosen = set(roles)
        ordered = tuple(role for role in ROLES if role in chosen)
        return cls(steps=ordered, provenance=provenance)


def extract_features(doc: ReactionDocument) -> DiagramFeatures:
    """Entity counts per kind."""
    kind_counts = {kind.value: 0 for kind in EntityKind}
    for entity in doc.entities:
        kind_counts[entity.kind.value] += 1
    return DiagramFeatures(kind_counts=kind_counts)


def _rule_roles(query: str) -> set[str]:
    q = query.lower()
    if any(k in q for k in _FULL_KEYWORDS):
        return set(ROLES)
    roles: set[str] = set()
    if any(k in q for k in _MOLECULE_KEYWORDS):
        roles.add("molecule_expert")
    if any(k in q for k in _TEXT_KEYWORDS):
        roles.add("text_expert")
    if not roles:
        return set(ROLES)  # unknown query: run everything
    return roles


def route(
    query: str,
    features: DiagramFeatures,
    policy: str | AgentClient = "rule",
    fallback_to_rule: bool = False,
) -> AgentPlan:
    """Produce an agent plan for a query over a diagram.

    ``policy`` is either the string ``"rule"`` or an
    :class:`~rxnparse.agents.AgentClient` whose planner role answers with
    the plan JSON. A malformed VLM plan raises :class:`PlanParseError`
    unless ``fallback_to_rule`` is set.
    """
    if not query:
        raise ValueError("query must be non-empty")
    if isinstance(policy, AgentClient):
        raw = policy.request("planner", {"query": query})
        try:
            return plan_from_json(raw, provenance="vlm-policy")
        except PlanParseError:
            if not fallback_to_rule:
                raise
    elif policy != "rule":
        raise ValueError(f"unknown policy {policy!r}")
    return AgentPlan.from_roles(_rule_roles(query))


def plan_to_json(plan: AgentPlan) -> str:
    flags = {role: role in plan.steps for role in ROLES}
    return json.dumps({"plan": flags}, separators=(",", ":"))


def plan_from_json(text: str, provenance: str = "vlm-policy") -> AgentPlan:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise PlanParseError(f"plan is not valid JSON: {exc}") from exc
    if not isinstance(data, dict) or not isinstance(data.get("plan"), dict):
        raise PlanParseError('expected {"plan": {...}}')
    flags = data["plan"]
    unknown = set(flags) - set(ROLES)
    if unknown:
        raise PlanParseError(f"unknown roles in plan: {sorted(unknown)}")
    enabled = []
    for role in ROLES:
        value = flags.get(role, False)
        if not isinstance(value, bool):
            raise PlanParseError(f"plan flag {role} must be a boolean")
        if value:
            enabled.append(role)
    if not enabled:
        raise PlanParseError("plan enables no roles")
    return AgentPlan.from_roles(enabled, provenance=provenance)
