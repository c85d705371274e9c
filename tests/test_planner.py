import json
import random

import pytest

from rxnparse.agents import MockAgentClient
from rxnparse.planner import (
    AgentPlan,
    PlanParseError,
    ROLES,
    extract_features,
    plan_from_json,
    plan_to_json,
    route,
)

from helpers import arrow_entity, make_doc, molecule_entity, text_entity

FULL_PLAN_JSON = (
    '{"plan":{"molecule_expert":true,"arrow_expert":true,'
    '"text_expert":true,"reaction_expert":true}}'
)
MOLECULE_ONLY_JSON = (
    '{"plan":{"molecule_expert":true,"arrow_expert":false,'
    '"text_expert":false,"reaction_expert":false}}'
)


@pytest.fixture()
def features():
    doc = make_doc(
        [
            molecule_entity("m1", 0, 100, smiles="CCO"),
            molecule_entity("m2", 900, 100, smiles="C=C"),
            text_entity("t1", 500, 40),
            text_entity("t2", 500, 220),
            arrow_entity("a1", 450, 150, 850),
        ]
    )
    return extract_features(doc)


class TestFeatures:
    def test_counts(self, features):
        assert features.kind_counts == {"molecule": 2, "arrow": 1, "text": 2, "identifier": 0}

    def test_empty_document(self):
        features = extract_features(make_doc([]))
        assert features.kind_counts == {"molecule": 0, "arrow": 0, "text": 0, "identifier": 0}


class TestRouting:
    def test_full_extraction_query(self, features):
        plan = route("extract all reactions", features)
        assert plan.steps == ROLES
        assert plan_to_json(plan) == FULL_PLAN_JSON

    def test_smiles_only_query(self, features):
        plan = route("convert molecule to SMILES", features)
        assert plan.steps == ("molecule_expert",)
        assert plan_to_json(plan) == MOLECULE_ONLY_JSON

    def test_conditions_query_adds_text_expert(self, features):
        plan = route("read the SMILES and the conditions", features)
        assert plan.steps == ("molecule_expert", "text_expert")

    def test_unknown_query_falls_back_to_full(self, features):
        plan = route("do something helpful", features)
        assert plan.steps == ROLES

    def test_empty_query_rejected(self, features):
        with pytest.raises(ValueError):
            route("", features)

    def test_deterministic(self, features):
        a = route("extract all reactions", features)
        b = route("extract all reactions", features)
        assert a == b


class TestVlmPolicy:
    def test_parses_plan_response(self, features, tmp_path):
        client = MockAgentClient(tmp_path)
        client.store("planner", {"query": "extract all reactions"}, FULL_PLAN_JSON)
        plan = route("extract all reactions", features, policy=client)
        assert plan.steps == ROLES
        assert plan.provenance == "vlm-policy"

    def test_flag_order_does_not_matter(self, features, tmp_path):
        client = MockAgentClient(tmp_path)
        scrambled = json.dumps(
            {
                "plan": {
                    "reaction_expert": True,
                    "text_expert": True,
                    "molecule_expert": True,
                    "arrow_expert": True,
                }
            }
        )
        client.store("planner", {"query": "extract all reactions"}, scrambled)
        plan = route("extract all reactions", features, policy=client)
        assert plan.steps == ROLES

    def test_malformed_response_raises(self, features, tmp_path):
        client = MockAgentClient(tmp_path)
        client.store("planner", {"query": "extract all reactions"}, "not json at all")
        with pytest.raises(PlanParseError):
            route("extract all reactions", features, policy=client)

    def test_malformed_with_fallback(self, features, tmp_path):
        client = MockAgentClient(tmp_path)
        client.store("planner", {"query": "extract all reactions"}, "not json at all")
        plan = route("extract all reactions", features, policy=client, fallback_to_rule=True)
        assert plan.steps == ROLES
        assert plan.provenance == "rule-policy"


class TestPlanJson:
    def test_roundtrip_random_plans(self):
        rng = random.Random(123)
        for _ in range(1000):
            subset = [r for r in ROLES if rng.random() < 0.5]
            if not subset:
                subset = [rng.choice(ROLES)]
            plan = AgentPlan.from_roles(subset)
            assert plan_from_json(plan_to_json(plan), provenance=plan.provenance) == plan

    def test_unknown_role_key(self):
        with pytest.raises(PlanParseError):
            plan_from_json('{"plan": {"wizard_expert": true}}')

    def test_no_roles_enabled(self):
        with pytest.raises(PlanParseError):
            plan_from_json('{"plan": {"molecule_expert": false}}')

    def test_non_boolean_flag(self):
        with pytest.raises(PlanParseError):
            plan_from_json('{"plan": {"molecule_expert": "yes"}}')


class TestPlanInvariants:
    def test_reaction_expert_always_last(self):
        rng = random.Random(7)
        for _ in range(300):
            subset = {r for r in ROLES if rng.random() < 0.6} or {"molecule_expert"}
            plan = AgentPlan.from_roles(subset)
            assert plan.steps
            assert len(set(plan.steps)) == len(plan.steps)
            if "reaction_expert" in plan.steps:
                assert plan.steps[-1] == "reaction_expert"

    def test_invalid_plans_rejected(self):
        with pytest.raises(ValueError):
            AgentPlan(steps=())
        with pytest.raises(ValueError):
            AgentPlan(steps=("molecule_expert", "molecule_expert"))
        with pytest.raises(ValueError):
            AgentPlan(steps=("reaction_expert", "molecule_expert"))
        with pytest.raises(ValueError):
            AgentPlan(steps=("sommelier",))


