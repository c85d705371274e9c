import json

import pytest

from rxnparse.agents import FixtureMissingError, MockAgentClient
from rxnparse.config import ReasoningConfig
from rxnparse.reactions import parse_combiner_response
from rxnparse.reasoning.hypotheses import (
    COMBINER_ROLE,
    cluster_prompt_variables,
    collect_hypotheses,
    edges_from_reactions,
)
from rxnparse.reasoning.relations import EdgeRelation

from helpers import arrow_entity, make_doc, molecule_entity, text_entity


@pytest.fixture()
def simple_doc():
    return make_doc(
        [
            molecule_entity("m1", 0, 100, smiles="CCO"),
            molecule_entity("m2", 900, 100, smiles="C=C"),
            text_entity("t1", 500, 40, text="H2SO4"),
            arrow_entity("a1", 450, 150, 850),
        ]
    )


def combiner_reply(doc):
    def bbox(eid):
        from rxnparse.geometry import region_to_array

        return region_to_array(doc.entity(eid).region)

    return json.dumps(
        [
            {
                "reactants": [{"label": "molecule", "bbox": bbox("m1")}],
                "products": [{"label": "molecule", "bbox": bbox("m2")}],
                "conditions": [{"label": "text", "bbox": bbox("t1")}],
                "arrow": [{"label": "arrow", "bbox": bbox("a1")}],
            }
        ]
    )


class TestEdgesFromReactions:
    def test_typed_edges_derived(self, simple_doc):
        reactions = parse_combiner_response(combiner_reply(simple_doc), simple_doc)
        edges, warnings = edges_from_reactions(reactions, ("m1", "m2", "t1", "a1"))
        relations = {(e.source, e.target, e.relation) for e in edges}
        assert ("m1", "a1", EdgeRelation.REACTANT_TO_ARROW) in relations
        assert ("a1", "m2", EdgeRelation.ARROW_TO_PRODUCT) in relations
        assert ("m1", "t1", EdgeRelation.REACTANT_TO_COND) in relations
        assert ("t1", "m2", EdgeRelation.COND_TO_PRODUCT) in relations
        assert not warnings

    def test_no_arrow_yields_reactant_to_product(self, simple_doc):
        raw = json.dumps(
            [
                {
                    "reactants": [{"label": "molecule", "bbox": [0, 100, 120, 190]}],
                    "products": [{"label": "molecule", "bbox": [900, 100, 1020, 190]}],
                    "conditions": [],
                    "arrow": [],
                }
            ]
        )
        reactions = parse_combiner_response(raw, simple_doc)
        edges, _ = edges_from_reactions(reactions, ("m1", "m2"))
        assert [(e.source, e.target, e.relation) for e in edges] == [
            ("m1", "m2", EdgeRelation.REACTANT_TO_PRODUCT)
        ]

    def test_cross_cluster_edges_dropped(self, simple_doc):
        reactions = parse_combiner_response(combiner_reply(simple_doc), simple_doc)
        edges, warnings = edges_from_reactions(reactions, ("m1", "a1"))
        assert all(e.source in ("m1", "a1") and e.target in ("m1", "a1") for e in edges)
        assert warnings

    def test_confidence_flows_through(self, simple_doc):
        raw = json.loads(combiner_reply(simple_doc))
        raw[0]["confidence"] = 0.25
        reactions = parse_combiner_response(json.dumps(raw), simple_doc)
        edges, _ = edges_from_reactions(reactions, ("m1", "m2", "t1", "a1"))
        assert all(e.confidence == 0.25 for e in edges)


class TestCollect:
    def test_mock_collection(self, simple_doc, tmp_path):
        config = ReasoningConfig()
        client = MockAgentClient(tmp_path)
        cluster = tuple(e.id for e in simple_doc.entities)
        variables = cluster_prompt_variables(cluster, simple_doc, config)
        client.store(COMBINER_ROLE, variables, combiner_reply(simple_doc))
        graph = collect_hypotheses((cluster,), client, simple_doc, config)
        assert len(graph.edges) == 4

    def test_empty_response_no_edges(self, simple_doc, tmp_path):
        config = ReasoningConfig()
        client = MockAgentClient(tmp_path)
        cluster = tuple(e.id for e in simple_doc.entities)
        client.store(COMBINER_ROLE, cluster_prompt_variables(cluster, simple_doc, config), "[]")
        graph = collect_hypotheses((cluster,), client, simple_doc, config)
        assert graph.edges == ()
        assert not graph.warnings

    def test_bad_response_spoils_only_its_cluster(self, tmp_path):
        doc = make_doc(
            [
                molecule_entity("m1", 0, 0, smiles="CCO"),
                molecule_entity("m2", 120, 0, smiles="C=C"),
                molecule_entity("x1", 0, 780, smiles="CC"),
                molecule_entity("x2", 120, 780, smiles="CCC"),
            ],
            width=1500,
            height=900,
        )
        config = ReasoningConfig(tau_cluster=0.2)
        from rxnparse.reasoning.clustering import cluster_entities

        clusters = cluster_entities(doc, config)
        assert len(clusters) == 2
        client = MockAgentClient(tmp_path)
        client.store(
            COMBINER_ROLE, cluster_prompt_variables(clusters[0], doc, config), "garbage"
        )
        good = json.dumps(
            [
                {
                    "reactants": [{"label": "molecule", "bbox": [0, 780, 120, 870]}],
                    "products": [{"label": "molecule", "bbox": [120, 780, 240, 870]}],
                    "conditions": [],
                    "arrow": [],
                }
            ]
        )
        client.store(COMBINER_ROLE, cluster_prompt_variables(clusters[1], doc, config), good)
        graph = collect_hypotheses(clusters, client, doc, config)
        assert len(graph.edges) == 1
        assert len(graph.warnings) == 1

    def test_missing_fixture_propagates(self, simple_doc, tmp_path):
        config = ReasoningConfig()
        client = MockAgentClient(tmp_path)
        cluster = tuple(e.id for e in simple_doc.entities)
        with pytest.raises(FixtureMissingError):
            collect_hypotheses((cluster,), client, simple_doc, config)

    def test_parallel_equals_serial(self, tmp_path):
        doc = make_doc(
            [
                molecule_entity("m1", 0, 0, smiles="CCO"),
                molecule_entity("m2", 120, 0, smiles="C=C"),
                molecule_entity("x1", 0, 780, smiles="CC"),
                molecule_entity("x2", 120, 780, smiles="CCC"),
            ],
            width=1500,
            height=900,
        )
        config = ReasoningConfig(tau_cluster=0.2)
        from rxnparse.reasoning.clustering import cluster_entities

        clusters = cluster_entities(doc, config)
        client = MockAgentClient(tmp_path)
        for cluster in clusters:
            first = doc.entity(cluster[0])
            second = doc.entity(cluster[1])
            from rxnparse.geometry import region_to_array

            reply = json.dumps(
                [
                    {
                        "reactants": [{"label": "molecule", "bbox": region_to_array(first.region)}],
                        "products": [{"label": "molecule", "bbox": region_to_array(second.region)}],
                        "conditions": [],
                        "arrow": [],
                    }
                ]
            )
            client.store(COMBINER_ROLE, cluster_prompt_variables(cluster, doc, config), reply)
        serial = collect_hypotheses(clusters, client, doc, config, max_workers=1)
        parallel = collect_hypotheses(clusters, client, doc, config, max_workers=4)
        assert serial == parallel


def test_prompt_variables_deterministic(simple_doc):
    config = ReasoningConfig()
    cluster = tuple(e.id for e in simple_doc.entities)
    a = cluster_prompt_variables(cluster, simple_doc, config)
    b = cluster_prompt_variables(cluster, simple_doc, config)
    assert a == b
    payload = json.loads(a["graph_json"])
    assert {n["id"] for n in payload["nodes"]} == set(cluster)
