import math
import random

import pytest

from rxnparse.config import ReasoningConfig
from rxnparse.reactions import Reaction
from rxnparse.reasoning.fusion import FusedEdge, FusedGraph
from rxnparse.reasoning.inference import (
    _best_assignment,
    connected_components,
    infer_reactions,
)
from rxnparse.reasoning.relations import EdgeRelation

from helpers import arrow_entity, brute_force_assignment, component_assignment, make_doc, molecule_entity, text_entity

def fused_graph(doc, edges):
    return FusedGraph(node_ids=tuple(e.id for e in doc.entities), edges=tuple(edges))


def typed(source, target, relation, score):
    return FusedEdge(
        source=source,
        target=target,
        relation=relation,
        score=score,
        s_space=0.5,
        s_chem=0.5,
        s_init=1.0,
    )


def untyped(a, b, score):
    return FusedEdge(
        source=min(a, b),
        target=max(a, b),
        relation=EdgeRelation.NO_EDGE,
        score=score,
        s_space=0.5,
        s_chem=0.5,
        s_init=0.0,
    )


@pytest.fixture()
def linear_doc():
    return make_doc(
        [
            molecule_entity("m1", 0, 100, smiles="CCO"),
            molecule_entity("m2", 900, 100, smiles="C=C"),
            text_entity("t1", 550, 40, text="H2SO4"),
            arrow_entity("a1", 450, 150, 850),
        ]
    )


class TestSingleArrow:
    def test_forced_assignment(self, linear_doc):
        edges = [
            typed("m1", "a1", EdgeRelation.REACTANT_TO_ARROW, 0.9),
            typed("a1", "m2", EdgeRelation.ARROW_TO_PRODUCT, 0.9),
        ]
        reactions = infer_reactions(fused_graph(linear_doc, edges), linear_doc, ReasoningConfig())
        assert len(reactions) == 1
        assert reactions[0].reactants == ("m1",)
        assert reactions[0].products == ("m2",)
        assert reactions[0].arrows == ("a1",)

    def test_typed_condition_edges_attach(self, linear_doc):
        edges = [
            typed("m1", "a1", EdgeRelation.REACTANT_TO_ARROW, 0.9),
            typed("a1", "m2", EdgeRelation.ARROW_TO_PRODUCT, 0.9),
            typed("m1", "t1", EdgeRelation.REACTANT_TO_COND, 0.8),
        ]
        reactions = infer_reactions(fused_graph(linear_doc, edges), linear_doc, ReasoningConfig())
        assert reactions[0].conditions == ("t1",)

    def test_untyped_sides_resolved_by_projection(self, linear_doc):
        # arrow runs x=450..850 at y~140; m1 is left (reactant side),
        # m2 right (product side), t1 above the span (condition)
        edges = [
            untyped("m1", "a1", 0.9),
            untyped("m2", "a1", 0.9),
            untyped("t1", "a1", 0.7),
        ]
        reactions = infer_reactions(fused_graph(linear_doc, edges), linear_doc, ReasoningConfig())
        assert len(reactions) == 1
        assert reactions[0].reactants == ("m1",)
        assert reactions[0].products == ("m2",)
        assert reactions[0].conditions == ("t1",)

    def test_molecule_condition_flagged(self, linear_doc):
        doc = make_doc(
            [
                molecule_entity("m1", 0, 100, smiles="CCO"),
                molecule_entity("m2", 900, 100, smiles="C=C"),
                molecule_entity("cat", 600, 20, smiles="O"),
                arrow_entity("a1", 450, 150, 850),
            ]
        )
        edges = [
            typed("m1", "a1", EdgeRelation.REACTANT_TO_ARROW, 0.9),
            typed("a1", "m2", EdgeRelation.ARROW_TO_PRODUCT, 0.9),
            untyped("cat", "a1", 0.6),
        ]
        reactions = infer_reactions(fused_graph(doc, edges), doc, ReasoningConfig())
        assert reactions[0].conditions == ("cat",)  # a molecule drawn above the arrow is a condition


class TestContestedAssignment:
    def test_contested_entity_goes_to_higher_support(self):
        doc = make_doc(
            [
                molecule_entity("m1", 0, 100, smiles="CCO"),
                molecule_entity("shared", 900, 100, smiles="C=C"),
                molecule_entity("m3", 1800, 100, smiles="CC"),
                arrow_entity("a1", 450, 150, 850),
                arrow_entity("a2", 1350, 150, 1750),
            ],
            width=2000,
        )
        edges = [
            typed("m1", "a1", EdgeRelation.REACTANT_TO_ARROW, 0.9),
            typed("a1", "shared", EdgeRelation.ARROW_TO_PRODUCT, 0.6),
            typed("shared", "a2", EdgeRelation.REACTANT_TO_ARROW, 0.8),
            typed("a2", "m3", EdgeRelation.ARROW_TO_PRODUCT, 0.9),
        ]
        fused = fused_graph(doc, edges)
        assigned, _ = component_assignment(["m1", "shared", "m3", "a1", "a2"], fused, doc, ReasoningConfig())
        assert assigned["shared"] == "a2"
        reactions = infer_reactions(fused, doc, ReasoningConfig())
        # a1 loses its only product, so only a2's reaction survives
        assert len(reactions) == 1
        assert reactions[0].reactants == ("shared",)
        assert reactions[0].products == ("m3",)

    def test_assignment_matches_brute_force_random(self):
        rng = random.Random(1234)
        config = ReasoningConfig()
        for _ in range(150):
            n_arrows = rng.randint(1, 3)
            n_entities = rng.randint(1, 8)
            entities = []
            arrow_ids = []
            x = 0
            for a in range(n_arrows):
                arrow_ids.append(f"a{a}")
                entities.append(arrow_entity(f"a{a}", x + 40, 150, x + 240))
                x += 300
            entity_ids = []
            for e in range(n_entities):
                entity_ids.append(f"e{e}")
                entities.append(molecule_entity(f"e{e}", (e % 5) * 260, 320 + (e // 5) * 140))
            doc = make_doc(entities, width=3000, height=900)
            edges = []
            affinity = {}
            for entity_id in entity_ids:
                for arrow_id in arrow_ids:
                    if rng.random() < 0.6:
                        score = round(rng.uniform(0.05, 1.0), 6)
                        relation = rng.choice(
                            [EdgeRelation.REACTANT_TO_ARROW, EdgeRelation.ARROW_TO_PRODUCT, EdgeRelation.NO_EDGE]
                        )
                        if relation == EdgeRelation.REACTANT_TO_ARROW:
                            edges.append(typed(entity_id, arrow_id, relation, score))
                        elif relation == EdgeRelation.ARROW_TO_PRODUCT:
                            edges.append(typed(arrow_id, entity_id, relation, score))
                        else:
                            edges.append(untyped(entity_id, arrow_id, score))
                        affinity.setdefault(entity_id, {})
                        affinity[entity_id][arrow_id] = affinity[entity_id].get(arrow_id, 0.0) + score
            fused = fused_graph(doc, edges)
            component = sorted(set(arrow_ids) | set(affinity))
            _, total = component_assignment(component, fused, doc, config)
            expected = brute_force_assignment(sorted(affinity), arrow_ids, affinity)
            assert total == pytest.approx(expected, abs=1e-9)

    def test_exhaustive_and_greedy_differ_on_an_exact_rounded_tie(self):
        # both totals round to 1.3: exhaustive keeps b -> x, the first in product order;
        # greedy takes b's own best arrow, y
        affinity = {"a": {"x": 1.0, "y": 0.2}, "b": {"x": 0.3, "y": math.nextafter(0.3, 1)}}
        exhaustive = _best_assignment(affinity, 2, ReasoningConfig())
        greedy = _best_assignment(affinity, 2, ReasoningConfig(exact_search_limit=1))
        assert exhaustive == {"a": "x", "b": "x"}
        assert greedy == {"a": "x", "b": "y"}
        totals = [sum(affinity[e][a] for e, a in assigned.items()) for assigned in (exhaustive, greedy)]
        assert totals == [1.3, 1.3]


class TestArrowless:
    def test_reactant_to_product_chain_splits(self):
        doc = make_doc(
            [
                molecule_entity("m1", 0, 100, smiles="CCO"),
                molecule_entity("m2", 300, 100, smiles="C=C"),
                molecule_entity("m3", 600, 100, smiles="CC"),
            ]
        )
        edges = [
            typed("m1", "m2", EdgeRelation.REACTANT_TO_PRODUCT, 0.9),
            typed("m2", "m3", EdgeRelation.REACTANT_TO_PRODUCT, 0.8),
        ]
        reactions = infer_reactions(fused_graph(doc, edges), doc, ReasoningConfig())
        assert len(reactions) == 2
        pairs = {(r.reactants, r.products) for r in reactions}
        assert (("m1",), ("m2",)) in pairs
        assert (("m2",), ("m3",)) in pairs

    def test_shared_source_groups(self):
        doc = make_doc(
            [
                molecule_entity("m1", 0, 100, smiles="CCO"),
                molecule_entity("p1", 300, 100, smiles="C=C"),
                molecule_entity("p2", 600, 100, smiles="CC"),
            ]
        )
        edges = [
            typed("m1", "p1", EdgeRelation.REACTANT_TO_PRODUCT, 0.9),
            typed("m1", "p2", EdgeRelation.REACTANT_TO_PRODUCT, 0.8),
        ]
        reactions = infer_reactions(fused_graph(doc, edges), doc, ReasoningConfig())
        assert len(reactions) == 1
        assert reactions[0].reactants == ("m1",)
        assert set(reactions[0].products) == {"p1", "p2"}

    def test_entity_on_both_sides_stays_a_reactant_and_takes_no_product_condition(self):
        doc = make_doc(
            [
                molecule_entity("a", 0, 100, smiles="CCO"),
                molecule_entity("b", 300, 100, smiles="C=C"),
                molecule_entity("c", 600, 100, smiles="CC"),
                text_entity("t", 0, 400, "heat"),
                text_entity("u", 300, 400, "THF"),
            ]
        )
        edges = [
            typed("a", "b", EdgeRelation.REACTANT_TO_PRODUCT, 0.9),
            typed("c", "b", EdgeRelation.REACTANT_TO_PRODUCT, 0.8),
            typed("c", "a", EdgeRelation.REACTANT_TO_PRODUCT, 0.7),
            typed("t", "a", EdgeRelation.COND_TO_PRODUCT, 0.6),
            typed("u", "b", EdgeRelation.COND_TO_PRODUCT, 0.5),
        ]
        (reaction,) = infer_reactions(fused_graph(doc, edges), doc, ReasoningConfig())
        assert (reaction.reactants, reaction.products, reaction.conditions) == (("a", "c"), ("b",), ("u",))

    def test_structural_only_component_yields_nothing(self):
        doc = make_doc(
            [
                molecule_entity("m1", 0, 100, smiles="CCO"),
                molecule_entity("m2", 300, 100, smiles="C=C"),
            ]
        )
        edges = [untyped("m1", "m2", 0.9)]
        assert infer_reactions(fused_graph(doc, edges), doc, ReasoningConfig()) == []


class TestComponents:
    def test_component_split(self, linear_doc):
        edges = [
            typed("m1", "a1", EdgeRelation.REACTANT_TO_ARROW, 0.9),
        ]
        fused = fused_graph(linear_doc, edges)
        components = connected_components(fused)
        assert components == [["a1", "m1"]]

    def test_no_edges_no_components(self, linear_doc):
        assert connected_components(fused_graph(linear_doc, [])) == []


def test_inference_deterministic(linear_doc):
    edges = [
        typed("m1", "a1", EdgeRelation.REACTANT_TO_ARROW, 0.9),
        typed("a1", "m2", EdgeRelation.ARROW_TO_PRODUCT, 0.9),
        typed("m1", "t1", EdgeRelation.REACTANT_TO_COND, 0.8),
    ]
    config = ReasoningConfig()
    first = infer_reactions(fused_graph(linear_doc, edges), linear_doc, config)
    second = infer_reactions(fused_graph(linear_doc, edges), linear_doc, config)
    assert first == second
