import math

import pytest

from rxnparse.config import ReasoningConfig
from rxnparse.reasoning.chemgraph import NEUTRAL_CHEM_SCORE, build_chem_graph, chem_pair_score
from rxnparse.reasoning.clustering import cluster_entities

from helpers import make_doc, molecule_entity, text_entity


class TestChemGraph:
    def test_identical_molecules_score_one(self):
        doc = make_doc(
            [
                molecule_entity("m1", 0, 0, smiles="CCO"),
                molecule_entity("m2", 300, 0, smiles="CCO"),
            ]
        )
        graph = build_chem_graph(doc, ReasoningConfig())
        assert graph.scores[("m1", "m2")] == pytest.approx(1.0)

    def test_disjoint_fingerprints_floor(self):
        # score collapses to (1 - beta) when tanimoto = 0 and charges agree
        assert chem_pair_score(0.0, 0, beta=0.7) == pytest.approx(0.3)

    def test_large_charge_gap_limit(self):
        assert chem_pair_score(1.0, 50, beta=0.7) == pytest.approx(0.7, abs=1e-6)

    def test_formula(self):
        expected = 0.7 * 0.4 + 0.3 * math.exp(-2)
        assert chem_pair_score(0.4, 2, beta=0.7) == pytest.approx(expected)

    def test_unparsed_smiles_gets_neutral(self):
        doc = make_doc(
            [
                molecule_entity("good", 0, 0, smiles="CCO"),
                molecule_entity("bad", 300, 0, smiles="C1CC"),
                molecule_entity("none", 600, 0),
            ]
        )
        graph = build_chem_graph(doc, ReasoningConfig())
        assert graph.scores[("bad", "good")] == NEUTRAL_CHEM_SCORE
        assert graph.scores[("good", "none")] == NEUTRAL_CHEM_SCORE

    def test_threshold_prunes(self):
        doc = make_doc(
            [
                molecule_entity("m1", 0, 0, smiles="CCO"),
                molecule_entity("m2", 300, 0, smiles="CCO"),
            ]
        )
        graph = build_chem_graph(doc, ReasoningConfig(tau_chem=1.0))
        assert graph.scores == {}

    def test_non_molecules_excluded(self):
        doc = make_doc(
            [
                molecule_entity("m1", 0, 0, smiles="CCO"),
                text_entity("t1", 300, 0),
            ]
        )
        graph = build_chem_graph(doc, ReasoningConfig())
        assert graph.scores == {}


class TestClustering:
    def test_chain_is_one_cluster(self):
        # pairwise neighbours under the threshold chain transitively
        doc = make_doc(
            [
                molecule_entity("a", 0, 0, w=10, h=10),
                molecule_entity("b", 300, 0, w=10, h=10),
                molecule_entity("c", 600, 0, w=10, h=10),
            ],
            width=1000,
            height=100,
        )
        config = ReasoningConfig(tau_cluster=0.35)
        clusters = cluster_entities(doc, config)
        # diagonal ~1005: 300/1005 = 0.30 < 0.35 but 600/1005 = 0.60 > 0.35
        assert len(clusters) == 1
        assert set(clusters[0]) == {"a", "b", "c"}

    def test_separated_groups_split(self):
        doc = make_doc(
            [
                molecule_entity("a", 0, 0, w=10, h=10),
                molecule_entity("b", 80, 0, w=10, h=10),
                molecule_entity("x", 900, 0, w=10, h=10),
                molecule_entity("y", 980, 0, w=10, h=10),
            ],
            width=1000,
            height=100,
        )
        clusters = cluster_entities(doc, ReasoningConfig(tau_cluster=0.2))
        assert len(clusters) == 2
        assert set(clusters[0]) == {"a", "b"}
        assert set(clusters[1]) == {"x", "y"}

    def test_all_close_single_cluster(self):
        doc = make_doc(
            [molecule_entity(f"m{i}", i * 20, 0, w=10, h=10) for i in range(5)],
            width=1000,
            height=1000,
        )
        clusters = cluster_entities(doc, ReasoningConfig())
        assert len(clusters) == 1

    def test_empty_document(self):
        assert cluster_entities(make_doc([]), ReasoningConfig()) == ()

    def test_deterministic_order(self):
        doc = make_doc(
            [
                molecule_entity("south", 0, 800, w=10, h=10),
                molecule_entity("north", 0, 0, w=10, h=10),
            ],
            width=2000,
            height=1000,
        )
        clusters = cluster_entities(doc, ReasoningConfig(tau_cluster=0.05))
        assert clusters == (("north",), ("south",))
