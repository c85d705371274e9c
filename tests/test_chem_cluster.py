import math

import pytest

from rxnparse.config import ReasoningConfig
from rxnparse.reasoning.chemgraph import NEUTRAL_CHEM_SCORE, build_chem_graph
from rxnparse.reasoning.clustering import cluster_entities

from helpers import make_doc, molecule_entity, text_entity


def pair_score(smiles_a: str, smiles_b: str, beta: float = 0.7) -> float:
    """The chemistry score of two molecules, with no threshold pruning it."""
    doc = make_doc([molecule_entity("m1", 0, 0, smiles=smiles_a), molecule_entity("m2", 300, 0, smiles=smiles_b)])
    return build_chem_graph(doc, ReasoningConfig(beta=beta, tau_chem=0.0)).scores[("m1", "m2")]


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
        assert pair_score("C", "O") == pytest.approx(0.3)

    def test_large_charge_gap_limit(self):
        # tanimoto 2/5; a charge gap of 50 leaves only beta * tanimoto
        assert pair_score("CC", "CC[N+50]") == pytest.approx(0.7 * 0.4, abs=1e-6)

    def test_formula(self):
        expected = 0.7 * 0.4 + 0.3 * math.exp(-2)
        assert pair_score("CC", "CC[N+2]") == pytest.approx(expected)

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
