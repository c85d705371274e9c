import dataclasses
import math

import pytest

from rxnparse.config import ReasoningConfig
from rxnparse.reasoning.chemgraph import build_chem_graph
from rxnparse.reasoning.clustering import cluster_entities
from rxnparse.reasoning.fusion import NEUTRAL_CHEM_SCORE, NEUTRAL_SPACE_SCORE, fuse, fuse_score
from rxnparse.reasoning.hypotheses import HypothesisEdge, HypothesisGraph
from rxnparse.reasoning.relations import EdgeRelation
from rxnparse.reasoning.spatial import build_spatial_graph

from helpers import make_doc, molecule_entity, text_entity


def chem_scores(doc, beta: float = 0.7) -> dict:
    """Every molecule pair's chemistry score: fusion can keep any pair at ``tau_fuse`` 0, so every pair is scored."""
    config = ReasoningConfig(beta=beta, tau_fuse=0.0)
    return build_chem_graph(doc, config, build_spatial_graph(doc, config), HypothesisGraph(edges=())).scores


def pair_score(smiles_a: str, smiles_b: str, beta: float = 0.7) -> float:
    doc = make_doc([molecule_entity("m1", 0, 0, smiles=smiles_a), molecule_entity("m2", 300, 0, smiles=smiles_b)])
    return chem_scores(doc, beta)[("m1", "m2")]


class TestChemGraph:
    def test_identical_molecules_score_one(self):
        doc = make_doc(
            [
                molecule_entity("m1", 0, 0, smiles="CCO"),
                molecule_entity("m2", 300, 0, smiles="CCO"),
            ]
        )
        assert chem_scores(doc)[("m1", "m2")] == pytest.approx(1.0)

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
        scores = chem_scores(doc)
        assert scores[("bad", "good")] == NEUTRAL_CHEM_SCORE
        assert scores[("good", "none")] == NEUTRAL_CHEM_SCORE

    def test_chemistry_prunes_a_typed_edge(self):
        """CCO -> [Fe+3] at confidence 0.5 under the defaults: Tanimoto 0 and a charge gap of 3 score about 0.015,
        which fuses at 0.403 with a neutral spatial score, below ``tau_fuse`` 0.45. Read as the neutral 0.5, the
        chemistry would fuse the edge at 0.5 and keep it."""
        doc = make_doc([molecule_entity("m1", 0, 0, smiles="CCO"), molecule_entity("m2", 300, 0, smiles="[Fe+3]")])
        config = ReasoningConfig()
        spatial = build_spatial_graph(doc, config)  # not propagated: the spatial channel reads neutral
        hypotheses = HypothesisGraph(edges=(HypothesisEdge("m1", "m2", EdgeRelation.REACTANT_TO_PRODUCT, 0.5),))
        chem = build_chem_graph(doc, config, spatial, hypotheses)
        s_chem = config.beta * 0.0 + (1.0 - config.beta) * math.exp(-3)
        assert chem.scores == {("m1", "m2"): s_chem}
        assert fuse(spatial, chem, hypotheses, config).edges == ()
        scored = fuse(spatial, chem, hypotheses, dataclasses.replace(config, tau_fuse=0.0)).edges
        assert [e.score for e in scored] == [fuse_score(NEUTRAL_SPACE_SCORE, s_chem, 0.5, config)]
        assert round(scored[0].score, 3) == 0.403

    def test_non_molecules_excluded(self):
        doc = make_doc(
            [
                molecule_entity("m1", 0, 0, smiles="CCO"),
                text_entity("t1", 300, 0),
            ]
        )
        assert chem_scores(doc) == {}


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
