import random

import numpy as np
import pytest

from rxnparse.config import ConfigError, ReasoningConfig
from rxnparse.reasoning.fusion import fuse, fuse_score
from rxnparse.reasoning.hypotheses import HypothesisEdge, HypothesisGraph
from rxnparse.reasoning.relations import EdgeRelation
from rxnparse.reasoning.spatial import build_spatial_graph, propagate, random_weights

from helpers import arrow_entity, chem_graph, fusion_config, make_doc, molecule_entity

UNIT_WEIGHTS = [fusion_config((1, 0, 0)), fusion_config((0, 1, 0)), fusion_config((0, 0, 1))]


def build_fused(doc, hypothesis_edges, tau=None):
    config = ReasoningConfig() if tau is None else ReasoningConfig(tau_fuse=tau)
    spatial = propagate(build_spatial_graph(doc, config, random_weights(seed=1)))
    chem = chem_graph(doc.table, {})
    return fuse(spatial, chem, HypothesisGraph(edges=tuple(hypothesis_edges)), config)


class TestFuseScore:
    def test_equal_weights_mean(self):
        weights = fusion_config((1 / 3, 1 / 3, 1 / 3))
        assert fuse_score(0.9, 0.6, 0.3, weights) == pytest.approx(0.6)

    def test_degenerate_weights_reproduce_channel(self):
        for index, weights in enumerate(UNIT_WEIGHTS):
            channels = (0.9, 0.4, 0.7)
            assert fuse_score(*channels, weights) == pytest.approx(channels[index])

    def test_invalid_weights(self):
        """The weights are checked once, by the ``ReasoningConfig`` fusion reads them from."""
        with pytest.raises(ConfigError, match="sum to 1"):
            fusion_config((0.5, 0.5, 0.5))
        with pytest.raises(ConfigError, match="non-negative"):
            fusion_config((-0.2, 0.7, 0.5))
        # a tiny numeric slack is fine
        fusion_config((0.3, 0.2, 0.5 + 1e-12))

    def test_monotone_in_each_channel(self):
        rng = random.Random(31)
        for _ in range(2000):
            raw = [rng.random() for _ in range(3)]
            total = sum(raw) or 1.0
            weights = fusion_config([v / total for v in raw])
            base = [rng.random() for _ in range(3)]
            score = fuse_score(*base, weights)
            for channel in range(3):
                bumped = list(base)
                bumped[channel] = min(1.0, bumped[channel] + rng.random() * 0.5)
                assert fuse_score(*bumped, weights) >= score - 1e-12

    def test_degenerate_weight_argsort_matches_channel(self):
        rng = random.Random(77)
        channels = [tuple(rng.random() for _ in range(3)) for _ in range(200)]
        for index, weights in enumerate(UNIT_WEIGHTS):
            fused = [fuse_score(*c, weights) for c in channels]
            by_channel = np.argsort([c[index] for c in channels], kind="stable")
            by_fused = np.argsort(fused, kind="stable")
            assert list(by_channel) == list(by_fused)


class TestFusedGraph:
    @pytest.fixture()
    def doc(self):
        return make_doc(
            [
                molecule_entity("m1", 0, 100, smiles="CCO"),
                molecule_entity("m2", 900, 100, smiles="C=C"),
                arrow_entity("a1", 450, 150, 850),
            ]
        )

    def test_hypothesis_edge_keeps_direction_and_relation(self, doc):
        edges = [
            HypothesisEdge("m1", "a1", EdgeRelation.REACTANT_TO_ARROW, 1.0),
            HypothesisEdge("a1", "m2", EdgeRelation.ARROW_TO_PRODUCT, 1.0),
        ]
        fused = build_fused(doc, edges)
        typed = {(e.source, e.target): e.relation for e in fused.edges if e.relation != EdgeRelation.NO_EDGE}
        assert typed[("m1", "a1")] == EdgeRelation.REACTANT_TO_ARROW
        assert typed[("a1", "m2")] == EdgeRelation.ARROW_TO_PRODUCT

    def test_structural_edges_tagged_no_edge(self, doc):
        fused = build_fused(doc, [], tau=0.0)
        assert fused.edges
        assert all(e.relation == EdgeRelation.NO_EDGE for e in fused.edges)
        assert all(e.s_init == 0.0 for e in fused.edges)

    def test_pruning_soundness(self, doc):
        tau = 0.45
        kept = build_fused(doc, [HypothesisEdge("m1", "a1", EdgeRelation.REACTANT_TO_ARROW, 1.0)], tau=tau)
        assert all(e.score > tau for e in kept.edges)

    def test_threshold_filter_example(self):
        # scores {0.6, 0.5, 0.7} against tau 0.55 keep exactly two edges
        weights = fusion_config((0, 0, 1))
        scores = [0.6, 0.5, 0.7]
        kept = [s for s in scores if fuse_score(0.5, 0.5, s, weights) > 0.55]
        assert len(kept) == 2

    def test_missing_channels_use_neutral_defaults(self, doc):
        # hypothesis edge on a pair the spatial graph never scored
        far_doc = make_doc(
            [
                molecule_entity("m1", 0, 0, smiles="CCO"),
                molecule_entity("m2", 100, 0, smiles="C=C"),
                molecule_entity("m3", 5000, 3000, smiles="CC"),
                molecule_entity("m4", 5100, 3000, smiles="CCC"),
            ],
            width=6000,
            height=3200,
        )
        config = ReasoningConfig(k_nn=1, radius=0.01)
        edges = [HypothesisEdge("m1", "m3", EdgeRelation.REACTANT_TO_PRODUCT, 1.0)]
        spatial = propagate(build_spatial_graph(far_doc, config, random_weights(seed=1)))
        assert ("m1", "m3") not in spatial.score_by_ids()
        chem = chem_graph(far_doc.table, {})
        fused = fuse(spatial, chem, HypothesisGraph(edges=tuple(edges)), fusion_config((0.3, 0.2, 0.5), 0.0))
        edge = next(e for e in fused.edges if e.relation == EdgeRelation.REACTANT_TO_PRODUCT)
        assert edge.s_space == 0.5
        assert edge.s_chem == 0.5
        assert edge.score == pytest.approx(0.3 * 0.5 + 0.2 * 0.5 + 0.5 * 1.0)
