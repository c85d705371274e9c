import json
import re

import numpy as np
import pytest

from rxnparse.config import ConfigError, ReasoningConfig
from rxnparse.reasoning.spatial import (
    BASE_NODE_DIMS,
    EDGE_DIMS,
    SpatialWeights,
    build_spatial_graph,
    load_weights,
    propagate,
    random_weights,
    save_weights,
)

from helpers import arrow_entity, make_doc, molecule_entity, spatial_graph, text_entity


def two_node_graph(w1, w2, h0, with_edge=True):
    """Hand-built graph: two nodes, optional single edge with zero features."""
    return spatial_graph(
        node_ids=("a", "b"),
        features=h0,
        edges=((0, 1),) if with_edge else (),
        weights=SpatialWeights(w1=(w1,), w2=(w2,)),
    )


class TestPropagation:
    def test_isolated_node_lands_on_zero(self):
        dim = 6
        weights = random_weights(3, dim, seed=3)
        graph = spatial_graph(node_ids=("solo",), features=np.ones((1, dim)), edges=(), weights=weights)
        result = propagate(graph)
        assert np.all(result.features == 0.0)

    def test_zero_weights_give_neutral_scores(self):
        doc = make_doc(
            [
                molecule_entity("m1", 0, 0, smiles="CCO"),
                molecule_entity("m2", 300, 0, smiles="C=C"),
                text_entity("t", 150, 10),
            ]
        )
        zero = SpatialWeights(w1=(np.zeros((32, 32)),) * 2, w2=(np.zeros((32, EDGE_DIMS)),) * 2)
        graph = propagate(build_spatial_graph(doc, ReasoningConfig(), zero))
        assert np.all(graph.features == 0.0)
        assert graph.values.size
        assert all(s == 0.5 for s in graph.values.tolist())

    def test_two_node_hand_case(self):
        dim = 4
        h0 = np.array([[1.0, 0.0, 2.0, 0.5], [1.0, 0.0, 2.0, 0.5]])
        w1 = np.eye(dim)
        w2 = np.zeros((dim, EDGE_DIMS))
        graph = propagate(two_node_graph(w1, w2, h0))
        # expected by direct evaluation: relu(I @ h_other + 0) = h_other
        assert np.allclose(graph.features, h0, atol=1e-12)
        assert graph.score_by_ids()[("a", "b")] == pytest.approx(1.0, abs=1e-12)

    def test_hand_case_matches_matrix_evaluation(self):
        rng = np.random.default_rng(0)
        dim = 4
        h0 = rng.normal(size=(2, dim))
        w1 = rng.normal(size=(dim, dim))
        w2 = rng.normal(size=(dim, EDGE_DIMS))
        graph = propagate(two_node_graph(w1, w2, h0))
        e = np.zeros(EDGE_DIMS)
        expected_0 = np.maximum(w1 @ h0[1] + w2 @ e, 0.0)
        expected_1 = np.maximum(w1 @ h0[0] + w2 @ e, 0.0)
        assert np.allclose(graph.features[0], expected_0, atol=1e-12)
        assert np.allclose(graph.features[1], expected_1, atol=1e-12)


class TestBuild:
    def test_single_entity_graph(self):
        doc = make_doc([molecule_entity("only", 100, 100)])
        graph = build_spatial_graph(doc, ReasoningConfig())
        assert graph.node_ids == ("only",)
        assert graph.edges == ()

    def test_identical_centroids_always_linked(self):
        doc = make_doc(
            [
                molecule_entity("m1", 100, 100),
                text_entity("t1", 110, 130, w=100, h=30),
            ]
        )
        # same centroid: molecule box (100..220, 100..190) center (160,145); text matches
        graph = build_spatial_graph(doc, ReasoningConfig(k_nn=0))
        assert (0, 1) in graph.edges

    def test_knn_on_collinear_entities(self):
        entities = [molecule_entity(f"m{i}", i * 900, 0, w=50, h=50) for i in range(5)]
        doc = make_doc(entities, width=4600, height=100)
        config = ReasoningConfig(k_nn=2, radius=0.0)
        graph = build_spatial_graph(doc, config)
        ids = graph.node_ids
        adjacency = {i: set() for i in range(5)}
        for i, j in graph.edges:
            adjacency[i].add(j)
            adjacency[j].add(i)
        # brute-force 2-NN: each node must be linked to its two nearest
        positions = [doc.entity(e).centroid for e in ids]
        for i in range(5):
            dists = sorted(
                (abs(positions[j][0] - positions[i][0]), j) for j in range(5) if j != i
            )
            nearest = {j for _, j in dists[:2]}
            assert nearest <= adjacency[i]

    def test_dim_too_small_rejected(self, tmp_path):
        """A weights file narrower than the fixed node features is refused where it is loaded."""
        path = tmp_path / "weights.json"
        save_weights(random_weights(1, BASE_NODE_DIMS), path)
        assert load_weights(path).dim == BASE_NODE_DIMS
        save_weights(random_weights(1, BASE_NODE_DIMS - 1), path)
        with pytest.raises(ConfigError, match=re.escape(f"weights file {path} has dim {BASE_NODE_DIMS - 1}, below")):
            load_weights(path)

    def test_narrow_weights_are_refused_before_the_features(self, monkeypatch):
        """In-memory weights narrower than the node features are a ConfigError before any document array is
        made; narrow weights still serve graphs built by hand."""
        doc = make_doc([molecule_entity("m1", 0, 0), molecule_entity("m2", 300, 0)])
        monkeypatch.setattr(type(doc), "table", property(lambda self: pytest.fail("the table was read")))
        message = f"spatial weights have dim 12, below the {BASE_NODE_DIMS} node features"
        with pytest.raises(ConfigError, match=re.escape(message)):
            build_spatial_graph(doc, ReasoningConfig(), random_weights(1, 12))


class TestWeightsIO:
    def test_save_load_roundtrip(self, tmp_path):
        weights = random_weights(2, 32, seed=11)
        path = tmp_path / "weights.json"
        save_weights(weights, path)
        loaded = load_weights(path)
        assert loaded.layers == 2
        for a, b in zip(weights.w1, loaded.w1):
            assert np.allclose(a, b)
        for a, b in zip(weights.w2, loaded.w2):
            assert np.allclose(a, b)

    def test_malformed_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"weights": [{"W1": 3}]}')
        with pytest.raises(ConfigError):
            load_weights(path)

    @pytest.mark.parametrize(
        "content",
        [
            '{"weights": [{"W1": 3, "W2": 3}]}',
            '{"weights": [{"W1": [[1, 2], [3]], "W2": [[1]]}]}',
            '{"weights": [',
            '{"layers": 1, "dim": 1, "weights": []}',
        ],
        ids=["scalars", "ragged", "truncated", "no-layers"],
    )
    def test_malformed_file_is_a_config_error_naming_it(self, tmp_path, content):
        path = tmp_path / "bad.json"
        path.write_text(content)
        with pytest.raises(ConfigError, match="malformed weights file"):
            load_weights(path)

    @pytest.mark.parametrize("key, value", [("layers", 3), ("dim", 16)])
    def test_header_that_disagrees_with_the_matrices_is_a_config_error(self, tmp_path, key, value):
        path = tmp_path / "weights.json"
        save_weights(random_weights(2, 32), path)
        payload = json.loads(path.read_text())
        path.write_text(json.dumps({**payload, key: value}))
        with pytest.raises(ConfigError, match="disagrees with its own shape header"):
            load_weights(path)

    def test_unreadable_file_is_a_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="malformed weights file"):
            load_weights(tmp_path)  # a directory

    def test_shapes_checked_when_built(self):
        w1, w2 = np.zeros((4, 4)), np.zeros((4, EDGE_DIMS))
        for bad_w1, bad_w2, message in [
            ((), (), "non-empty"),
            ((w1, w1), (w2,), "matching"),
            ((w1, np.zeros((4, 3))), (w2, w2), "W1 must be 4x4, got (4, 3)"),
            ((w1,), (np.zeros((4, 5)),), f"W2 must be 4x{EDGE_DIMS}, got (4, 5)"),
        ]:
            with pytest.raises(ConfigError, match=re.escape(message)):
                SpatialWeights(w1=bad_w1, w2=bad_w2)

    def test_seeded_random_weights_reproducible(self):
        a = random_weights(2, 32, seed=5)
        b = random_weights(2, 32, seed=5)
        for x, y in zip(a.w1, b.w1):
            assert np.array_equal(x, y)


def test_scores_symmetric_by_ids():
    doc = make_doc(
        [
            molecule_entity("m1", 0, 0, smiles="CCO"),
            molecule_entity("m2", 200, 0, smiles="CCO"),
            arrow_entity("a", 130, 40, 190),
        ]
    )
    graph = propagate(build_spatial_graph(doc, ReasoningConfig()))
    for (a, b), value in graph.score_by_ids().items():
        assert a <= b
        assert 0.0 <= value <= 1.0
