"""The per-document distance matrix and everything built on it, against pairwise loops.

Documents place entities at centres on a quarter-unit grid drawn from a
small pool, so duplicate centroids and distance ties are common. On such
centroids the squared offsets are exact, and the vectorised distances
must equal the pairwise ``center_distance_normalized`` bit for bit; on arbitrary
floats they may differ in the last place, which one test bounds.
"""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rxnparse.config import ReasoningConfig
from rxnparse.geometry import AxisBox, centroid_distances
from rxnparse.reasoning import (
    EDGE_DIMS,
    EdgeRelation,
    FusedEdge,
    FusedGraph,
    build_spatial_graph,
    cluster_entities,
    cluster_prompt_variables,
    connected_components,
    propagate,
    random_weights,
)
from rxnparse.reasoning.clustering import connected_groups

from helpers import (
    center_distance_normalized,
    edge_feature_dict,
    make_doc,
    reference_cluster_entities,
    reference_cluster_prompt_variables,
    reference_connected_components,
    reference_distances,
    reference_propagate,
    reference_spatial_edges,
    reference_union_find_groups,
)

WIDTH, HEIGHT = 1400, 400
LABELS = ("molecule", "text", "identifier", "arrow")


def _entity(eid, label, cx, cy, half_w, half_h):
    if label == "arrow":
        bbox = [cx - half_w, cy - half_h, cx + half_w, cy - half_h, cx + half_w, cy + half_h, cx - half_w, cy + half_h]
        return {"id": eid, "label": label, "bbox": bbox, "direction": "forward"}
    return {"id": eid, "label": label, "bbox": [cx - half_w, cy - half_h, cx + half_w, cy + half_h]}


@st.composite
def entity_specs(draw, max_entities=12):
    """(label, cx, cy, half_w, half_h) tuples; centres repeat from a small pool."""
    n = draw(st.integers(0, max_entities))
    pool = draw(
        st.lists(
            st.tuples(st.integers(4 * 60, 4 * (WIDTH - 60)), st.integers(4 * 40, 4 * (HEIGHT - 40))),
            min_size=1,
            max_size=max(1, n // 2 + 1),
        )
    )
    specs = []
    for _ in range(n):
        qx, qy = draw(st.sampled_from(pool))
        specs.append(
            (draw(st.sampled_from(LABELS)), qx / 4, qy / 4, draw(st.integers(1, 60)), draw(st.integers(1, 40)))
        )
    return specs


def build_doc(specs):
    return make_doc([_entity(f"e{k:02d}", *spec) for k, spec in enumerate(specs)], width=WIDTH, height=HEIGHT)


radii = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
thresholds = st.one_of(st.sampled_from([0.0, 0.35, 1.0]), st.floats(0.0, 1.0))

_DUPLICATES = [("molecule", 300.5, 200.25, 50, 30), ("text", 300.5, 200.25, 20, 10), ("arrow", 300.5, 200.25, 40, 8)]


@settings(max_examples=150, deadline=None)
@given(specs=entity_specs())
@example(specs=[])
@example(specs=[("molecule", 700, 200, 50, 40)])
@example(specs=_DUPLICATES)
def test_distance_matrix_equals_pairwise_calls(specs):
    doc = build_doc(specs)
    centroids = [e.centroid for e in doc.entities]
    assert np.array_equal(centroid_distances(centroids, doc.diagram_bounds), reference_distances(doc))


coordinates = st.one_of(st.floats(0.0, WIDTH), st.floats(-1e300, 1e300))


@settings(max_examples=300, deadline=None)
@given(points=st.lists(st.tuples(coordinates, coordinates), max_size=10))
@example(points=[(0.0, 0.0), (0.0, 4.820824592183292e-280)])
@example(points=[(-1e300, 5.0), (1e300, 7.0)])
def test_distance_matrix_within_two_ulps_on_arbitrary_floats(points):
    bounds = AxisBox(0.0, 0.0, WIDTH, HEIGHT)
    matrix = centroid_distances(points, bounds)
    for i, a in enumerate(points):
        for j, b in enumerate(points):
            expected = center_distance_normalized(AxisBox(*a, *a), AxisBox(*b, *b), bounds)
            assert abs(matrix[i, j] - expected) <= 2 * math.ulp(expected)


@settings(max_examples=150, deadline=None)
@given(specs=entity_specs(), k_nn=st.integers(0, 14), radius=radii)
@example(specs=[], k_nn=4, radius=0.25)
@example(specs=[("text", 100, 100, 10, 10)], k_nn=4, radius=1.0)
@example(specs=_DUPLICATES, k_nn=1, radius=0.0)
@example(specs=_DUPLICATES, k_nn=5, radius=0.0)
def test_spatial_edges_and_features_equal_reference(specs, k_nn, radius):
    doc = build_doc(specs)
    config = ReasoningConfig(k_nn=k_nn, radius=radius)
    graph = build_spatial_graph(doc, config)
    edges, features = reference_spatial_edges(doc, config)
    assert graph.edges == edges
    assert graph.edge_features.shape == (2 * len(edges), EDGE_DIMS)
    rows = edge_feature_dict(graph)
    assert rows.keys() == features.keys()
    for pair, expected in features.items():
        assert np.array_equal(rows[pair], expected), pair


@settings(max_examples=80, deadline=None)
@given(specs=entity_specs(), k_nn=st.integers(0, 14), radius=radii, layers=st.integers(1, 3))
@example(specs=[], k_nn=4, radius=0.25, layers=2)
@example(specs=[("arrow", 100, 100, 30, 5)], k_nn=4, radius=0.25, layers=2)
@example(specs=_DUPLICATES, k_nn=4, radius=1.0, layers=2)
def test_propagation_matches_per_edge_loop(specs, k_nn, radius, layers):
    doc = build_doc(specs)
    graph = build_spatial_graph(doc, ReasoningConfig(k_nn=k_nn, radius=radius), random_weights(layers))
    result = propagate(graph)
    features, scores = reference_propagate(graph)
    assert result.features.shape == features.shape
    assert np.all(np.abs(result.features - features) <= 1e-12)
    result_scores = dict(zip(result.edges, result.values.tolist()))
    assert result_scores.keys() == scores.keys()
    for pair, value in scores.items():
        assert abs(result_scores[pair] - value) <= 1e-12


@settings(max_examples=150, deadline=None)
@given(specs=entity_specs(), tau=thresholds, k_nn=st.integers(0, 6))
@example(specs=[], tau=0.35, k_nn=4)
@example(specs=[("identifier", 50, 50, 5, 5)], tau=0.35, k_nn=4)
@example(specs=_DUPLICATES, tau=0.0, k_nn=4)
@example(specs=_DUPLICATES, tau=1.0, k_nn=1)
def test_clusters_complexity_and_prompts_equal_reference(specs, tau, k_nn):
    doc = build_doc(specs)
    config = ReasoningConfig(tau_cluster=tau, k_nn=k_nn)
    clusters = cluster_entities(doc, config)
    assert clusters == reference_cluster_entities(doc, config)
    everything = tuple(e.id for e in doc.entities)
    for cluster in clusters + (everything,):
        expected = reference_cluster_prompt_variables(cluster, doc, config)
        assert cluster_prompt_variables(cluster, doc, config) == expected


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(0, 15),
    pairs=st.lists(st.tuples(st.integers(0, 14), st.integers(0, 14)), max_size=30),
)
def test_connected_groups_equal_union_find(n, pairs):
    pairs = [(i, j) for i, j in pairs if i < n and j < n]
    adjacency = np.zeros((n, n), dtype=bool)
    for i, j in pairs:
        adjacency[i, j] = adjacency[j, i] = True
    assert connected_groups(adjacency) == reference_union_find_groups(n, pairs)


@st.composite
def fused_graphs(draw, max_nodes=14):
    """Fused graphs over ids whose string order differs from their index order.

    Edges repeat and come reversed; many nodes are isolated, and the edge
    set may be empty.
    """
    n = draw(st.integers(0, max_nodes))
    node_ids = tuple(draw(st.permutations([f"e{k}" for k in range(n)])))
    pairs = draw(st.lists(st.tuples(st.integers(0, max(n - 1, 0)), st.integers(0, max(n - 1, 0))), max_size=3 * n))
    relations = st.sampled_from(list(EdgeRelation))
    edges = []
    for i, j in pairs:
        edge = FusedEdge(node_ids[i], node_ids[j], draw(relations), 0.9, 0.5, 0.5, 1.0)
        edges.append(edge)
        if draw(st.booleans()):  # a duplicate, half of them reversed
            source, target = (edge.target, edge.source) if draw(st.booleans()) else (edge.source, edge.target)
            edges.append(FusedEdge(source, target, edge.relation, 0.8, 0.5, 0.5, 1.0))
    return FusedGraph(node_ids=node_ids, edges=tuple(edges))


@settings(max_examples=300, deadline=None)
@given(fused=fused_graphs())
@example(fused=FusedGraph((), ()))
@example(fused=FusedGraph(("b", "a", "c"), ()))
def test_connected_components_equal_depth_first_walk(fused):
    assert connected_components(fused) == reference_connected_components(fused)
