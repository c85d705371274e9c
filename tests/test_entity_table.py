"""The per-document entity table and the reasoning layers reading it, against the per-layer oracles.

Every layer reads ids, kinds, centroids and the one centroid-distance
matrix from ``doc.table``; the references in ``helpers`` recompute each
layer from the entities pair by pair, and floats are compared by
``float.hex``. Documents put entities on a quarter-unit grid, so every
distance is exact, with shared centres, and some put centres a tiny
offset apart, so the squared offsets underflow and the distances come
from ``np.hypot``. Chemistry and fusion are compared with their oracles
in ``test_reasoning_arrays``."""

import pickle
import random
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rxnparse.geometry
from rxnparse.agents import AgentClient
from rxnparse.config import ReasoningConfig
from rxnparse.entities import load_document
from rxnparse.geometry import centroid_distances
from rxnparse.pipeline import PipelineConfig, run_document
from rxnparse.reactions import Reaction, parse_combiner_response, reactions_to_json
from rxnparse.reasoning import (
    EdgeRelation,
    HypothesisEdge,
    HypothesisGraph,
    SpatialWeights,
    build_chem_graph,
    build_spatial_graph,
    cluster_entities,
    cluster_prompt_variables,
    collect_hypotheses,
    fuse,
    propagate,
    random_weights,
)
from rxnparse.reasoning.spatial import BASE_NODE_DIMS

from helpers import (
    fusion_config,
    make_doc,
    molecule_entity,
    reference_array_propagate,
    reference_cluster_entities,
    reference_cluster_prompt_variables,
    reference_distances,
    reference_edge_sums,
    reference_fuse,
    reference_node_features,
    reference_propagate,
    reference_spatial_edges,
    spatial_graph,
    summed_edge_features,
)
from synthetic import _multiple_line
from test_reasoning_arrays import documents

TINY = (0.0, 1e-160, 3e-160, 2.5e-300, 5e-324, 1e-155)  # centroid coordinates whose squared offsets underflow
LABELS = ("molecule", "text", "identifier", "molecule")


@st.composite
def tiny_offset_documents(draw):
    """Boxes ``[0, 0, 2t, 2t]`` centred on ``(t, t)`` for tiny ``t``, beside a few ordinary boxes."""
    entities = []
    for k in range(draw(st.integers(0, 6))):
        t = draw(st.sampled_from(TINY))
        entities.append({"id": f"t{k}", "label": draw(st.sampled_from(LABELS)), "bbox": [0, 0, 2 * t, 2 * t]})
    for k in range(draw(st.integers(0, 3))):
        x, y = draw(st.integers(0, 1300)), draw(st.integers(0, 300))
        entities.append({"id": f"o{k}", "label": draw(st.sampled_from(LABELS)), "bbox": [x, y, x + 50, y + 40]})
    for entity in entities:
        if entity["label"] == "molecule" and draw(st.booleans()):
            entity["smiles"] = draw(st.sampled_from(["CCO", "c1ccccc1", "[NH4+]"]))
        elif entity["label"] != "molecule":
            entity["text"] = "x"
    return make_doc(entities)


any_documents = st.one_of(documents(), tiny_offset_documents())
_TWINS_AND_LONER = make_doc([
    molecule_entity("a", 100, 100, smiles="CCO"),
    {"id": "b", "label": "text", "bbox": [110, 130, 210, 160], "text": "x"},  # the molecule's centroid
    {"id": "c", "label": "identifier", "bbox": [1300, 300, 1340, 330], "text": "1"},
])


def _hex(array) -> list:
    return [float(v).hex() for v in np.asarray(array).ravel()]


def test_tiny_offsets_take_the_hypot_path():
    doc = make_doc([{"id": "a", "label": "text", "bbox": [0, 0, 2e-160, 2e-160], "text": "x"},
                    {"id": "b", "label": "text", "bbox": [0, 0, 0, 0], "text": "y"}])
    (x0, y0), (x1, y1) = doc.table.centroids
    assert (x1 - x0) ** 2 < np.finfo(float).tiny and doc.table.distances[0, 1] > 0.0
    assert _hex(doc.table.distances) == _hex(reference_distances(doc))


@settings(max_examples=200, deadline=None)
@given(
    doc=any_documents,
    k_nn=st.integers(0, 6),
    radius=st.sampled_from([0.0, 0.1, 0.25, 1.0]),
    dim=st.sampled_from([BASE_NODE_DIMS, 32]),
)
@example(doc=make_doc([]), k_nn=4, radius=0.25, dim=32)
@example(doc=make_doc([molecule_entity("m", 10, 10, smiles="CCO")]), k_nn=6, radius=1.0, dim=32)
@example(doc=_TWINS_AND_LONER, k_nn=0, radius=0.0, dim=32)  # duplicate centroids linked, one isolated node
@example(doc=_TWINS_AND_LONER, k_nn=6, radius=0.0, dim=BASE_NODE_DIMS)
def test_table_and_spatial_features_and_edges_equal_reference(doc, k_nn, radius, dim):
    table = doc.table
    assert table.ids == tuple(e.id for e in doc.entities)
    assert [table.sorted_ids[r] for r in table.ranks] == list(table.ids)
    assert _hex(table.distances) == _hex(reference_distances(doc))
    assert _hex(table.distances) == _hex(centroid_distances([e.centroid for e in doc.entities], doc.diagram_bounds))

    config = ReasoningConfig(k_nn=k_nn, radius=radius)
    graph = build_spatial_graph(doc, config, random_weights(2, dim))
    assert _hex(graph.features) == _hex(reference_node_features(doc, dim))
    edges, _ = reference_spatial_edges(doc, config)
    assert graph.edges == edges
    assert _hex(graph.adjacency) == _hex(_adjacency_of(len(doc.entities), edges))
    assert _hex(graph.edge_sums) == _hex(reference_edge_sums(doc, edges))
    result = propagate(graph)
    expected_features, expected_values = reference_array_propagate(graph, reference_edge_sums(doc, edges))
    assert _hex(result.features) == _hex(expected_features)
    assert _hex(result.values) == _hex(expected_values)


def _adjacency_of(n, edges):
    adjacency = np.zeros((n, n))
    for i, j in edges:
        adjacency[i, j] = adjacency[j, i] = 1.0
    return adjacency


@settings(max_examples=200, deadline=None)
@given(doc=any_documents, tau=st.sampled_from([0.0, 0.1, 0.35, 1.0]), data=st.data())
def test_clusters_and_prompts_of_random_subsets_equal_reference(doc, tau, data):
    """Clusters, and prompts of clusters and of random id subsets in any order (the subset reads a submatrix
    and the document's kNN links)."""
    config = ReasoningConfig(tau_cluster=tau, k_nn=data.draw(st.integers(0, 6)))
    clusters = cluster_entities(doc, config)
    assert clusters == reference_cluster_entities(doc, config)
    ids = [e.id for e in doc.entities]
    subsets = [tuple(data.draw(st.permutations(ids))[: data.draw(st.integers(0, len(ids)))]) for _ in range(3)]
    for cluster in clusters + tuple(subsets):
        expected = reference_cluster_prompt_variables(cluster, doc, config)
        assert cluster_prompt_variables(cluster, doc, config) == expected


DYADIC = st.sampled_from([-1.0, -0.5, 0.0, 0.25, 0.5, 1.0])


@settings(max_examples=150, deadline=None)
@given(data=st.data(), n=st.integers(1, 6), layers=st.integers(1, 3), dim=st.integers(1, 4))
def test_propagate_of_dyadic_graphs_equals_per_edge_loop(data, n, layers, dim):
    """Dyadic features, edge features and weights keep every sum exact, so the per-edge loop agrees bit for bit."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = sorted(data.draw(st.lists(st.sampled_from(pairs), unique=True))) if pairs else []

    def matrix(rows, cols):
        return np.array(data.draw(st.lists(DYADIC, min_size=rows * cols, max_size=rows * cols))).reshape(rows, cols)

    weights = SpatialWeights(
        w1=tuple(matrix(dim, dim) for _ in range(layers)), w2=tuple(matrix(dim, 20) for _ in range(layers))
    )
    directed = sorted(edges + [(j, i) for i, j in edges])
    edge_features = dict(zip(directed, matrix(len(directed), 20)))
    graph = spatial_graph([f"n{k}" for k in range(n)], matrix(n, dim), edges, weights, summed_edge_features(n, edge_features))
    result = propagate(graph)
    features, scores = reference_propagate(graph, edge_features)
    assert _hex(result.features) == _hex(features)
    assert result.edges == tuple(scores)
    assert _hex(result.values) == _hex(list(scores.values()))


def test_document_without_molecules():
    doc = make_doc([
        {"id": "t1", "label": "text", "bbox": [0, 0, 50, 20], "text": "a"},
        {"id": "t2", "label": "text", "bbox": [60, 0, 110, 20], "text": "b"},
        {"id": "i1", "label": "identifier", "bbox": [0, 30, 20, 50], "text": "1"},
    ])
    config = ReasoningConfig()
    chem = build_chem_graph(doc, config)
    assert chem.scores == {} and chem.rows.size == chem.cols.size == chem.values.size == 0
    spatial = propagate(build_spatial_graph(doc, config))
    hypotheses = HypothesisGraph(edges=(HypothesisEdge("t1", "t2", EdgeRelation.REACTANT_TO_PRODUCT),))
    config = fusion_config((0.3, 0.2, 0.5), 0.0)
    assert fuse(spatial, chem, hypotheses, config) == reference_fuse(spatial, chem, hypotheses, config)


# --- one table per document ------------------------------------------------------


class _EmptyReplies(AgentClient):
    def _send(self, role, prompt, image, key):
        return "[]"


@pytest.fixture
def distance_calls(monkeypatch):
    """The number of points of each ``centroid_distances`` call made in any ``rxnparse`` module."""
    calls = []

    def counting(points, diagram):
        calls.append(len(points))
        return centroid_distances(points, diagram)

    for name, module in list(sys.modules.items()):
        if name.startswith("rxnparse") and getattr(module, "centroid_distances", None) is centroid_distances:
            monkeypatch.setattr(module, "centroid_distances", counting)
    assert rxnparse.geometry.centroid_distances is counting
    return calls


def test_one_distance_matrix_per_document(distance_calls, tmp_path):
    """A whole reasoning pass over a two-cluster document computes the centroid distances once."""
    calls = distance_calls
    detection, _ = _multiple_line(random.Random(0), 0)
    doc = load_document(detection)
    config = PipelineConfig(fixtures_dir=str(tmp_path), output_dir=str(tmp_path / "out"))
    assert len(cluster_entities(doc, config.reasoning)) > 1
    calls.clear()  # nothing holds that table any more, so the pass below builds its own
    stages = {}
    run_document(doc, config, _EmptyReplies(), timings=stages)
    assert "reason" in stages
    assert calls == [len(doc.entities)]


def test_hypotheses_of_every_cluster_share_one_table(distance_calls, tmp_path):
    """Collecting hypotheses with no graph holding the table still builds it once for all clusters."""
    detection, _ = _multiple_line(random.Random(0), 0)
    doc = load_document(detection)
    config = ReasoningConfig()
    clusters = cluster_entities(doc, config)
    assert len(clusters) > 1
    distance_calls.clear()
    collect_hypotheses(clusters, _EmptyReplies(), doc, config)
    assert distance_calls == [len(doc.entities)]


def test_reply_grounded_on_a_table_nobody_holds_builds_no_distance_matrix(distance_calls):
    """Grounding a combiner reply reads the table's bounds and hulls only, so it computes no centroid distances."""
    detection, truth = _multiple_line(random.Random(0), 0)
    doc = load_document(detection)
    reactions = [
        Reaction(tuple(r["reactants"]), tuple(r["products"]), tuple(r["conditions"]), tuple(r["arrow"])) for r in truth
    ]
    parsed = parse_combiner_response(reactions_to_json(reactions, doc), doc)
    assert [(r.reactants, r.products, r.arrows) for r in parsed] == [(r.reactants, r.products, r.arrows) for r in reactions]
    assert distance_calls == [] and doc._table() is None


def test_table_arrays_are_read_only():
    detection, _ = _multiple_line(random.Random(0), 0)
    table = load_document(detection).table
    for name in ("ranks", "kinds", "centroids", "sizes", "areas", "distances"):
        array = getattr(table, name)
        with pytest.raises(ValueError):
            array[0] = array[0]


def test_document_keeps_its_table_while_a_reader_holds_it():
    """Documents kept after their pass (a batch's inputs, say) do not keep their distance matrices, and still pickle."""
    detection, _ = _multiple_line(random.Random(0), 0)
    doc = load_document(detection)
    table = doc.table
    assert doc.table is table and build_spatial_graph(doc, ReasoningConfig()).table is table
    copy = pickle.loads(pickle.dumps(doc))
    assert copy == doc and copy.table.ids == table.ids
    del table
    assert doc._table() is None
    assert doc.table.ids == tuple(e.id for e in doc.entities)
