"""Chemistry, fusion and the combiner prompt over arrays, against their per-pair loops.

``build_chem_graph`` scores molecule pairs from packed fingerprints,
``fuse`` scores candidates from dense id-pair arrays, and
``cluster_prompt_variables`` writes its JSON from fragments. The
references in ``helpers`` are the per-pair loops they replaced: the
chemistry must give the same keys in the same order with bit-equal
floats, fusion the same edges with bit-equal floats, and the prompt the
same bytes. The prompt bytes are also pinned by hash, since the mock
fixtures are keyed by prompts built with the same function.
"""

import hashlib
import json
import logging
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rxnparse.config import ReasoningConfig
from rxnparse.entities import load_document
from rxnparse.reasoning import (
    EdgeRelation,
    HypothesisEdge,
    HypothesisGraph,
    build_chem_graph,
    build_spatial_graph,
    cluster_entities,
    cluster_prompt_variables,
    collect_hypotheses,
    fuse,
    propagate,
)
from rxnparse.reasoning import chemgraph as chemgraph_module
from rxnparse.reasoning import hypotheses as hypotheses_module

from helpers import (
    center_distance_normalized,
    fusion_config,
    make_doc,
    molecule_entity,
    reference_build_chem_graph,
    reference_chem_row_blocks,
    reference_cluster_prompt_variables,
    reference_fuse,
)
from synthetic import _multiple_line, grid_scheme

# ids whose string order differs from their index order, and ids that need JSON escapes
ID_POOL = ("m2", "m10", "m1", "a", "b10", "b9", 'q"1', "back\\slash", "é", "☃", "z")
SMILES_POOL = (
    "CCO", "CC", "c1ccccc1", "[NH4+]", "[O-]C(=O)C", "[Fe+3]", "[Cl-]", "[O-2]", "[Ca+2]",
    "[N+](=O)[O-]", "[Fe+12345678901234567890]", "C1CC", "xyz", None,
)
TEXTS = ("rt", 'H2O "wet"', "Pd\\C", "80 °C", "Ni/Al₂O₃", "")
LABELS = ("molecule", "molecule", "text", "identifier", "arrow")
QUARTER_TAUS = st.sampled_from([0.0, 0.25, 0.3, 0.5, 0.75, 1.0])


def _hex_items(scores: dict) -> list:
    return [(pair, value.hex()) for pair, value in scores.items()]


def _fused_hex(graph) -> list:
    return [
        (e.source, e.target, e.relation, e.score.hex(), e.s_space.hex(), e.s_chem.hex(), float(e.s_init).hex())
        for e in graph.edges
    ]


def _entity(eid, label, cx, cy, draw):
    """An entity centred on a quarter-unit grid, so every distance is exact."""
    half_w, half_h = draw(st.integers(1, 60)), draw(st.integers(1, 40))
    if label == "arrow":
        bbox = [cx - half_w, cy - half_h, cx + half_w, cy - half_h, cx + half_w, cy + half_h, cx - half_w, cy + half_h]
        return {"id": eid, "label": label, "bbox": bbox, "direction": "forward"}
    entity = {"id": eid, "label": label, "bbox": [cx - half_w, cy - half_h, cx + half_w, cy + half_h]}
    if label == "molecule":
        smiles = draw(st.sampled_from(SMILES_POOL))
        if smiles is not None:
            entity["smiles"] = smiles
    else:
        entity["text"] = draw(st.sampled_from(TEXTS))
    return entity


@st.composite
def documents(draw, max_entities=11):
    """Documents on a quarter-unit grid whose centres repeat; some molecules get an all-zero fingerprint.

    Half the time the diagram is a million units wide, so a quarter-unit
    offset normalises below 5e-7 and its weight rounds to 1.0.
    """
    ids = draw(st.lists(st.sampled_from(ID_POOL), max_size=max_entities, unique=True))
    width, height = draw(st.sampled_from([(1400, 400), (1_000_000, 1_000_000)]))
    pool = draw(
        st.lists(
            st.tuples(st.integers(4 * 60, 4 * 1340), st.integers(4 * 40, 4 * 360)),
            min_size=1,
            max_size=max(1, len(ids) // 2 + 1),
        )
    )
    entities = []
    for eid in ids:
        qx, qy = draw(st.sampled_from(pool))
        if width > 1400 and draw(st.booleans()):
            qx += 1  # a quarter unit off a shared centre
        entities.append(_entity(eid, draw(st.sampled_from(LABELS)), qx / 4, qy / 4, draw))
    doc = make_doc(entities, width=width, height=height)
    for entity in doc.entities:
        if entity.molecule is not None and draw(st.booleans()):
            # no molecule hashes to zero bits; seed the cached value to reach the empty union
            entity.molecule.__dict__["fingerprint"] = 0
    return doc


# --- chemistry ------------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(
    doc=documents(),
    beta=st.one_of(st.sampled_from([0.0, 0.5, 0.7, 1.0]), st.floats(0.0, 1.0)),
    tau=st.one_of(QUARTER_TAUS, st.floats(0.0, 1.0)),
)
def test_chem_graph_equals_pairwise_loop(doc, beta, tau):
    config = ReasoningConfig(beta=beta, tau_chem=tau)
    chem, expected = build_chem_graph(doc, config), reference_build_chem_graph(doc, config)
    assert _hex_items(chem.scores) == _hex_items(expected.scores)
    assert np.all(chem.rows < chem.cols)  # entity positions, each pair once


def _molecules(*smiles):
    return make_doc(
        [
            {"id": f"m{k}", "label": "molecule", "bbox": [10 + 200 * k, 10, 100 + 200 * k, 90], "smiles": s}
            for k, s in enumerate(smiles)
        ]
    )


def test_chem_graph_with_zero_one_and_two_molecules():
    config = ReasoningConfig(beta=0.5, tau_chem=0.5)
    for smiles in ((), ("CCO",), ("CCO", "[O-]C(=O)C"), ("CCO", "CCO"), ("CCO", "C1CC")):
        doc = _molecules(*smiles)
        assert _hex_items(build_chem_graph(doc, config).scores) == _hex_items(
            reference_build_chem_graph(doc, config).scores
        )
    # identical molecules score 0.5 * 1 + 0.5 * exp(0) = 1.0; an unparsed pair's neutral 0.5 sits on tau
    assert build_chem_graph(_molecules("CCO", "CCO"), config).scores == {("m0", "m1"): 1.0}
    assert build_chem_graph(_molecules("CCO", "C1CC"), config).scores == {}


@settings(max_examples=100, deadline=None)
@given(doc=documents(), beta=st.sampled_from([0.0, 0.5, 0.7, 1.0]), tau=QUARTER_TAUS)
def test_chem_graph_equals_row_block_arithmetic(doc, beta, tau):
    """The one-pass scores, and their row-major order, equal those of the pair matrix scored by row blocks."""
    config = ReasoningConfig(beta=beta, tau_chem=tau)
    chem, expected = build_chem_graph(doc, config), reference_chem_row_blocks(doc, config, block=3)
    assert chem.rows.tolist() == expected.rows.tolist() and chem.cols.tolist() == expected.cols.tolist()
    assert [v.hex() for v in chem.values.tolist()] == [v.hex() for v in expected.values.tolist()]


def test_chem_graph_of_hundreds_of_molecules():
    """300 molecules; ids m0..m299 sort apart from their index order."""
    rng = random.Random(8)
    entities = [
        molecule_entity(f"m{k}", 20 * (k % 60), 100 * (k // 60), smiles=rng.choice(SMILES_POOL), w=10, h=10)
        for k in range(300)
    ]
    doc = make_doc(entities, width=1400, height=600)
    for entity in doc.entities[::7]:
        if entity.molecule is not None:
            entity.molecule.__dict__["fingerprint"] = 0
    for tau in (0.5, 0.75, 0.9):
        config = ReasoningConfig(beta=0.5, tau_chem=tau)
        chem = build_chem_graph(doc, config)
        assert chem.scores
        assert _hex_items(chem.scores) == _hex_items(reference_build_chem_graph(doc, config).scores)
        assert _hex_items(chem.scores) == _hex_items(reference_chem_row_blocks(doc, config).scores)


def _molecule_grid(count: int, seed: int):
    """``count`` molecules, 60 to a row, each SMILES drawn from the pool."""
    rng = random.Random(seed)
    entities = [
        molecule_entity(f"m{k}", 20 * (k % 60), 100 * (k // 60), smiles=rng.choice(SMILES_POOL), w=10, h=10)
        for k in range(count)
    ]
    return make_doc(entities, width=1400, height=100 * (count // 60 + 1))


def _same_arrays(chem, expected) -> bool:
    return (
        chem.rows.tolist() == expected.rows.tolist() and chem.cols.tolist() == expected.cols.tolist()
        and [v.hex() for v in chem.values.tolist()] == [v.hex() for v in expected.values.tolist()]
    )


@pytest.mark.parametrize("block", [1, 2, 7, 45])
def test_pair_blocks_that_split_rows_anywhere_give_the_same_arrays(monkeypatch, block):
    """Blocks of a few pairs end inside rows and across them; rows, cols and values stay those of the row-block
    arithmetic, in the same order (12 molecules: 66 pairs)."""
    doc = _molecule_grid(12, seed=3)
    monkeypatch.setattr(chemgraph_module, "CHEM_PAIR_BLOCK", block)
    for tau in (0.0, 0.5, 0.75):
        config = ReasoningConfig(beta=0.5, tau_chem=tau)
        assert _same_arrays(build_chem_graph(doc, config), reference_chem_row_blocks(doc, config, block=5))


def test_chem_graph_of_800_molecules_stays_in_bounded_memory():
    """800 molecules make 319,600 pairs: scored all at once, the two (pairs, 32) uint64 fingerprint gathers
    alone would take about 160 MiB; in pair blocks the whole call stays under 32 MiB."""
    doc = _molecule_grid(800, seed=5)
    config = ReasoningConfig(beta=0.5, tau_chem=0.75)
    table = doc.table  # held: the table and every fingerprint are built before the measured call
    expected = reference_chem_row_blocks(doc, config)
    tracemalloc.start()
    try:
        chem = build_chem_graph(doc, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert chem.table is table and len(chem.values) > 0
    assert _same_arrays(chem, expected)
    assert peak < 32 * 2**20, f"peak {peak / 2**20:.1f} MiB"


# --- fusion ---------------------------------------------------------------------

# dyadic weights, and the default ones
WEIGHTS = st.sampled_from([(0.5, 0.25, 0.25), (0.25, 0.25, 0.5), (0.0, 0.5, 0.5), (0.3, 0.2, 0.5)])


@settings(max_examples=200, deadline=None)
@given(doc=documents(), weights=WEIGHTS, propagated=st.booleans(), data=st.data())
def test_fuse_of_real_graphs_equals_reference(doc, weights, propagated, data):
    """Spatial and chemistry graphs built from a document, typed edges either way round and repeated.

    ``tau_fuse`` is often one of the candidates' own scores, so a score lands exactly on it. A
    spatial graph not yet propagated has no scores and adds no spatial candidates.
    """
    config = ReasoningConfig(tau_chem=0.25)
    spatial = build_spatial_graph(doc, config)
    spatial = propagate(spatial) if propagated else spatial
    chem = build_chem_graph(doc, config)
    ids = [e.id for e in doc.entities]
    typed = []
    if len(ids) > 1:
        pairs = list(spatial.score_by_ids()) + list(chem.scores) + [tuple(data.draw(st.permutations(ids))[:2])]
        relations = [r for r in EdgeRelation if r != EdgeRelation.NO_EDGE]
        for _ in range(data.draw(st.integers(0, 8))):
            a, b = data.draw(st.sampled_from(pairs))
            source, target = (a, b) if data.draw(st.booleans()) else (b, a)
            edge = HypothesisEdge(
                source, target, data.draw(st.sampled_from(relations)), data.draw(st.sampled_from([0.0, 0.5, 0.75, 1.0]))
            )
            typed += [edge] * data.draw(st.integers(1, 2))
    hypotheses = HypothesisGraph(edges=tuple(typed))
    # every candidate scores above 0: alpha_chem > 0, and a chemistry score is 0.5 or above tau_chem
    everything = reference_fuse(spatial, chem, hypotheses, fusion_config(weights, 0.0)).edges
    config = fusion_config(weights, data.draw(st.sampled_from([e.score for e in everything])) if everything else 0.45)
    expected = reference_fuse(spatial, chem, hypotheses, config)
    fused = fuse(spatial, chem, hypotheses, config)
    assert _fused_hex(fused) == _fused_hex(expected)
    assert fused.node_ids == expected.node_ids


# --- the combiner prompt --------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(doc=documents(), data=st.data())
def test_prompt_bytes_equal_pairwise_loop(doc, data):
    """Byte-equal graph JSON for every cluster and for the whole document.

    ``tau_cluster`` is often a pair's own distance, so that pair ties and
    is left out; ``k_nn`` runs from no links to more than any document has.
    """
    entities = doc.entities
    pairs = [(a, b) for i, a in enumerate(entities) for b in entities[i + 1 :]]
    if pairs and data.draw(st.booleans()):
        a, b = data.draw(st.sampled_from(pairs))
        tau = min(1.0, center_distance_normalized(a.region, b.region, doc.diagram_bounds))
    else:
        tau = data.draw(st.one_of(st.sampled_from([0.0, 0.35, 1.0]), st.floats(0.0, 1.0)))
    config = ReasoningConfig(tau_cluster=tau, k_nn=data.draw(st.integers(0, 12)))
    for cluster in cluster_entities(doc, config) + (tuple(e.id for e in entities),):
        expected = reference_cluster_prompt_variables(cluster, doc, config)["graph_json"]
        assert cluster_prompt_variables(cluster, doc, config)["graph_json"] == expected


def test_prompt_weight_is_pythons_round():
    """The weight 0.9876565 rounds to 0.987657 under ``round``; ``np.round`` gives 0.987656.

    Both boxes start at x = 0, so their centres lie ``dx`` apart exactly,
    and the 3 x 4 diagram has diagonal 5.
    """
    dx = 0.06171749999999976
    doc = make_doc(
        [
            {"id": "b", "label": "molecule", "bbox": [0, 1, 4 * dx, 2]},
            {"id": "a", "label": "text", "bbox": [0, 1, 2 * dx, 2], "text": "ü"},
        ],
        width=3,
        height=4,
    )
    assert 1.0 - dx / 5 == 0.9876565
    graph_json = cluster_prompt_variables(("b", "a"), doc, ReasoningConfig())["graph_json"]
    assert '"weight": 0.987657}' in graph_json and '"text": "\\u00fc"' in graph_json
    assert graph_json == reference_cluster_prompt_variables(("b", "a"), doc, ReasoningConfig())["graph_json"]


# sha256 of each cluster's graph_json, computed with the per-pair dict loop and one json.dumps; the
# 4-entity clusters list every close pair, as before proximity edges were limited to kNN links
PINNED_GRAPH_JSON = {
    "grid_scheme(12, 3)": ["18f1ed02bfe9e87506ca2a34cab6d1cc1b4de8116386c7eb1adaf299035187d7"],
    "multiple_line": [
        "66eeb2037ca5615d9f3e11dc3c772583f42cc966a26f1b2117c9a9e266b3a737",
        "d9de6f5b886dbb5a52337d034945501f234603ef4ce144c9c8054f43f022a7e2",
    ],
}


def _pinned_documents():
    yield "grid_scheme(12, 3)", grid_scheme(12, 3)[0]
    yield "multiple_line", _multiple_line(random.Random(0), 0)[0]


def test_prompt_bytes_pinned():
    config = ReasoningConfig()
    for name, detection in _pinned_documents():
        doc = load_document(json.dumps(detection))
        digests = [
            hashlib.sha256(cluster_prompt_variables(c, doc, config)["graph_json"].encode()).hexdigest()
            for c in cluster_entities(doc, config)
        ]
        assert digests == PINNED_GRAPH_JSON[name], name


# --- prompt size warning --------------------------------------------------------


class _EmptyReplies:
    def request(self, role, variables):
        return "[]"


def test_large_prompt_logged_not_a_document_warning(monkeypatch, caplog):
    detection, _ = _multiple_line(random.Random(0), 0)
    doc = load_document(json.dumps(detection))
    config = ReasoningConfig()
    clusters = cluster_entities(doc, config)
    sizes = [len(cluster_prompt_variables(c, doc, config)["graph_json"]) for c in clusters]
    caplog.set_level(logging.WARNING, logger=hypotheses_module.__name__)

    monkeypatch.setattr(hypotheses_module, "PROMPT_WARN_BYTES", max(sizes))
    graph = collect_hypotheses(clusters, _EmptyReplies(), doc, config)
    assert graph.warnings == () and caplog.records == []

    monkeypatch.setattr(hypotheses_module, "PROMPT_WARN_BYTES", max(sizes) - 1)
    graph = collect_hypotheses(clusters, _EmptyReplies(), doc, config)
    assert graph.warnings == ()
    (record,) = caplog.records
    biggest = clusters[sizes.index(max(sizes))]
    assert record.levelno == logging.WARNING
    assert f"cluster {biggest[0]}..." in record.getMessage()
    assert f"{len(biggest)} entities" in record.getMessage() and f"{max(sizes)} bytes" in record.getMessage()


def test_large_grid_prompts_list_at_most_k_nn_edges_per_entity(caplog):
    """On a 208-entity grid every cluster prompt lists kNN links only, so none is logged as oversize."""
    detection, _ = grid_scheme(13, 4)
    doc = load_document(json.dumps(detection))
    assert len(doc.entities) >= 200
    config = ReasoningConfig()
    clusters = cluster_entities(doc, config)
    assert max(map(len, clusters)) >= 200
    for cluster in clusters:
        graph = json.loads(cluster_prompt_variables(cluster, doc, config)["graph_json"])
        assert len(graph["nodes"]) == len(cluster)
        assert len(graph["edges"]) <= config.k_nn * len(cluster)
    caplog.set_level(logging.WARNING, logger=hypotheses_module.__name__)
    graph = collect_hypotheses(clusters, _EmptyReplies(), doc, config)
    assert graph.warnings == () and caplog.records == []
