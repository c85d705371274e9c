"""Chemistry, fusion and the combiner prompt over arrays, against their per-pair loops.

``build_chem_graph`` scores the molecule pairs fusion can keep from packed fingerprints,
``fuse`` scores candidates from dense id-pair arrays, and
``cluster_prompt_variables`` writes its JSON from fragments. The
references in ``helpers`` are the per-pair loops they replaced: the
chemistry must give the same keys in the same order with bit-equal
floats, fusion the same edges with bit-equal floats, and the prompt the
same bytes. The prompt bytes are also pinned by hash, since the mock
fixtures are keyed by prompts built with the same function.
"""

import dataclasses
import functools
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
from rxnparse.reasoning import chemgraph as chemgraph_module
from rxnparse.reasoning import hypotheses as hypotheses_module
from rxnparse.reasoning.chemgraph import build_chem_graph
from rxnparse.reasoning.clustering import cluster_entities
from rxnparse.reasoning.fusion import ABSENT_INIT_SCORE, NEUTRAL_CHEM_SCORE, NEUTRAL_SPACE_SCORE, fuse, fuse_score
from rxnparse.reasoning.hypotheses import HypothesisEdge, HypothesisGraph, cluster_prompt_variables, collect_hypotheses
from rxnparse.reasoning.relations import EdgeRelation
from rxnparse.reasoning.spatial import build_spatial_graph, propagate

from helpers import (
    center_distance_normalized,
    chem_graph,
    fusion_config,
    make_doc,
    molecule_entity,
    reference_build_chem_graph,
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

BETAS = st.one_of(st.sampled_from([0.0, 0.5, 0.7, 1.0]), st.floats(0.0, 1.0))
# dyadic weights, and the default ones
WEIGHTS = st.sampled_from([(0.5, 0.25, 0.25), (0.25, 0.25, 0.5), (0.0, 0.5, 0.5), (0.3, 0.2, 0.5)])
RELATIONS = [r for r in EdgeRelation if r != EdgeRelation.NO_EDGE]
# (k_nn, radius) of the spatial graph: the default, then sparser graphs that leave molecule pairs uncovered
SPATIAL = st.sampled_from([(4, 0.25), (2, 0.1), (1, 0.0), (0, 0.0)])
NO_HYPOTHESES = HypothesisGraph(edges=())


def _config(weights, beta, tau_fuse) -> ReasoningConfig:
    return dataclasses.replace(fusion_config(weights, tau_fuse), beta=beta)


def _uncovered_bound(config) -> float:
    """The most a pair that no spatial edge and no hypothesis covers can fuse at."""
    return fuse_score(NEUTRAL_SPACE_SCORE, config.beta + (1.0 - config.beta), ABSENT_INIT_SCORE, config)


def _all_pairs_graph(doc, beta):
    """The chemistry graph under ``tau_fuse`` 0, below the bound: fusion can keep any pair, so all are scored."""
    config = ReasoningConfig(beta=beta, tau_fuse=0.0)
    return build_chem_graph(doc, config, build_spatial_graph(doc, config), NO_HYPOTHESES)


def _same_arrays(chem, expected) -> bool:
    """The same rows and cols in the same (row-major) order, and bit-equal values."""
    return (
        chem.rows.tolist() == expected.rows.tolist() and chem.cols.tolist() == expected.cols.tolist()
        and [v.hex() for v in chem.values.tolist()] == [v.hex() for v in expected.values.tolist()]
    )


def _covered(table, spatial, typed) -> set:
    """The id pairs of the spatial edges and of the typed edges, smaller id first."""
    ends = [(table.ids[i], table.ids[j]) for i, j in spatial.edges] + [(e.source, e.target) for e in typed]
    return {(min(a, b), max(a, b)) for a, b in ends}


def _typed_edges(doc, spatial, chem, data) -> tuple:
    """Typed edges on drawn pairs, either way round and repeated; some join an entity to itself, as when a reply
    names one molecule in two roles."""
    ids = [e.id for e in doc.entities]
    if not ids:
        return ()
    pairs = [(ids[i], ids[j]) for i, j in spatial.edges] + list(chem.scores) + [(i, i) for i in ids]
    if len(ids) > 1:
        pairs.append(tuple(data.draw(st.permutations(ids))[:2]))
    typed = []
    for _ in range(data.draw(st.integers(0, 8))):
        a, b = data.draw(st.sampled_from(pairs))
        source, target = (a, b) if data.draw(st.booleans()) else (b, a)
        relation, confidence = data.draw(st.sampled_from(RELATIONS)), data.draw(st.sampled_from([0.0, 0.5, 0.75, 1.0]))
        typed += [HypothesisEdge(source, target, relation, confidence)] * data.draw(st.integers(1, 2))
    return tuple(typed)


@settings(max_examples=300, deadline=None)
@given(doc=documents(), beta=BETAS, weights=WEIGHTS, links=SPATIAL, data=st.data())
def test_chem_graph_scores_the_pairs_fusion_can_keep(doc, beta, weights, links, data):
    """Each scored pair has the per-pair loop's value, bit for bit, in row-major order. Every molecule pair is
    scored when an uncovered pair can pass ``tau_fuse``; else only the molecule pairs of the spatial edges and
    the typed pairs are."""
    bound = _uncovered_bound(_config(weights, beta, 0.0))
    config = _config(weights, beta, data.draw(st.sampled_from([0.0, np.nextafter(bound, 0.0), bound, 0.45, 1.0])))
    spatial = build_spatial_graph(doc, ReasoningConfig(k_nn=links[0], radius=links[1]))
    oracle = reference_build_chem_graph(doc, config)
    hypotheses = HypothesisGraph(edges=_typed_edges(doc, spatial, oracle, data))
    chem = build_chem_graph(doc, config, spatial, hypotheses)
    covered = set(oracle.scores) if bound > config.tau_fuse else _covered(doc.table, spatial, hypotheses.edges)
    expected = chem_graph(doc.table, {pair: value for pair, value in oracle.scores.items() if pair in covered})
    assert _same_arrays(chem, expected)
    assert np.all(chem.rows < chem.cols)  # entity positions, each pair once


@settings(max_examples=100, deadline=None)
@given(doc=documents(), beta=BETAS)
def test_chem_graph_of_all_pairs_equals_pairwise_loop(doc, beta):
    """Where fusion can keep any pair, every molecule pair is scored: the per-pair loop's values and order."""
    assert _same_arrays(_all_pairs_graph(doc, beta), reference_build_chem_graph(doc, ReasoningConfig(beta=beta)))


def _molecules(*smiles):
    return make_doc(
        [
            {"id": f"m{k}", "label": "molecule", "bbox": [10 + 200 * k, 10, 100 + 200 * k, 90], "smiles": s}
            for k, s in enumerate(smiles)
        ]
    )


def test_chem_graph_with_zero_one_and_two_molecules():
    for smiles in ((), ("CCO",), ("CCO", "[O-]C(=O)C"), ("CCO", "CCO"), ("CCO", "C1CC")):
        doc = _molecules(*smiles)
        assert _same_arrays(_all_pairs_graph(doc, 0.5), reference_build_chem_graph(doc, ReasoningConfig(beta=0.5)))
    # identical molecules score 0.5 * 1 + 0.5 * exp(0) = 1.0; an unparsed pair scores the neutral 0.5
    assert _all_pairs_graph(_molecules("CCO", "CCO"), 0.5).scores == {("m0", "m1"): 1.0}
    assert _all_pairs_graph(_molecules("CCO", "C1CC"), 0.5).scores == {("m0", "m1"): NEUTRAL_CHEM_SCORE}


def _molecule_grid(count: int, seed: int):
    """``count`` molecules, 60 to a row, each SMILES drawn from the pool."""
    rng = random.Random(seed)
    entities = [
        molecule_entity(f"m{k}", 20 * (k % 60), 100 * (k // 60), smiles=rng.choice(SMILES_POOL), w=10, h=10)
        for k in range(count)
    ]
    return make_doc(entities, width=1400, height=100 * (count // 60 + 1))


def test_chem_graph_of_hundreds_of_molecules():
    """300 molecules; ids m0..m299 sort apart from their index order."""
    doc = _molecule_grid(300, seed=8)
    for entity in doc.entities[::7]:
        if entity.molecule is not None:
            entity.molecule.__dict__["fingerprint"] = 0
    for beta in (0.5, 0.7):
        chem = _all_pairs_graph(doc, beta)
        assert len(chem.values) == 300 * 299 // 2
        assert _same_arrays(chem, reference_build_chem_graph(doc, ReasoningConfig(beta=beta)))


@pytest.mark.parametrize("block", [1, 2, 7, 45])
def test_pair_blocks_that_split_rows_anywhere_give_the_same_arrays(monkeypatch, block):
    """Blocks of a few pairs end inside rows and across them; rows, cols and values stay the per-pair loop's, in
    the same order (12 molecules: 66 pairs)."""
    doc = _molecule_grid(12, seed=3)
    monkeypatch.setattr(chemgraph_module, "CHEM_PAIR_BLOCK", block)
    for beta in (0.0, 0.5, 1.0):
        assert _same_arrays(_all_pairs_graph(doc, beta), reference_build_chem_graph(doc, ReasoningConfig(beta=beta)))


@functools.lru_cache(maxsize=1)
def _grid_of_800():
    """800 molecules and the per-pair loop's scores of all their 319,600 pairs at ``beta`` 0.5, built once."""
    doc = _molecule_grid(800, seed=5)
    return doc, reference_build_chem_graph(doc, ReasoningConfig(beta=0.5))


def test_chem_graph_of_800_molecules_stays_in_bounded_memory():
    """800 molecules make 319,600 pairs, all scored under ``tau_fuse`` 0: scored all at once, the two
    (pairs, 32) uint64 fingerprint gathers alone would take about 160 MiB; in pair blocks the whole call stays
    under 32 MiB."""
    doc, expected = _grid_of_800()
    config = ReasoningConfig(beta=0.5, tau_fuse=0.0)
    table = doc.table  # held: the table, the spatial graph and every fingerprint are built before the measured call
    spatial = build_spatial_graph(doc, config)
    tracemalloc.start()
    try:
        chem = build_chem_graph(doc, config, spatial, NO_HYPOTHESES)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert chem.table is table and len(chem.values) == 800 * 799 // 2
    assert _same_arrays(chem, expected)
    assert peak < 32 * 2**20, f"peak {peak / 2**20:.1f} MiB"


def test_chem_graph_of_800_molecules_under_the_default_fusion_scores_only_covered_pairs():
    """Under the default weights and ``tau_fuse`` an uncovered pair fuses at most 0.35, below 0.45, so only the
    molecule pairs of the spatial edges and the typed pairs are scored, not all 319,600; each has the per-pair
    loop's score, in row-major order over positions of several bytes."""
    doc, everything = _grid_of_800()
    config = ReasoningConfig(beta=0.5)
    assert _uncovered_bound(config) <= config.tau_fuse
    spatial = build_spatial_graph(doc, config)
    ids = doc.table.ids
    # molecules across the grid from each other: typed pairs that no spatial edge covers
    typed = [HypothesisEdge(ids[k], ids[-1 - k], EdgeRelation.REACTANT_TO_PRODUCT) for k in range(0, 400, 5)]
    chem = build_chem_graph(doc, config, spatial, HypothesisGraph(edges=tuple(typed)))
    assert len(spatial.rows) < len(chem.values) <= len(spatial.rows) + len(typed) < 800 * 799 // 2
    covered = _covered(doc.table, spatial, typed)
    expected = chem_graph(doc.table, {pair: value for pair, value in everything.scores.items() if pair in covered})
    assert _same_arrays(chem, expected)


# --- fusion ---------------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(doc=documents(), weights=WEIGHTS, beta=BETAS, links=SPATIAL, propagated=st.booleans(), data=st.data())
def test_fuse_of_the_scored_pairs_equals_reference_over_all_pairs(doc, weights, beta, links, propagated, data):
    """Fusion over the chemistry of the pairs it can keep equals fusion over every molecule pair's chemistry.

    ``tau_fuse`` falls on either side of the uncovered-pair bound: on the bound or one of the candidates' own
    scores at or above it, so that only covered pairs are scored, or just below the bound or on a candidate's
    score below it, so that all are. A score may land exactly on it. A spatial graph not yet propagated has no
    scores and adds no spatial candidates.
    """
    spatial = build_spatial_graph(doc, ReasoningConfig(k_nn=links[0], radius=links[1]))
    spatial = propagate(spatial) if propagated else spatial
    oracle = reference_build_chem_graph(doc, ReasoningConfig(beta=beta))
    hypotheses = HypothesisGraph(edges=_typed_edges(doc, spatial, oracle, data))
    bound = _uncovered_bound(_config(weights, beta, 0.0))
    everything = reference_fuse(spatial, oracle, hypotheses, _config(weights, beta, 0.0)).edges
    scores = [e.score for e in everything]
    if data.draw(st.booleans()):
        taus = [bound] + [score for score in scores if score >= bound]
    else:
        taus = [np.nextafter(bound, 0.0)] + [score for score in scores if score < bound]
    config = _config(weights, beta, data.draw(st.sampled_from(taus)))
    expected = reference_fuse(spatial, oracle, hypotheses, config)
    fused = fuse(spatial, build_chem_graph(doc, config, spatial, hypotheses), hypotheses, config)
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
