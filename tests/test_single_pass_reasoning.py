"""Fusion, inference and the arrow merge against their whole-graph references.

Each stage walks its input once: fusion prunes while it scores, inference
reads one bucket of edges per component, and the arrow merge makes one
pass without restarting. The references in ``helpers`` are the versions
that built every candidate, filtered the whole fused graph per component
and per arrow, and rescanned after every merge; outputs must be equal,
floats included.

Scores are drawn from quarter steps and weights from dyadic fractions, so
fused scores land exactly on ``tau_fuse`` often.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rxnparse.geometry
import rxnparse.reasoning.postprocess
from rxnparse.config import ReasoningConfig
from rxnparse.geometry import principal_axis
from rxnparse.reactions import Reaction
from rxnparse.reasoning import (
    EDGE_DIMS,
    EdgeRelation,
    FusedEdge,
    FusedGraph,
    FusionWeights,
    HypothesisEdge,
    HypothesisGraph,
    assign_entities_to_arrows,
    connected_components,
    fuse,
    infer_reactions,
)
from rxnparse.reasoning.postprocess import _MERGE_MIN_COS, _merge_collinear_arrows

from helpers import (
    arrow_entity,
    chem_graph,
    make_doc,
    molecule_entity,
    reference_assign_entities_to_arrows,
    reference_fuse,
    reference_infer_reactions,
    reference_merge_collinear_arrows,
    spatial_graph,
    text_entity,
)

# ids whose string order differs from their index order
NODE_POOL = ("n9", "n10", "a", "b2", "b10", "z", "m", "c", "k1")
QUARTERS = st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0])
DYADIC_WEIGHTS = st.sampled_from(
    [(0.5, 0.25, 0.25), (0.25, 0.25, 0.5), (0.25, 0.5, 0.25), (0.0, 0.5, 0.5), (0.0, 0.0, 1.0)]
)
TAUS = st.one_of(st.sampled_from([0.0, 0.25, 0.375, 0.5, 0.625, 0.75, 1.0]), st.floats(0.0, 1.0))
TYPED_RELATIONS = [r for r in EdgeRelation if r != EdgeRelation.NO_EDGE]


def _ordered(a, b):
    return (min(a, b), max(a, b))


@st.composite
def evidence_graphs(draw):
    """(spatial, chem, hypotheses): random scores; typed edges often on structural pairs, either way round."""
    ids = draw(st.lists(st.sampled_from(NODE_POOL), min_size=0, max_size=len(NODE_POOL), unique=True))
    pairs = [(i, j) for i in range(len(ids)) for j in range(i + 1, len(ids))]
    space_pairs = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    space = spatial_graph(
        node_ids=tuple(ids),
        features=np.zeros((len(ids), 1)),
        edges=tuple(space_pairs),
        edge_features=np.zeros((2 * len(space_pairs), EDGE_DIMS)),
        weights=None,
        scores={pair: draw(QUARTERS) for pair in space_pairs},
    )
    chem_pairs = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    chem = chem_graph(space.table, {_ordered(ids[i], ids[j]): draw(QUARTERS) for i, j in chem_pairs})
    typed = []
    if pairs:
        for i, j in draw(st.lists(st.sampled_from(space_pairs + chem_pairs + pairs), max_size=12)):
            source, target = (ids[i], ids[j]) if draw(st.booleans()) else (ids[j], ids[i])
            typed.append(
                HypothesisEdge(source, target, draw(st.sampled_from(TYPED_RELATIONS)), draw(QUARTERS))
            )
    return space, chem, HypothesisGraph(clusters=(tuple(ids),), edges=tuple(typed))


@settings(max_examples=300, deadline=None)
@given(graphs=evidence_graphs(), weights=DYADIC_WEIGHTS, tau=TAUS)
def test_fuse_equals_reference(graphs, weights, tau):
    spatial, chem, hypotheses = graphs
    weights = FusionWeights(*weights)
    assert fuse(spatial, chem, hypotheses, weights, tau) == reference_fuse(spatial, chem, hypotheses, weights, tau)


def test_fuse_prunes_a_score_exactly_at_tau():
    ids = ("a", "b", "c")
    spatial = spatial_graph(
        node_ids=ids,
        features=np.zeros((3, 1)),
        edges=((0, 1), (1, 2)),
        edge_features=np.zeros((4, EDGE_DIMS)),
        weights=None,
        scores={(0, 1): 0.5, (1, 2): 0.75},
    )
    chem = chem_graph(spatial.table, {("a", "c"): 1.0})
    hypotheses = HypothesisGraph(
        clusters=(ids,), edges=(HypothesisEdge("b", "a", EdgeRelation.REACTANT_TO_ARROW, 0.5),)
    )
    weights = FusionWeights(0.5, 0.25, 0.25)
    # b->a scores 0.5 exactly; (b, c) 0.5 and (a, c) 0.5 exactly as well
    assert fuse(spatial, chem, hypotheses, weights, 0.5).edges == ()
    kept = fuse(spatial, chem, hypotheses, weights, 0.375).edges
    assert [(e.source, e.target, e.relation) for e in kept] == [
        ("b", "a", EdgeRelation.REACTANT_TO_ARROW),
        ("a", "c", EdgeRelation.NO_EDGE),
        ("b", "c", EdgeRelation.NO_EDGE),
    ]
    assert kept == reference_fuse(spatial, chem, hypotheses, weights, 0.375).edges


# --- inference ------------------------------------------------------------------

KINDS = ("molecule", "molecule", "text", "identifier", "arrow")


def _entity(eid, kind, x, y):
    if kind == "arrow":
        return arrow_entity(eid, x, y, x + 200)
    if kind == "molecule":
        return molecule_entity(eid, x, y, smiles="CCO")
    return {"id": eid, "label": kind, "bbox": [x, y, x + 60, y + 30], "text": "x"}


ARROW_RELATIONS = (EdgeRelation.REACTANT_TO_ARROW, EdgeRelation.ARROW_TO_PRODUCT, EdgeRelation.NO_EDGE)


@st.composite
def fused_documents(draw):
    """A document of up to 10 entities (at most 3 arrows) and random fused edges over it.

    Half the edges join an entity to an arrow (typed, or untyped so geometry
    picks the role); the rest join any two entities with any relation.
    """
    n = draw(st.integers(0, 10))
    kinds = [draw(st.sampled_from(KINDS)) for _ in range(n)]
    for k in [k for k, kind in enumerate(kinds) if kind == "arrow"][3:]:
        kinds[k] = "text"
    entities = [
        _entity(f"e{k}", kind, draw(st.integers(0, 12)) * 100, draw(st.integers(0, 3)) * 100)
        for k, kind in enumerate(kinds)
    ]
    doc = make_doc(entities, width=1500, height=500)
    node_ids = tuple(e.id for e in doc.entities)
    arrows = [e["id"] for e in entities if e["label"] == "arrow"]
    others = [e["id"] for e in entities if e["label"] != "arrow"]
    edges = []
    if n >= 2:
        scores = st.one_of(st.sampled_from([0.25, 0.5, 0.75, 1.0]), st.floats(0.01, 1.0))
        for _ in range(draw(st.integers(0, 14))):
            if arrows and others and draw(st.booleans()):
                entity, arrow = draw(st.sampled_from(others)), draw(st.sampled_from(arrows))
                relation = draw(st.sampled_from(ARROW_RELATIONS))
                source, target = (arrow, entity) if relation == EdgeRelation.ARROW_TO_PRODUCT else (entity, arrow)
            else:
                source, target = draw(st.lists(st.sampled_from(node_ids), min_size=2, max_size=2, unique=True))
                relation = draw(st.sampled_from(list(EdgeRelation)))
            if relation == EdgeRelation.NO_EDGE:
                source, target = _ordered(source, target)
            edges.append(FusedEdge(source, target, relation, draw(scores), 0.5, 0.5, 0.0))
    fused = FusedGraph(node_ids=node_ids, edges=tuple(edges), weights=FusionWeights(0.3, 0.2, 0.5), tau_fuse=0.0)
    return doc, fused


@settings(max_examples=300, deadline=None)
@given(case=fused_documents(), limit=st.integers(1, 8))
def test_infer_reactions_equals_reference(case, limit):
    """Typed-condition edges are filtered once per component; the reference scans every fused edge per arrow."""
    doc, fused = case
    config = ReasoningConfig(exact_search_limit=limit)
    reactions = infer_reactions(fused, doc, config)
    expected = reference_infer_reactions(fused, doc, config)
    assert reactions == expected
    assert [r.score.hex() for r in reactions] == [r.score.hex() for r in expected]
    for component in connected_components(fused):
        assert assign_entities_to_arrows(component, fused, doc, config) == reference_assign_entities_to_arrows(
            component, fused, doc, config
        )


def test_infer_reactions_over_several_components_equals_reference():
    doc = make_doc(
        [
            molecule_entity("m1", 0, 50, smiles="CCO"),
            text_entity("t1", 300, 0),
            arrow_entity("a1", 250, 100, 450),
            molecule_entity("m2", 550, 50, smiles="C=C"),
            molecule_entity("m3", 0, 300, smiles="CC"),
            text_entity("t2", 250, 300),
            molecule_entity("m4", 550, 300, smiles="C"),
            molecule_entity("m5", 900, 300, smiles="O"),
        ],
        width=1200,
        height=500,
    )
    edges = (
        FusedEdge("m1", "a1", EdgeRelation.REACTANT_TO_ARROW, 0.9, 0.5, 0.5, 1.0),
        FusedEdge("a1", "m2", EdgeRelation.ARROW_TO_PRODUCT, 0.8, 0.5, 0.5, 1.0),
        FusedEdge("m1", "t1", EdgeRelation.REACTANT_TO_COND, 0.6, 0.5, 0.5, 1.0),
        # an arrowless component: a chain whose condition is named by two typed edges
        FusedEdge("m3", "m4", EdgeRelation.REACTANT_TO_PRODUCT, 0.7, 0.5, 0.5, 1.0),
        FusedEdge("m3", "t2", EdgeRelation.REACTANT_TO_COND, 0.5, 0.5, 0.5, 1.0),
        FusedEdge("t2", "m4", EdgeRelation.COND_TO_PRODUCT, 0.55, 0.5, 0.5, 1.0),
        FusedEdge("m4", "m5", EdgeRelation.REACTANT_TO_PRODUCT, 0.65, 0.5, 0.5, 1.0),
    )
    fused = FusedGraph(tuple(e.id for e in doc.entities), edges, FusionWeights(0.3, 0.2, 0.5), 0.0)
    for limit in (1, 12):
        config = ReasoningConfig(exact_search_limit=limit)
        reactions = infer_reactions(fused, doc, config)
        assert reactions == reference_infer_reactions(fused, doc, config)
        assert {(r.reactants, r.products, r.conditions, r.arrows) for r in reactions} == {
            (("m1",), ("m2",), ("t1",), ("a1",)),
            (("m3",), ("m4",), ("t2",), ()),
            (("m4",), ("m5",), (), ()),
        }


# --- arrow merge ------------------------------------------------------------------

MERGE_WIDTH, MERGE_HEIGHT = 2000, 400


@st.composite
def merge_cases(draw):
    """Runs of arrow segments along two rows (some vertical), molecules above, below or in the gaps.

    Most reactions take the next arrow of the run and the same two
    molecules, so most collinear neighbours can merge; the reactions come
    in any order.
    """
    entities = []
    arrows = []
    x, y = draw(st.integers(0, 10)) * 50, 150
    for k in range(draw(st.integers(1, 6))):
        length = draw(st.integers(2, 10)) * 50
        if x + length + 30 > MERGE_WIDTH or draw(st.integers(0, 4)) == 0:
            x, y = draw(st.integers(0, 10)) * 50, draw(st.sampled_from([150, 160, 300]))
        if draw(st.integers(0, 6)) == 0:
            bbox = [x, y, x + 2, y + 200, x + 22, y + 200, x + 20, y]
            entities.append({"id": f"a{k}", "label": "arrow", "bbox": bbox, "direction": "forward"})
        else:
            entities.append(arrow_entity(f"a{k}", x, y, x + length))
        arrows.append(f"a{k}")
        x += length + draw(st.sampled_from([20, 50, 100, 300, 500]))
    molecules = [f"m{k}" for k in range(draw(st.integers(2, 4)))]
    for m in molecules:
        row = draw(st.sampled_from([0, 0, 300, 130]))
        entities.append(molecule_entity(m, draw(st.integers(0, 38)) * 50, row, w=40, h=40))
    doc = make_doc(entities, width=MERGE_WIDTH, height=MERGE_HEIGHT)

    reactions = []
    for k in range(draw(st.integers(0, 6))):
        if draw(st.integers(0, 3)):
            reactants, products = ("m0",), ("m1",)
        else:
            sides = draw(st.permutations(molecules))
            cut = draw(st.integers(1, len(sides) - 1))
            reactants = tuple(sides[: draw(st.integers(1, cut))])
            products = tuple(sides[cut : cut + draw(st.integers(1, len(sides) - cut))])
        count = min(draw(st.sampled_from([1, 1, 1, 1, 0, 2])), len(arrows))
        if count == 1 and draw(st.integers(0, 3)):
            reaction_arrows = (arrows[k % len(arrows)],)
        else:
            reaction_arrows = tuple(draw(st.lists(st.sampled_from(arrows), min_size=count, max_size=count, unique=True)))
        reactions.append(Reaction(reactants, products, arrows=reaction_arrows, score=draw(QUARTERS)))
    return doc, draw(st.permutations(reactions))


@settings(max_examples=400, deadline=None)
@given(case=merge_cases())
def test_merge_collinear_arrows_equals_reference(case):
    doc, reactions = case
    assert _merge_collinear_arrows(list(reactions), doc) == reference_merge_collinear_arrows(reactions, doc)


def _row_doc(segments, molecules=()):
    entities = [arrow_entity(eid, x0, y, x1) for eid, x0, y, x1 in segments]
    entities += [molecule_entity(eid, x, y, w=60, h=60) for eid, x, y in molecules]
    return make_doc(entities, width=MERGE_WIDTH, height=MERGE_HEIGHT)


def _one(reactant, product, arrow):
    return Reaction(reactants=(reactant,), products=(product,), arrows=(arrow,), score=1.0)


CHAIN = _row_doc([("a1", 100, 150, 500), ("a2", 550, 150, 950), ("a3", 1000, 150, 1400)], [("m1", 0, 0), ("m2", 1900, 0)])
TWO_ROWS = _row_doc(
    [("a1", 100, 100, 500), ("a2", 550, 100, 950), ("b1", 100, 300, 500), ("b2", 550, 300, 950)],
    [("m1", 0, 0), ("m2", 1900, 0)],
)
GAP = _row_doc([("a1", 100, 150, 500), ("a2", 650, 150, 1000)], [("m1", 0, 0), ("m2", 1900, 0), ("mid", 540, 130)])


@pytest.mark.parametrize(
    "doc, reactions, expected_arrows",
    [
        # a chain of three segments: the first two merge, the merged pair never merges again
        (CHAIN, [_one("m1", "m2", "a1"), _one("m1", "m2", "a2"), _one("m1", "m2", "a3")], [("a3",), ("a1", "a2")]),
        # the partner comes earlier in the list (j < i)
        (CHAIN, [_one("m1", "m2", "a2"), _one("m1", "m2", "a1")], [("a1", "a2")]),
        # two merges: merged reactions follow the unmerged ones, in merge order
        (
            TWO_ROWS,
            [_one("m1", "m2", "b2"), _one("m1", "m2", "a2"), _one("m1", "m2", "b1"), _one("m1", "m2", "a1")],
            [("b1", "b2"), ("a1", "a2")],
        ),
        # a molecule in the gap blocks the merge
        (GAP, [_one("m1", "m2", "a1"), _one("m1", "m2", "a2")], [("a1",), ("a2",)]),
    ],
    ids=["chain-of-three", "partner-before", "two-merges", "entity-in-gap"],
)
def test_merge_cases_equal_reference(doc, reactions, expected_arrows):
    merged = _merge_collinear_arrows(list(reactions), doc)
    assert [r.arrows for r in merged] == expected_arrows
    assert merged == reference_merge_collinear_arrows(reactions, doc)


# --- the merge gates at their boundaries ----------------------------------------
#
# A 3000 x 4000 diagram has a diagonal of exactly 5000, so the gap bound
# (0.20 * diag) is 1000 and the lateral bound (0.05 * diag) 250. The first
# arrow runs from (100, 1000) to (400, 1000); each case places a second
# arrow on one side of a bound and expects the merge to happen or not, as
# the reference decides.

BOUND_WIDTH, BOUND_HEIGHT = 3000, 4000


def _bar(eid, tail, head, half=10):
    """An arrow whose axis runs from ``tail`` to ``head`` (the midpoints of its two vertical ends)."""
    (xt, yt), (xh, yh) = tail, head
    return {"id": eid, "label": "arrow", "bbox": [xt, yt - half, xh, yh - half, xh, yh + half, xt, yt + half]}


def _bound_doc(*bars):
    molecules = [molecule_entity("m1", 0, 3000, w=60, h=60), molecule_entity("m2", 2800, 3000, w=60, h=60)]
    return make_doc([_bar("a", (100, 1000), (400, 1000)), *bars, *molecules], width=BOUND_WIDTH, height=BOUND_HEIGHT)


def _merges(doc, reactions):
    merged = _merge_collinear_arrows(list(reactions), doc)
    assert merged == reference_merge_collinear_arrows(reactions, doc)
    return [r.arrows for r in merged]


def _fifteen_degree_rise():
    """A length and rise for the second arrow whose computed |cos| with the
    first is exactly cos(15°), searched because rounding decides it."""

    def cos_with_first(length, rise):
        doc = _bound_doc(_bar("b", (450, 1000), (450 + length, 1000 + rise)))
        tail, head = principal_axis(doc.entity("b").region)
        v = (head[0] - tail[0], head[1] - tail[1])
        return abs((300.0 * v[0] + 0.0 * v[1]) / (300.0 * math.hypot(*v)))

    for length in range(280, 300):
        lo, hi = 0.0, 200.0  # |cos| falls as the rise grows
        while math.nextafter(lo, hi) != hi:
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if cos_with_first(length, mid) >= _MERGE_MIN_COS else (lo, mid)
        if cos_with_first(length, lo) == _MERGE_MIN_COS:
            return length, lo, hi
    raise AssertionError("no arrow lands exactly on the angle bound")


@pytest.mark.parametrize(
    "second, merges",
    [
        # ahead of the head: the centroid projects to t2 == 1.0 exactly, then just past it
        (((350, 1000), (450, 1000)), False),
        (((350, 1000), (450.0000000001, 1000)), True),
        # the gap from the first head to the second tail is 1000 = 0.20 * diag, then just over
        (((1400, 1000), (1700, 1000)), True),
        (((1400.0000001, 1000), (1700, 1000)), False),
        # the second centroid lies 250 = 0.05 * diag off the first axis, then just over
        (((450, 1250), (750, 1250)), True),
        (((450, 1250.000001), (750, 1250.000001)), False),
    ],
    ids=["t2-is-one", "t2-past-one", "gap-at-bound", "gap-past-bound", "lateral-at-bound", "lateral-past-bound"],
)
def test_merge_gate_boundaries_equal_reference(second, merges):
    doc = _bound_doc(_bar("b", *second))
    arrows = _merges(doc, [_one("m1", "m2", "a"), _one("m1", "m2", "b")])
    assert arrows == ([("a", "b")] if merges else [("a",), ("b",)])


def test_merge_angle_bound_equals_reference():
    length, at_bound, past_bound = _fifteen_degree_rise()
    for rise, merges in ((at_bound, True), (past_bound, False)):
        doc = _bound_doc(_bar("b", (450, 1000), (450 + length, 1000 + rise)))
        arrows = _merges(doc, [_one("m1", "m2", "a"), _one("m1", "m2", "b")])
        assert arrows == ([("a", "b")] if merges else [("a",), ("b",)])


def test_zero_length_axis_never_merges(monkeypatch):
    doc = _bound_doc(_bar("b", (450, 1000), (750, 1000)), _bar("c", (800, 1000), (1100, 1000)))
    real_axis = rxnparse.geometry.principal_axis
    collapsed = doc.entity("b").region

    def axis(quad):
        tail, head = real_axis(quad)
        return (tail, tail) if quad is collapsed else (tail, head)

    monkeypatch.setattr(rxnparse.geometry, "principal_axis", axis)
    monkeypatch.setattr(rxnparse.reasoning.postprocess, "principal_axis", axis)
    reactions = [_one("m1", "m2", "b"), _one("m1", "m2", "a"), _one("m1", "m2", "c")]
    assert _merges(doc, reactions) == [("b",), ("a", "c")]


@pytest.mark.parametrize(
    "order, expected",
    [(("a", "b", "c"), [("c",), ("a", "b")]), (("a", "c", "b"), [("b",), ("a", "c")])],
    ids=["middle-first", "far-first"],
)
def test_first_fitting_partner_wins(order, expected):
    # both later arrows continue the first; the earlier one in the list wins
    doc = _bound_doc(_bar("b", (450, 1000), (750, 1000)), _bar("c", (800, 1000), (1100, 1000)))
    assert _merges(doc, [_one("m1", "m2", eid) for eid in order]) == expected
