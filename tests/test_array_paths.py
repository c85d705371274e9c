"""Reply grounding, the arrow merge, condition attachment and kNN links over arrays, against their loops.

``_resolve`` scores every screened box pair at once and screens all the
arrows of a reply in one pass; ``_merge_collinear_arrows`` takes its
candidate pairs and each axis's gap band from one array pass;
``_finalize_candidate`` reads the component's condition edges through
indexes; ``EntityTable.knn_links`` takes each row's nearest others by
repeated ``argmin``. The references in ``helpers`` are the loops they
replaced: each must give the same entity ids, the same error type and
text, the same reactions and the same links.
"""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rxnparse import reactions
from rxnparse.entities import Entity, EntityKind, ReactionDocument
from rxnparse.geometry import AxisBox, OrientedQuad, axis_parameter, principal_axis, region_from_coords, region_to_array
from rxnparse.reactions import REPLY_ERRORS, BoxedMember, Reaction, parse_combiner_response
from rxnparse.reasoning.fusion import FusedEdge
from rxnparse.reasoning.inference import _condition_index, _finalize_candidate
from rxnparse.reasoning.postprocess import _GAP_BAND, _merge_collinear_arrows
from rxnparse.reasoning.relations import EdgeRelation

from helpers import (
    make_doc,
    molecule_entity,
    reference_finalize_candidate,
    reference_knn_links,
    reference_merge_collinear_arrows,
    reference_one_pass_merge,
    reference_parse_combiner_response,
    reference_resolve,
    resolve_members,
    table_of,
)

# ids whose string order differs from their position, so a tie on IoU goes to the smaller id, not the first row
IDS = ("m9", "m10", "m2", "t1", "a7", "a10", "i3", "b", "a")
BOX_KINDS = (EntityKind.MOLECULE, EntityKind.TEXT, EntityKind.IDENTIFIER)

# boxes on a small grid: touching, nested, identical and zero-area (degenerate) boxes are common
grid_boxes = st.builds(
    lambda x, y, w, h: AxisBox(x, y, x + w, y + h),
    st.integers(0, 12), st.integers(0, 12), st.integers(0, 4), st.integers(0, 4),
)


def _quad_or_none(points):
    try:
        return OrientedQuad(tuple(points))
    except ValueError:  # a zero-area draw
        return None


@st.composite
def arrow_quads(draw):
    """Sheared quads, and quads whose hull has 3 vertices: a repeated vertex, or one inside the others' triangle."""
    x, y = draw(st.integers(0, 12)), draw(st.integers(0, 12))
    w, h = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    shape = draw(st.sampled_from(["box", "shear", "repeat", "inner"]))
    if shape == "box":
        points = [(x, y), (x + w, y), (x + w, y + h), (x, y + h)]
    elif shape == "shear":
        points = [(x, y), (x + w, y + 0.5), (x + w, y + h + 0.5), (x, y + h)]
    elif shape == "repeat":
        points = [(x, y), (x + w, y), (x + w, y), (x, y + h)]
    else:
        points = [(x, y), (x + 2 * w, y), (x + w / 2, y + h / 4), (x, y + 2 * h)]
    quad = _quad_or_none(points)
    return quad if quad is not None else OrientedQuad(((x, y), (x + 1, y), (x + 1, y + 1), (x, y + 1)))


def _perturbed(draw, region):
    """The region moved by a small offset, so that its IoU with the original lands near the 0.9 bar."""
    dx, dy = draw(st.sampled_from([0.0, 0.05, 0.1, 0.25, -0.1])), draw(st.sampled_from([0.0, 0.05, -0.2]))
    if isinstance(region, AxisBox):
        return AxisBox(region.x_min + dx, region.y_min + dy, region.x_max + dx, region.y_max + dy)
    return _quad_or_none([(px + dx, py + dy) for px, py in region.vertices]) or region


@st.composite
def grounding_cases(draw):
    """A document of boxes and arrows, some sharing one region under different ids; reply members that
    echo an entity, perturb it, or land anywhere."""
    ids = draw(st.lists(st.sampled_from(IDS), min_size=1, max_size=len(IDS), unique=True))
    entities = []
    for eid in ids:
        kind = draw(st.sampled_from(BOX_KINDS + (EntityKind.ARROW,)))
        same = [e for e in entities if e.kind == kind]
        if same and draw(st.integers(0, 2)) == 0:  # two entities, one region: the smaller id must win
            region = draw(st.sampled_from(same)).region
        else:
            region = draw(arrow_quads()) if kind == EntityKind.ARROW else draw(grid_boxes)
        entities.append(Entity(id=eid, kind=kind, region=region))
    doc = ReactionDocument(diagram_bounds=AxisBox(0, 0, 20, 20), entities=tuple(entities))
    members = []
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(BOX_KINDS + (EntityKind.ARROW,)))
        same = [e for e in entities if e.kind == kind]
        choice = draw(st.integers(0, 2))
        if same and choice == 0:
            region = draw(st.sampled_from(same)).region
        elif same and choice == 1:
            region = _perturbed(draw, draw(st.sampled_from(same)).region)
        else:
            region = draw(arrow_quads()) if kind == EntityKind.ARROW else draw(grid_boxes)
        members.append(BoxedMember(kind, region))
    return doc, members


def _outcomes(resolved, members):
    return [(type(resolved[m]).__name__, str(resolved[m])) for m in members]


@settings(max_examples=400, deadline=None)
@given(case=grounding_cases())
def test_resolve_equals_pair_by_pair_reference(case):
    doc, members = case
    assert _outcomes(resolve_members(members, doc), members) == _outcomes(reference_resolve(members, doc), members)


def test_degenerate_boxes_resolve_only_to_the_same_point():
    point = AxisBox(3, 3, 3, 3)
    doc = ReactionDocument(
        diagram_bounds=AxisBox(0, 0, 20, 20),
        entities=(Entity(id="p", kind=EntityKind.TEXT, region=point), Entity(id="q", kind=EntityKind.TEXT, region=AxisBox(3, 3, 3, 5))),
    )
    same, other = BoxedMember(EntityKind.TEXT, point), BoxedMember(EntityKind.TEXT, AxisBox(3, 4, 3, 4))
    resolved = resolve_members([same, other], doc)
    assert resolved[same] == "p"
    assert str(resolved[other]) == "no text entity matches bbox [3, 4, 3, 4] at IoU >= 0.9 (best 0.000)"
    assert _outcomes(resolved, [same, other]) == _outcomes(reference_resolve([same, other], doc), [same, other])


def test_reply_arrow_equal_to_an_entity_arrow_reads_its_quad(monkeypatch):
    quad = OrientedQuad(((1, 1), (6, 1), (6, 3), (1, 3)))
    doc = ReactionDocument(diagram_bounds=AxisBox(0, 0, 20, 20), entities=(Entity(id="a", kind=EntityKind.ARROW, region=quad),))
    echo, other = BoxedMember(EntityKind.ARROW, OrientedQuad(quad.vertices)), BoxedMember(EntityKind.ARROW, OrientedQuad(((1, 1), (6, 1), (6, 4), (1, 3))))
    built = []
    monkeypatch.setattr(reactions, "region_from_coords", lambda coords: built.append(coords) or region_from_coords(coords))
    resolved = resolve_members([echo, other], doc)
    assert resolved[echo] == "a" and isinstance(resolved[other], reactions.ResolutionError)
    assert built == [other.coords]  # only the arrow that matches no entity arrow builds a quad


def _reply(doc, members):
    """One reaction per pair of members, the first a reactant, the second a product or the arrow."""
    def item(member):
        return {"label": member.kind.value, "bbox": region_to_array(member.region)}

    boxes = [m for m in members if m.kind != EntityKind.ARROW]
    arrows = [m for m in members if m.kind == EntityKind.ARROW]
    reactions = []
    for k in range(0, max(len(boxes) - 1, 0), 2):
        reactions.append({"reactants": [item(boxes[k])], "products": [item(boxes[k + 1])], "conditions": [],
                          "arrow": [item(a) for a in arrows[k // 2 : k // 2 + 1]]})
    return reactions


def _reply_outcome(parse, raw, doc):
    try:
        return "ok", [(r.reactants, r.products, r.conditions, r.arrows) for r in parse(raw, doc)]
    except REPLY_ERRORS as exc:
        return type(exc).__name__, str(exc)


@settings(max_examples=300, deadline=None)
@given(case=grounding_cases())
def test_reply_outcome_and_error_text_equal_reference(case):
    import json

    doc, members = case
    raw = json.dumps(_reply(doc, members))
    assert _reply_outcome(parse_combiner_response, raw, doc) == _reply_outcome(reference_parse_combiner_response, raw, doc)


# --- the arrow merge ---------------------------------------------------------------

MERGE_WIDTH, MERGE_HEIGHT = 3000, 4000  # diagonal 5000: the gap band is 400 either side of an axis


def _bar(eid, tail, head, half=10):
    (xt, yt), (xh, yh) = tail, head
    return {"id": eid, "label": "arrow", "bbox": [xt, yt - half, xh, yh - half, xh, yh + half, xt, yt + half]}


def _gap_box(doc, first, second):
    """The reference's padded box around the gap between two arrows' axes, and the gap's ends."""
    diag = doc.diagram_bounds.diagonal
    tail1, head1 = principal_axis(doc.entity(first).region)
    tail2, _ = principal_axis(doc.entity(second).region)
    v1 = (head1[0] - tail1[0], head1[1] - tail1[1])
    ends = sorted((axis_parameter(head1, tail1, head1), axis_parameter(tail2, tail1, head1)))
    (x0, y0), (x1, y1) = ((tail1[0] + t * v1[0], tail1[1] + t * v1[1]) for t in ends)
    pad = _GAP_BAND * diag + 1e-9 * (abs(x0) + abs(y0) + abs(x1) + abs(y1) + diag)
    return (min(x0, x1) - pad, min(y0, y1) - pad, max(x0, x1) + pad, max(y0, y1) + pad), ((x0, y0), (x1, y1))


@st.composite
def gap_cases(draw):
    """Two to four arrows along one line, and molecules whose centroids sit on the padded gap box's edges,
    at the gap's ends, on the band's edge, inside the gap or anywhere."""
    y = draw(st.sampled_from([1000, 1000.5, 2000.25]))
    rise = draw(st.sampled_from([0, 0, 30, -45]))  # a slanted line too
    x, arrows, entities = 100, [], []
    for k in range(draw(st.integers(2, 4))):
        length = draw(st.sampled_from([200, 300, 450]))
        if k >= 2 and x + length > 2800:  # inside the diagram
            break
        tail, head = (x, y + rise * x / 1000), (x + length, y + rise * (x + length) / 1000)
        entities.append(_bar(f"a{k}", tail, head))
        arrows.append(f"a{k}")
        x += length + draw(st.sampled_from([50, 200, 400, 700]))
    doc = make_doc(entities, width=MERGE_WIDTH, height=MERGE_HEIGHT)
    (x_lo, y_lo, x_hi, y_hi), ((gx0, gy0), (gx1, gy1)) = _gap_box(doc, "a0", "a1")
    spots = {
        "box-left": (x_lo, (y_lo + y_hi) / 2), "box-right": (x_hi, (y_lo + y_hi) / 2),
        "box-top": ((x_lo + x_hi) / 2, y_lo), "box-bottom": ((x_lo + x_hi) / 2, y_hi),
        "box-corner": (x_hi, y_hi), "gap-start": (gx0, gy0), "gap-end": (gx1, gy1),
        "band-edge": ((gx0 + gx1) / 2, (gy0 + gy1) / 2 + _GAP_BAND * 5000),
        "inside": ((gx0 + gx1) / 2, (gy0 + gy1) / 2 + 1),
        "anywhere": (draw(st.integers(0, 2900)), draw(st.integers(0, 3900))),
    }
    for k, spot in enumerate(draw(st.lists(st.sampled_from(sorted(spots)), max_size=3))):
        cx, cy = spots[spot]  # a zero-area box: its centroid is exactly the spot
        entities.append({"id": f"g{k}", "label": "molecule", "bbox": [cx, cy, cx, cy]})
    entities += [molecule_entity("m1", 0, 3800, w=60, h=60), molecule_entity("m2", 2800, 3800, w=60, h=60)]
    doc = make_doc(entities, width=MERGE_WIDTH, height=MERGE_HEIGHT)
    reactions = [Reaction(("m1",), ("m2",), arrows=(a,), score=1.0) for a in arrows]
    return doc, draw(st.permutations(reactions))


@settings(max_examples=300, deadline=None)
@given(case=gap_cases())
def test_merge_with_centroids_on_the_gap_box_edges_equals_references(case):
    doc, reactions = case
    merged = _merge_collinear_arrows(list(reactions), doc)
    assert merged == reference_one_pass_merge(reactions, doc)
    assert merged == reference_merge_collinear_arrows(reactions, doc)


def test_a_centroid_at_the_gap_end_does_not_block_and_one_inside_does():
    entities = [_bar("a0", (100, 1000), (400, 1000)), _bar("a1", (600, 1000), (900, 1000))]
    molecules = [molecule_entity("m1", 0, 3800, w=60, h=60), molecule_entity("m2", 2800, 3800, w=60, h=60)]
    reactions = [Reaction(("m1",), ("m2",), arrows=(a,), score=1.0) for a in ("a0", "a1")]
    for cx, merges in ((400, True), (600, True), (500, False)):
        gap = {"id": "g", "label": "molecule", "bbox": [cx, 1000, cx, 1000]}
        doc = make_doc(entities + molecules + [gap], width=MERGE_WIDTH, height=MERGE_HEIGHT)
        merged = _merge_collinear_arrows(list(reactions), doc)
        assert merged == reference_one_pass_merge(reactions, doc)
        assert [r.arrows for r in merged] == ([("a0", "a1")] if merges else [("a0",), ("a1",)])


# --- condition attachment ----------------------------------------------------------

NODES = ("r1", "r2", "p1", "p2", "c1", "c2", "c3", "a1")


@st.composite
def condition_cases(draw):
    relations = st.sampled_from([EdgeRelation.REACTANT_TO_COND, EdgeRelation.COND_TO_PRODUCT,
                                 EdgeRelation.REACTANT_TO_ARROW, EdgeRelation.NO_EDGE])
    edges = [
        FusedEdge(source, target, relation, draw(st.sampled_from([0.5, 0.75, 1.0])), 0.5, 0.5, 0.0)
        for source, target, relation in draw(st.lists(st.tuples(st.sampled_from(NODES), st.sampled_from(NODES), relations),
                                                      max_size=12))
    ]
    reactants = draw(st.lists(st.sampled_from(NODES), max_size=3))
    products = draw(st.lists(st.sampled_from(NODES), max_size=3))
    conditions = draw(st.lists(st.sampled_from(NODES), max_size=2, unique=True))
    return edges, reactants, products, conditions


@settings(max_examples=300, deadline=None)
@given(case=condition_cases())
def test_finalize_candidate_equals_edge_scan(case):
    edges, reactants, products, conditions = case
    doc = make_doc([molecule_entity(eid, 100 * k, 0) for k, eid in enumerate(NODES[:-1])]
                   + [{"id": "a1", "label": "arrow", "bbox": [0, 200, 100, 200, 100, 220, 0, 220]}])
    expected = reference_finalize_candidate(reactants, products, conditions, ["a1"], 1.0,
                                            [e for e in edges if e.relation in (EdgeRelation.REACTANT_TO_COND,
                                                                                 EdgeRelation.COND_TO_PRODUCT)], doc)
    assert _finalize_candidate(reactants, products, conditions, ["a1"], 1.0, _condition_index(edges), doc) == expected


# --- kNN links ---------------------------------------------------------------------

# few distinct values, so rows tie often; inf and NaN order last, NaN after inf
DISTANCES = st.sampled_from([0.0, 0.0, 0.25, 0.25, 0.5, 1.0, 5e-324, math.inf, math.nan])


@st.composite
def distance_matrices(draw):
    n = draw(st.integers(0, 7))
    matrix = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            matrix[i, j] = matrix[j, i] = draw(DISTANCES)
    return matrix


@settings(max_examples=300, deadline=None)
@given(distances=distance_matrices(), k=st.integers(0, 8))
@example(distances=np.zeros((4, 4)), k=2)  # every entity on one centroid: ties go to the lower index
def test_knn_links_equal_stable_argsort(distances, k):
    table = table_of([f"e{i}" for i in range(len(distances))])
    table.__dict__["distances"] = distances  # the cached property, set ahead of its first read
    rows, cols = links = table.knn_links(k)
    expected = np.nonzero(np.triu(reference_knn_links(distances, k), k=1))
    assert (rows.tolist(), cols.tolist()) == (expected[0].tolist(), expected[1].tolist())
    assert not rows.flags.writeable and not cols.flags.writeable and table.knn_links(k) is links
