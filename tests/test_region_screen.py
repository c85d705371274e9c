"""The region screen against the all-pairs code it replaced.

``score`` runs the predicate only on reaction pairs whose members can
match and that the screen's own box IoU leaves undecided, and matches
per connected component; ``_resolve`` runs IoU only on the entities
the entity table's screen keeps: those whose bounds meet a reply box,
or, for a reply arrow, arrows the polygon clip does not provably cut to
nothing. Both
must give exactly what a scan of every pair gives: the same report, the
same entity, the same error text. The clip itself must return the
reference's floats bit for bit.
"""

import itertools
import json
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from rxnparse import evaluation
from rxnparse.cli import main
from rxnparse.entities import Entity, EntityKind, ReactionDocument
from rxnparse.evaluation import CorpusDocument, score, score_corpus
from rxnparse.geometry import (
    AxisBox,
    OrientedQuad,
    _clip_convex,
    bounds_iou_above,
    bounds_overlap,
    region_iou,
    region_to_array,
)
from rxnparse.reactions import (
    BoxedMember,
    BoxedReaction,
    ConstraintError,
    ResolutionError,
    ResponseFormatError,
    parse_combiner_response,
)

from helpers import (
    random_quad,
    reference_clip_convex,
    reference_matching_by_component,
    reference_parse_combiner_response,
    reference_resolve_region,
    reference_score,
    reference_screened_pairs,
    regions_bounds,
    resolve_members,
    table_screen_members,
)

THRESHOLDS = (0.0, 0.5, 0.9, 1.0)
MEMBER_KINDS = (EntityKind.MOLECULE, EntityKind.TEXT, EntityKind.IDENTIFIER)

# a small grid makes touching, nested, identical and zero-area boxes common
boxes = st.builds(
    lambda x, y, w, h: AxisBox(x, y, x + w, y + h),
    st.integers(0, 8), st.integers(0, 8), st.integers(0, 3), st.integers(0, 3),
)
quads = st.builds(
    lambda x, y, w, h, shear: OrientedQuad(((x, y), (x + w, y + shear), (x + w, y + h + shear), (x, y + h))),
    st.integers(0, 8), st.integers(0, 8), st.integers(1, 3), st.integers(1, 3),
    st.sampled_from((0, 0, 0.5, -1)),
)
# offsets around the clip tolerance (_EPS = 1e-12): a vertex this far outside
# an edge of length L has cross -L * offset, kept or not depending on L
NUDGES = st.sampled_from((0.0, 0.0, 0.0, 1e-13, -1e-13, -5e-13, -1e-12, -0.999e-12, -1.001e-12, -2e-12, 2e-12))


def _quad_or_reject(points):
    try:
        return OrientedQuad(tuple(points))
    except ValueError:  # zero area
        assume(False)


@st.composite
def tilted_quads(draw):
    """An arrow shaped like the benchmark's: its far end drops a little, at any scale."""
    x0, y = draw(st.integers(0, 8)), draw(st.integers(0, 8))
    length, thickness = draw(st.integers(1, 6)), draw(st.sampled_from((0.5, 1, 2)))
    drop = draw(st.sampled_from((0, 0.1, -0.1, 0.25)))
    return OrientedQuad(((x0, y + thickness), (x0 + length, y + thickness - drop), (x0 + length, y - drop), (x0, y)))


@st.composite
def nudged_quads(draw):
    """Grid quads with each vertex nudged around the clip tolerance, in any vertex
    order (a crossed order is repaired by the hull); one vertex may sit inside
    the other three's triangle, leaving a 3-vertex hull."""
    x, y, w, h = draw(st.integers(0, 6)), draw(st.integers(0, 6)), draw(st.integers(1, 6)), draw(st.integers(1, 6))
    corners = [(x, y), (x + w, y), (x + w, y + h), (x, y + h)]
    if draw(st.booleans()):
        corners[2] = (x + w / 4, y + h / 4)
    points = [(px + draw(NUDGES), py + draw(NUDGES)) for px, py in corners]
    return _quad_or_reject(draw(st.permutations(points)))


# a vertex kept within the tolerance makes the crossing step extrapolate: clipped
# by the unit square, an intermediate vertex lands at x = 300.5
EXTRAPOLATING = OrientedQuad(((0.2, -1), (0.8, -1), (0.8, -0.999e-12), (0.2, -1.001e-12)))
UNIT_SQUARE = OrientedQuad(((0, 0), (1, 0), (1, 1), (0, 1)))
# against the unit square, its only vertex inside the first edge has cross exactly -_EPS
AT_TOLERANCE = OrientedQuad(((0.5, -1e-12), (0.3, -1), (0.5, -2), (0.7, -1)))
arrow_quads = st.one_of(quads, tilted_quads(), nudged_quads(), st.just(EXTRAPOLATING), st.just(UNIT_SQUARE))

members = st.builds(
    BoxedMember,
    kind=st.sampled_from(MEMBER_KINDS),
    region=st.one_of(boxes, boxes, boxes, quads),
)


def _role(min_size):
    return st.lists(members, min_size=min_size, max_size=2).map(tuple)


reactions = st.builds(BoxedReaction, reactants=_role(1), products=_role(1), conditions=_role(0))


@st.composite
def screening_group(draw):
    """One molecule reactant/product box pair repeated 2-8 times, as the benchmark's screening groups."""
    reaction = BoxedReaction(
        reactants=(BoxedMember(EntityKind.MOLECULE, draw(boxes)),),
        products=(BoxedMember(EntityKind.MOLECULE, draw(boxes)),),
    )
    return [reaction] * draw(st.integers(2, 8))


@st.composite
def documents(draw):
    """Ground truth from a small pool of reactions and maybe a screening
    group, and predictions that keep, edit or drop each of them in
    shuffled order, plus a few others.

    Repeats make components of the compatibility graph hold gt indices
    on both sides of another component's, and a screening group makes a
    component of several nodes on each side.
    """
    pool = draw(st.lists(reactions, min_size=1, max_size=3))
    gt = draw(st.lists(st.sampled_from(pool), max_size=6))
    if draw(st.booleans()):
        gt = draw(st.permutations(gt + draw(screening_group())))
    pred = []
    for base in draw(st.permutations(gt)):
        choice = draw(st.integers(0, 3))
        if choice == 0:
            continue
        if choice == 1:  # one member replaced
            role = draw(st.sampled_from(("reactants", "products", "conditions")))
            edited = list(getattr(base, role))
            if edited:
                edited[draw(st.integers(0, len(edited) - 1))] = draw(members)
            base = BoxedReaction(**{**base.__dict__, role: tuple(edited)})
        pred.append(base)
    return gt, pred + draw(st.lists(reactions, max_size=2))


@settings(max_examples=60, deadline=None)
@given(doc=documents())
def test_score_equals_all_pairs_reference(doc):
    gt, pred = doc
    for criterion, polygon, threshold in itertools.product(("hard", "soft"), (True, False), THRESHOLDS):
        expected = reference_score(gt, pred, criterion, threshold, polygon)
        assert score(gt, pred, criterion, threshold, polygon) == expected, (criterion, polygon, threshold)


@settings(max_examples=60, deadline=None)
@given(doc=documents())
def test_screen_and_components_equal_the_bounds_only_oracles(doc):
    """The IoU screen keeps a subset of the bounds-only screen's pairs, loses
    none the predicate accepts, and decides only pairs the predicate accepts;
    the whole-graph matching equals the one run per component of every node."""
    gt, pred = doc
    for criterion, polygon, threshold in itertools.product(("hard", "soft"), (True, False), THRESHOLDS):
        predicate = evaluation._CRITERIA[criterion]
        screened = evaluation._screened_pairs(evaluation._columns(gt), evaluation._columns(pred), criterion, polygon, threshold)
        bounded = reference_screened_pairs(gt, pred, criterion, polygon)
        assert {(g, p) for g, p, _ in screened} <= set(bounded)
        assert all(predicate(pred[p], gt[g], threshold, polygon) for g, p, decided in screened if decided)
        compatible = [(g, p) for g, p, d in screened if d or predicate(pred[p], gt[g], threshold, polygon)]
        assert compatible == [(g, p) for g, p in bounded if predicate(pred[p], gt[g], threshold, polygon)]
        adjacency = [[p for h, p in compatible if h == g] for g in range(len(gt))]
        assert evaluation._lexicographic_matching(len(gt), adjacency) == reference_matching_by_component(len(gt), adjacency)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n_pred: st.lists(
    st.lists(st.integers(0, n_pred - 1), max_size=3, unique=True).map(sorted), max_size=7
)))
def test_isolated_pairs_match_as_the_grouped_oracle(adjacency):
    assert evaluation._lexicographic_matching(len(adjacency), adjacency) == reference_matching_by_component(
        len(adjacency), adjacency
    )


# quarter units: IoU lands exactly on 0, 0.5 and 1, and boxes touch, nest, repeat or have no width or height
quarter_boxes = st.builds(
    lambda x, y, w, h: AxisBox(x / 4, y / 4, (x + w) / 4, (y + h) / 4),
    st.integers(0, 12), st.integers(0, 12), st.integers(0, 8), st.integers(0, 8),
)
quarter_quads = st.builds(
    lambda x, y, w, h, shear: OrientedQuad(((x, y), (x + w, y + shear), (x + w, y + h + shear), (x, y + h))),
    st.integers(0, 12).map(lambda v: v / 4), st.integers(0, 12).map(lambda v: v / 4),
    st.integers(1, 8).map(lambda v: v / 4), st.integers(1, 8).map(lambda v: v / 4),
    st.sampled_from((0, 0, 0.25, -0.5)),
)


@settings(max_examples=300, deadline=None)
@given(
    regions=st.lists(st.one_of(quarter_boxes, quarter_boxes, quarter_quads), min_size=1, max_size=6).flatmap(
        lambda rs: st.lists(st.sampled_from(rs), min_size=len(rs), max_size=2 * len(rs))  # repeats: identical pairs
    ),
    threshold=st.sampled_from((0.0, 0.5, 1.0)),
    polygon=st.booleans(),
)
@example(regions=[AxisBox(0, 0, 1, 1), AxisBox(0, 0, 1, 2)], threshold=0.5, polygon=True)  # IoU exactly 0.5
@example(regions=[AxisBox(1, 1, 1, 1), AxisBox(1, 1, 1, 1)], threshold=0.0, polygon=True)  # same point: IoU 1
@example(regions=[AxisBox(1, 1, 1, 2), AxisBox(1, 1, 1, 2)], threshold=1.0, polygon=True)  # same segment at t = 1
@example(regions=[AxisBox(0, 0, 1, 1), AxisBox(1, 0, 2, 1), AxisBox(1, 1, 2, 2)], threshold=0.0, polygon=True)
@example(regions=[AxisBox(0, 0, 2, 2), AxisBox(1, 0, 1, 2), AxisBox(0, 1, 2, 1)], threshold=0.0, polygon=False)
def test_screen_iou_decision_equals_region_iou(regions, threshold, polygon):
    """Every pair of regions compared as boxes is kept exactly when ``region_iou > t``; a pair with a
    quad compared as a polygon is kept."""
    bounds = regions_bounds(regions, polygon)
    rows, cols = (a.ravel() for a in np.indices((len(regions), len(regions))))
    kept = bounds_iou_above(bounds[rows], bounds[cols], threshold)
    clipped = [polygon and isinstance(r, OrientedQuad) for r in regions]
    expected = [clipped[i] or clipped[j] or region_iou(regions[i], regions[j], polygon) > threshold
                for i, j in zip(rows, cols)]
    assert kept.tolist() == expected


def _reaction(reactant, product):
    return BoxedReaction(
        reactants=(BoxedMember(EntityKind.MOLECULE, reactant),),
        products=(BoxedMember(EntityKind.MOLECULE, product),),
    )


def test_quad_within_clip_tolerance_of_a_box_still_matches_at_zero():
    # the box and the quad are 1e-13 apart, but the clip scores them 5e-14 > 0
    box = AxisBox(0, 0, 1, 1)
    quad = OrientedQuad(((1 + 1e-13, 0), (2, 0), (2, 1), (1 + 1e-13, 1)))
    assert region_iou(box, quad) > 0.0
    gt = [_reaction(box, AxisBox(5, 5, 6, 6))]
    pred = [_reaction(quad, AxisBox(5, 5, 6, 6))]
    for criterion in ("hard", "soft"):
        report = score(gt, pred, criterion, 0.0)
        assert report == reference_score(gt, pred, criterion, 0.0)
        assert report.matched == 1


@pytest.mark.parametrize(
    "a, b, matched",
    [
        (AxisBox(2, 2, 2, 2), AxisBox(2, 2, 2, 2), 1),  # identical points: IoU 1
        (AxisBox(2, 2, 2, 5), AxisBox(2, 2, 2, 5), 1),  # identical segments
        (AxisBox(2, 2, 2, 2), AxisBox(3, 2, 3, 2), 0),  # distinct points
        (AxisBox(2, 2, 2, 4), AxisBox(2, 3, 4, 3), 0),  # crossing segments
        (AxisBox(0, 0, 1, 1), AxisBox(1, 0, 2, 1), 0),  # touching along an edge
        (AxisBox(0, 0, 1, 1), AxisBox(1, 1, 2, 2), 0),  # touching at a corner
    ],
)
@pytest.mark.parametrize("threshold", THRESHOLDS)
def test_degenerate_and_touching_boxes(a, b, matched, threshold):
    gt = [_reaction(a, AxisBox(5, 5, 6, 6))]
    pred = [_reaction(b, AxisBox(5, 5, 6, 6))]
    report = score(gt, pred, "hard", threshold)
    assert report == reference_score(gt, pred, "hard", threshold)
    assert report.matched == (matched if threshold < 1.0 else 0)


@pytest.mark.parametrize("polygon", [True, False])
def test_two_members_partnered_by_one_are_left_to_the_predicate(polygon):
    # each pred reactant meets the first gt reactant, so the screen keeps the pair; no perfect matching exists
    a, b = AxisBox(0, 0, 4, 4), AxisBox(20, 0, 24, 4)
    product = (BoxedMember(EntityKind.MOLECULE, AxisBox(50, 50, 54, 54)),)
    gt = [BoxedReaction(reactants=(BoxedMember(EntityKind.MOLECULE, a), BoxedMember(EntityKind.MOLECULE, b)), products=product)]
    pred = [BoxedReaction(reactants=(BoxedMember(EntityKind.MOLECULE, a),) * 2, products=product)]
    for criterion in ("hard", "soft"):
        columns = evaluation._columns(gt), evaluation._columns(pred)
        assert evaluation._screened_pairs(*columns, criterion, polygon, 0.5) == [(0, 0, False)]
        assert score(gt, pred, criterion, 0.5, polygon) == reference_score(gt, pred, criterion, 0.5, polygon)
        assert score(gt, pred, criterion, 0.5, polygon).matched == 0


def test_matched_pairs_merge_across_components_in_gt_order():
    far = [_reaction(AxisBox(10 * i, 0, 10 * i + 5, 5), AxisBox(10 * i, 50, 10 * i + 5, 55)) for i in range(4)]
    gt = [far[2], far[0], far[3], far[1], far[0]]
    pred = [far[1], far[0], far[3], far[2], far[0]]
    report = score(gt, pred, "hard")
    assert report == reference_score(gt, pred, "hard")
    assert report.matched_pairs == ((0, 3), (1, 1), (2, 2), (3, 0), (4, 4))


# --- threshold validation ------------------------------------------------------


@pytest.mark.parametrize("threshold", [-0.1, math.nan, math.inf, 1.5])
def test_threshold_outside_unit_interval_rejected(threshold, tmp_path):
    r = _reaction(AxisBox(0, 0, 1, 1), AxisBox(5, 5, 6, 6))
    with pytest.raises(ValueError, match="not a finite number in"):
        score([r], [r], "hard", threshold)
    with pytest.raises(ValueError, match="not a finite number in"):
        score_corpus([], [], "soft", threshold)
    path = tmp_path / "reactions.json"
    path.write_text("[]", encoding="utf-8")
    with pytest.raises(SystemExit) as exit_info:
        main(["eval", "--gt", str(path), "--pred", str(path), "--iou", str(threshold)])
    assert exit_info.value.code == 2


@pytest.mark.parametrize("threshold", [0, 1])
def test_threshold_bounds_accepted(threshold):
    r = _reaction(AxisBox(0, 0, 1, 1), AxisBox(5, 5, 6, 6))
    doc = CorpusDocument("d", (r,))
    assert score([r], [r], "hard", threshold).matched == (1 if threshold == 0 else 0)
    assert score_corpus([doc], [doc], "hard", threshold).matched == (1 if threshold == 0 else 0)


# --- reply resolution ------------------------------------------------------------


def _entity_region(kind):
    return arrow_quads if kind == EntityKind.ARROW else boxes


RESOLUTION_KINDS = (EntityKind.MOLECULE, EntityKind.TEXT, EntityKind.ARROW)


def _resolution_document(draw, required=()):
    """Entities of the ``required`` kinds, then of any; a quarter copy an earlier region of their kind."""
    numbers = draw(st.lists(st.integers(0, 30), min_size=max(1, len(required)), max_size=10, unique=True))
    entities = []
    for k, number in enumerate(numbers):
        kind = required[k] if k < len(required) else draw(st.sampled_from(RESOLUTION_KINDS))
        if entities and draw(st.integers(0, 3)) == 0:  # a copy of an earlier region: IoU ties across ids
            same = [e for e in entities if e.kind == kind]
            region = same[0].region if same else draw(_entity_region(kind))
        else:
            region = draw(_entity_region(kind))
        entities.append(Entity(id=f"e{number}", kind=kind, region=region))
    return ReactionDocument(diagram_bounds=AxisBox(0, 0, 20, 20), entities=tuple(entities))


@st.composite
def resolution_cases(draw):
    """A document, then reply regions that echo one of its entities or land anywhere."""
    doc = _resolution_document(draw)
    entities = doc.entities
    queries = []
    for _ in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(RESOLUTION_KINDS))
        same = [e for e in entities if e.kind == kind]
        if same and draw(st.booleans()):
            region = same[draw(st.integers(0, len(same) - 1))].region
        else:
            region = draw(_entity_region(kind))
        queries.append((kind, region))
    return doc, queries


def _outcome(resolve, *args):
    try:
        return resolve(*args).id
    except ResolutionError as exc:
        return str(exc)


def _screened_outcomes(queries, doc):
    """Each query's entity id or error text, all queries resolved together as within one reply."""
    members = [BoxedMember(kind, region) for kind, region in queries]
    resolved = resolve_members(members, doc)
    return [str(resolved[member]) for member in members]


@settings(max_examples=100, deadline=None)
@given(case=resolution_cases())
def test_resolve_region_equals_full_scan(case):
    doc, queries = case
    assert _screened_outcomes(queries, doc) == [
        _outcome(reference_resolve_region, kind, region, doc) for kind, region in queries
    ]


# items every role rejects, whatever precedes them
MALFORMED_ITEMS = (
    "molecule",
    {"label": "molecule"},
    {"label": "reagent", "bbox": [0, 0, 1, 1]},
    {"label": "molecule", "bbox": [0, 0, 1]},
    {"label": "text", "bbox": ["0", True, "1e1", 5]},
    {"label": "molecule", "bbox": [0, 0, 1, math.inf]},
    {"label": "arrow", "bbox": [0, 0, 1, 0, 2, 0, 3, 0]},  # zero area
    {"label": "arrow", "bbox": [0, 0, 1, 1]},  # an arrow's box in any role: wrong kind or wrong length
    {"label": "molecule", "bbox": [0, 0, 1, 0, 1, 1, 0, 1]},  # a quad under a box kind
    {"label": "molecule", "bbox": [0, 0, 1, 0, 1, math.nan, 0, 1]},  # the length is checked before the values
)


@st.composite
def reply_cases(draw):
    """A document and a combiner reply over it: exact and perturbed echoes (IoU near the 0.9
    bar), stray boxes, repeated items, malformed items, reactions and roles of the wrong shape."""
    doc = _resolution_document(
        draw, required=(EntityKind.MOLECULE, EntityKind.MOLECULE, EntityKind.ARROW, EntityKind.TEXT)
    )
    items = []  # drawn so far, for repeats

    # rare cases take values inside the ranges: hypothesis favours the ends
    def item(allowed, taken):
        choice = draw(st.integers(0, 39))
        if 10 <= choice < 14 and items:
            return draw(st.sampled_from(items))
        if 20 <= choice < 22:
            return draw(st.sampled_from(MALFORMED_ITEMS))
        kind = draw(st.sampled_from([k for k in allowed if doc.by_kind(k)] or allowed))
        same = doc.by_kind(kind)
        if 30 <= choice < 33 or not same:
            bbox = region_to_array(draw(_entity_region(kind)))
        else:  # an echo, of an entity not yet in the reaction where there is one
            echoed = draw(st.sampled_from([e for e in same if e.id not in taken] or same))
            taken.add(echoed.id)
            bbox = region_to_array(echoed.region)
            if draw(st.integers(0, 3)) == 2:
                bbox = [v + draw(st.sampled_from((0, 0, 0.05, -0.05, 0.1, 1e-13))) for v in bbox]
        items.append({"label": kind.value, "bbox": bbox})
        return items[-1]

    members = (EntityKind.MOLECULE, EntityKind.TEXT)
    reply = []
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.integers(0, 29)) == 15:
            reply.append(draw(st.sampled_from(("reaction", None, 3))))
            continue
        reaction, taken = {}, set()
        for key, allowed, least in (("reactants", members, 1), ("products", members, 1),
                                    ("conditions", members, 0), ("arrow", (EntityKind.ARROW,), 0)):
            shape = draw(st.integers(0, 29))
            if shape == 15:
                continue  # a missing key
            reaction[key] = {} if shape == 16 else [item(allowed, taken) for _ in range(draw(st.integers(least, 2)))]
        if draw(st.integers(0, 3)) == 2:
            reaction["confidence"] = draw(st.sampled_from((0.25, 1, 0, 1.5, True, "0.5")))
        reply.append(reaction)
    return doc, json.dumps(reply)


def _reply_outcome(parse, raw, doc):
    try:
        reactions = parse(raw, doc)
    except (ResponseFormatError, ConstraintError, ResolutionError) as exc:
        return type(exc), str(exc)
    return [(r.reactants, r.products, r.conditions, r.arrows, r.score.hex()) for r in reactions]


@settings(max_examples=300, deadline=None)
@given(case=reply_cases())
def test_reply_resolution_equals_per_item_reference(case):
    """All items resolved in one screen per kind give the reactions, or the first error and its text,
    that grounding each item as the walk reaches it gives."""
    doc, raw = case
    assert _reply_outcome(parse_combiner_response, raw, doc) == _reply_outcome(
        reference_parse_combiner_response, raw, doc
    )


def test_malformed_item_after_an_unresolvable_one():
    """The walk raises the first problem in reply order, though the malformed item was read first."""
    doc = ReactionDocument(
        diagram_bounds=AxisBox(0, 0, 20, 20),
        entities=(
            Entity(id="m1", kind=EntityKind.MOLECULE, region=AxisBox(0, 0, 4, 4)),
            Entity(id="m2", kind=EntityKind.MOLECULE, region=AxisBox(10, 0, 14, 4)),
        ),
    )
    stray = {"label": "molecule", "bbox": [5, 10, 8, 12]}
    malformed = {"label": "molecule", "bbox": [0, True, 4, 4]}
    echo = {"label": "molecule", "bbox": [10, 0, 14, 4]}
    for reactants, error in (([stray, malformed], ResolutionError), ([malformed, stray], ResponseFormatError)):
        raw = json.dumps([{"reactants": reactants, "products": [echo], "conditions": [], "arrow": []}])
        outcome = _reply_outcome(parse_combiner_response, raw, doc)
        assert outcome[0] is error and outcome == _reply_outcome(reference_parse_combiner_response, raw, doc)


def test_repeated_boxes_resolve_once_to_the_same_entity():
    doc = ReactionDocument(
        diagram_bounds=AxisBox(0, 0, 20, 20),
        entities=tuple(
            Entity(id=i, kind=EntityKind.MOLECULE, region=AxisBox(x, 0, x + 4, 4))
            for i, x in (("m1", 0), ("m2", 10))
        ),
    )
    first, second = {"label": "molecule", "bbox": [0, 0, 4, 4]}, {"label": "molecule", "bbox": [10, 0, 14, 4.1]}
    raw = json.dumps([
        {"reactants": [first, first], "products": [second], "conditions": [], "arrow": []},
        {"reactants": [second], "products": [first], "conditions": [], "arrow": []},
    ])
    reactions = parse_combiner_response(raw, doc)
    assert [(r.reactants, r.products) for r in reactions] == [(("m1",), ("m2",)), (("m2",), ("m1",))]
    assert _reply_outcome(parse_combiner_response, raw, doc) == _reply_outcome(
        reference_parse_combiner_response, raw, doc
    )


def test_reply_with_thousands_of_arrows_stays_in_bounded_memory():
    """2,000 distinct reply arrows against 100 arrow entities are screened one reply arrow at a time.

    Screening all of them in one step would hold (2,000 × 4 × 400) float64
    temporaries, about 26 MB each; one at a time they take a few KB, and
    the reply's own objects stay under the bound.
    """
    grid = [(100 * c, 60 * r + 30) for r in range(10) for c in range(10)]
    entities = [
        Entity(id="m1", kind=EntityKind.MOLECULE, region=AxisBox(0, 700, 40, 740)),
        Entity(id="m2", kind=EntityKind.MOLECULE, region=AxisBox(100, 700, 140, 740)),
    ] + [
        Entity(id=f"a{k}", kind=EntityKind.ARROW, region=OrientedQuad(((x, y), (x + 80, y), (x + 80, y + 20), (x, y + 20))))
        for k, (x, y) in enumerate(grid)
    ]
    doc = ReactionDocument(diagram_bounds=AxisBox(0, 0, 1000, 800), entities=tuple(entities))
    echoes = [
        {"label": "arrow", "bbox": [x + d, y, x + 80 + d, y, x + 80 + d, y + 20, x + d, y + 20]}
        for d in (k / 64 for k in range(20))  # every echo distinct, each at IoU >= 0.99
        for x, y in grid
    ]
    raw = json.dumps([{
        "reactants": [{"label": "molecule", "bbox": [0, 700, 40, 740]}],
        "products": [{"label": "molecule", "bbox": [100, 700, 140, 740]}],
        "conditions": [],
        "arrow": echoes,
    }])
    tracemalloc.start()
    try:
        [reaction] = parse_combiner_response(raw, doc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert reaction.arrows == tuple(f"a{k}" for k in range(len(grid)))
    assert peak < 16 * 2**20, f"peak {peak / 2**20:.1f} MB"


def test_resolution_tie_goes_to_the_smaller_id():
    region = AxisBox(0, 0, 4, 4)
    doc = ReactionDocument(
        diagram_bounds=AxisBox(0, 0, 20, 20),
        entities=tuple(Entity(id=i, kind=EntityKind.MOLECULE, region=region) for i in ("m9", "m10", "m2")),
    )
    assert _screened_outcomes([(EntityKind.MOLECULE, region)], doc) == ["m10"]


def test_resolution_error_reports_best_iou_of_the_full_scan():
    doc = ReactionDocument(
        diagram_bounds=AxisBox(0, 0, 20, 20),
        entities=(Entity(id="m", kind=EntityKind.MOLECULE, region=AxisBox(0, 0, 4, 4)),),
    )
    for region, best in ((AxisBox(0, 0, 4, 2), "0.500"), (AxisBox(10, 10, 12, 12), "0.000")):
        [outcome] = _screened_outcomes([(EntityKind.MOLECULE, region)], doc)
        assert outcome.endswith(f"(best {best})")


def _member(region):
    """A reply member of ``region``: a quad as an arrow, a box as a molecule."""
    return BoxedMember(EntityKind.ARROW if isinstance(region, OrientedQuad) else EntityKind.MOLECULE, region)


def _table(regions):
    """The entity table of a document of ``regions`` in that order, kinds as :func:`_member` gives them."""
    entities = (Entity(id=f"e{k}", kind=_member(r).kind, region=r) for k, r in enumerate(regions))
    return ReactionDocument(diagram_bounds=AxisBox(0, 0, 20, 20), entities=tuple(entities)).table


def _kept(regions, reply):
    """The rows of a table of ``regions`` that the screen keeps for one ``reply`` region."""
    member = _member(reply)
    return table_screen_members(_table(regions), member.kind, [member])[0].tolist()


def test_table_screen_pairs_are_closed_and_row_major():
    regions = [AxisBox(0, 0, 1, 1), AxisBox(3, 3, 3, 3), AxisBox(5, 0, 6, 1)]
    others = [AxisBox(1, 1, 2, 2), AxisBox(3, 3, 3, 3), AxisBox(6.5, 0, 7, 1)]
    table = _table(regions)
    rows, cols = bounds_overlap(table.bounds, regions_bounds(others))
    assert list(zip(rows.tolist(), cols.tolist())) == [(0, 0), (1, 1)]
    rows, cols = table_screen_members(table, EntityKind.MOLECULE, [_member(AxisBox(1, 0, 5, 0)), _member(AxisBox(3, 3, 3, 3))])
    assert list(zip(rows.tolist(), cols.tolist())) == [(0, 0), (1, 1), (2, 0)]
    # a reply box is screened against the rows of its own kind only
    quad = OrientedQuad(((0, 0), (1, 0), (1, 1), (0, 1)))
    assert _kept([quad, AxisBox(0, 0, 1, 1)], AxisBox(0, 0, 1, 1)) == [1]


# --- the quad screen: the clip's first step, evaluated exactly -----------------


@st.composite
def quad_screen_cases(draw):
    entities = draw(st.lists(arrow_quads, min_size=1, max_size=6))
    reply = draw(st.one_of(arrow_quads, st.sampled_from(entities)))  # identical quads too
    return entities, reply


@settings(max_examples=400, deadline=None)
@given(case=quad_screen_cases())
@example(case=([EXTRAPOLATING], UNIT_SQUARE))
@example(case=([UNIT_SQUARE], EXTRAPOLATING))
@example(case=([AT_TOLERANCE], UNIT_SQUARE))
def test_quads_the_screen_leaves_out_clip_to_nothing(case):
    entities, reply = case
    kept = set(_kept(entities, reply))
    for i, entity in enumerate(entities):
        if i not in kept:
            assert reference_clip_convex(list(entity.hull), list(reply.hull)) == []
            assert region_iou(entity, reply) == 0.0


@settings(max_examples=300, deadline=None)
@given(
    members=st.lists(st.one_of(arrow_quads, boxes), min_size=1, max_size=6),
    queries=st.lists(st.one_of(arrow_quads, arrow_quads, boxes), min_size=1, max_size=5),
)
def test_batched_screen_equals_one_query_at_a_time(members, queries):
    """A kind's many queries in one call keep the pairs one query per call keeps, all rows of that kind,
    and every pair of that kind left out scores IoU exactly 0."""
    table = _table(members)
    for kind in (EntityKind.MOLECULE, EntityKind.ARROW):
        batch = [m for m in map(_member, queries) if m.kind == kind]
        if not batch:
            continue
        rows, cols = table_screen_members(table, kind, batch)
        pairs = list(zip(rows.tolist(), cols.tolist()))
        assert pairs == sorted(pairs)
        assert pairs == sorted(
            (i, j) for j, query in enumerate(batch) for i in table_screen_members(table, kind, [query])[0].tolist()
        )
        assert all(_member(members[i]).kind == kind for i, _ in pairs)
        kept = set(pairs)
        for i, member in enumerate(members):
            for j, query in enumerate(batch):
                if (i, j) not in kept and _member(member).kind == kind:
                    assert region_iou(member, query.region) == 0.0


@pytest.mark.parametrize(
    "entity, reply",
    [
        (AT_TOLERANCE, UNIT_SQUARE),
        # the entity's corner is 5e-13 outside the reply's unit-length edge
        # (cross -5e-13, kept) but the reply is 5e-13 outside the entity's
        # length-10 edge (cross -5e-12): the roles are not interchangeable
        (
            OrientedQuad(((0, 0), (10, 0), (10, 10), (0, 10))),
            OrientedQuad(((10 + 5e-13, 0), (11, 0), (11, 1), (10 + 5e-13, 1))),
        ),
        (EXTRAPOLATING, UNIT_SQUARE),
        (UNIT_SQUARE, EXTRAPOLATING),
    ],
    ids=["vertex-at-tolerance", "roles-entity-is-subject", "extrapolating-entity", "extrapolating-reply"],
)
def test_quads_touching_within_tolerance_are_kept(entity, reply):
    assert region_iou(entity, reply) > 0.0
    assert _kept([entity], reply) == [0]


def test_arrow_screen_leaves_out_far_arrows_and_every_box():
    members = [AxisBox(0, 0, 1, 1), UNIT_SQUARE, OrientedQuad(((5, 5), (6, 5), (6, 6), (5, 6)))]
    assert _kept(members, UNIT_SQUARE) == [1]


@pytest.mark.parametrize("role", ["reactants", "products", "conditions", "arrow"])
@pytest.mark.parametrize("bad", MALFORMED_ITEMS[:4], ids=["string", "no-bbox", "unknown-label", "short-bbox"])
def test_an_ungrounded_member_before_a_malformed_one_in_its_role_is_raised_first(two_reaction_json, two_reaction_doc, role, bad):
    """The members a role read before its malformed item are grounded, and the first problem in reply order wins."""
    data = json.loads(two_reaction_json)
    stray = {"label": "arrow", "bbox": [900, 900, 950, 900, 950, 910, 900, 910]} if role == "arrow" else \
        {"label": "molecule", "bbox": [900, 900, 950, 950]}
    data[1][role] = [stray, bad]
    raw = json.dumps(data)
    outcome = _reply_outcome(parse_combiner_response, raw, two_reaction_doc)
    assert outcome[0] is ResolutionError and outcome[1].startswith("reaction 1: ")
    assert outcome == _reply_outcome(reference_parse_combiner_response, raw, two_reaction_doc)


@pytest.mark.parametrize("vertex", range(8))
def test_reply_arrow_at_the_float_limit_is_a_typed_error(two_reaction_json, two_reaction_doc, vertex):
    """A vertex at -1e308 overflows the screen's cross products to the inf and nan the clip's Python
    floats reach too: the reply fails with the reference's ``ResolutionError``, not a numpy warning."""
    data = json.loads(two_reaction_json)
    data[0]["arrow"][0]["bbox"][vertex] = -1e308
    raw = json.dumps(data)
    outcome = _reply_outcome(parse_combiner_response, raw, two_reaction_doc)
    assert outcome[0] is ResolutionError
    assert outcome == _reply_outcome(reference_parse_combiner_response, raw, two_reaction_doc)


def _hex(polygon):
    return [(x.hex(), y.hex()) for x, y in polygon]


@settings(max_examples=300, deadline=None)
@given(subject=arrow_quads, clip=arrow_quads)
@example(subject=EXTRAPOLATING, clip=UNIT_SQUARE)
@example(subject=UNIT_SQUARE, clip=EXTRAPOLATING)
def test_clip_convex_returns_the_reference_floats(subject, clip):
    assert _hex(_clip_convex(list(subject.hull), list(clip.hull))) == _hex(
        reference_clip_convex(list(subject.hull), list(clip.hull))
    )


def test_clip_convex_equals_reference_on_random_quads():
    rng = random.Random(11)
    rotated = [random_quad(rng, limit=200.0) for _ in range(60)]
    for a, b in zip(rotated, rotated[1:] + rotated[:1]):
        assert _hex(_clip_convex(list(a.hull), list(b.hull))) == _hex(reference_clip_convex(list(a.hull), list(b.hull)))
