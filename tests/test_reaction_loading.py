"""Reaction files load into validated coordinates; regions are built only when read.

The loader is compared with the one that builds each member's region as
it reaches it (``reference_boxed_reactions_from_list``): equal reactions,
or the same exception type and message. The quad screen must never pass
a quad that ``OrientedQuad`` rejects.
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rxnparse import evaluation
from rxnparse.entities import EntityKind
from rxnparse.evaluation import score_corpus
from rxnparse.geometry import AxisBox, OrientedQuad, quads_clearly_valid, region_from_array, region_to_array
from rxnparse.reactions import BoxedMember, ResponseFormatError, boxed_reactions_from_json, boxed_reactions_from_list

from helpers import reference_boxed_reactions_from_list

KEYS = ("reactants", "products", "conditions", "arrow")
LABELS = [kind.value for kind in EntityKind]

# a value of every class the loader tells apart
odd_numbers = st.sampled_from([True, False, "1", "x", None, math.nan, math.inf, -math.inf, 2**1100, -(2**1100), [1]])
small = st.one_of(st.integers(-50, 50), st.floats(-50, 50, allow_nan=False).map(lambda v: round(v, 3)))


@st.composite
def boxes(draw):
    x0, y0, w, h = draw(small), draw(small), draw(st.integers(0, 40)), draw(st.integers(0, 40))
    box = [x0, y0, x0 + w, y0 + h]
    if draw(st.integers(0, 11)) == 0:  # corners out of order
        box = [box[2] + 1, box[1], box[0], box[3]] if draw(st.booleans()) else [box[0], box[3] + 0.5, box[2], box[1]]
    return box


@st.composite
def quads(draw):
    shape = draw(st.sampled_from(["random"] * 4 + ["collinear", "coincident", "tiny", "thin", "far"]))
    if shape == "random":
        points = [(draw(small), draw(small)) for _ in range(4)]
    elif shape == "collinear":
        x0, y0, dx, dy = draw(small), draw(small), draw(st.integers(-5, 5)), draw(st.integers(-5, 5))
        points = [(x0 + t * dx, y0 + t * dy) for t in draw(st.lists(st.integers(-3, 3), min_size=4, max_size=4))]
    elif shape == "coincident":
        p, q = (draw(small), draw(small)), (draw(small), draw(small))
        points = draw(st.sampled_from([[p, p, p, p], [p, p, q, q], [p, q, p, q], [p, p, p, q]]))
    elif shape == "tiny":  # areas around the 1e-12 cut-off, near the origin or near 1e8
        base = draw(st.sampled_from([0.0, 1.0, 1e4, 1e8, -1e8]))
        area = draw(st.sampled_from([0.0, 5e-13, 1e-12, 1.0000001e-12, 2e-12, 1e-11, 1e-6, 1.0]))
        w = draw(st.sampled_from([1e-6, 1e-3, 1.0, 1e3]))
        points = [(base, base), (base + w, base), (base + w, base + area / w), (base, base + area / w)]
    elif shape == "thin":  # one vertex barely off the line through the others
        off = draw(st.sampled_from([0.0, 1e-13, 1e-12, 3e-12, 1e-9, 1e-3]))
        points = [(0.0, 0.0), (1.0, 0.0), (2.0, off), (3.0, 0.0)]
    else:  # a small quad far from the origin
        base = draw(st.sampled_from([1e8, -1e8, 3e8 + 0.5]))
        points = [(base + x, base + y) for x, y in [(0, 0), (draw(st.integers(0, 9)), 0), (9, 9), (0, draw(st.integers(0, 9)))]]
    points = draw(st.permutations(points))
    return [v for point in points for v in point]


@st.composite
def bboxes(draw):
    # hypothesis favours the ends of a range, so the odd branches sit inside it
    choice = draw(st.integers(0, 29))
    if choice <= 12 or choice >= 24:
        return draw(boxes())
    if choice <= 19:
        return draw(quads())
    if choice == 20:  # 3-, 5- and 9-number arrays
        return draw(st.lists(small, min_size=draw(st.sampled_from([0, 3, 5, 9])), max_size=9).map(lambda v: v[:9]))
    if choice == 21:  # one odd value in an otherwise valid box or quad
        values = draw(st.one_of(boxes(), quads()))
        values[draw(st.integers(0, len(values) - 1))] = draw(odd_numbers)
        return values
    if choice == 22:
        return draw(st.sampled_from([{"x": 1}, "0 0 1 1", None, 7, (0, 0, 1, 1)]))
    values = draw(st.one_of(boxes(), quads()))  # a valid value of another class: bool, string, NaN, 2**1100
    values[draw(st.integers(0, len(values) - 1))] = draw(odd_numbers)
    return values


@st.composite
def items(draw):
    choice = draw(st.integers(0, 59))
    if choice == 30:
        return draw(st.sampled_from(["molecule", 3, None, ["label"]]))
    label = draw(st.sampled_from(LABELS * 4 + ["reagent", ["molecule"], 1] + LABELS * 4))
    item = {"label": label, "bbox": draw(bboxes())}
    if choice == 31:
        del item[draw(st.sampled_from(["label", "bbox"]))]
    return item


@st.composite
def reactions(draw):
    choice = draw(st.integers(0, 59))
    if choice == 30:
        return draw(st.sampled_from([[], "reaction", None]))
    reaction = {key: draw(st.lists(items(), max_size=3)) for key in KEYS}
    if choice == 31:
        del reaction[draw(st.sampled_from(KEYS))]
    if choice == 32:
        reaction[draw(st.sampled_from(KEYS))] = draw(st.sampled_from([{"label": "text"}, "molecule", None]))
    return reaction


def _outcome(load, data):
    try:
        return "ok", load(data)
    except Exception as exc:  # the type and message are what is compared
        return type(exc), str(exc)


def _assert_same(data):
    got, expected = _outcome(boxed_reactions_from_list, data), _outcome(reference_boxed_reactions_from_list, data)
    assert got[0] == expected[0], (got, expected)
    if got[0] != "ok":
        assert got[1] == expected[1]
        return
    assert got[1] == expected[1]
    for loaded, built in zip(got[1], expected[1]):
        for role in ("reactants", "products", "conditions", "arrows"):
            for a, b in zip(getattr(loaded, role), getattr(built, role)):
                assert type(a.region) is type(b.region) and a.region == b.region
                assert region_to_array(a.region) == region_to_array(b.region)


@settings(max_examples=200, deadline=None)
@given(st.lists(reactions(), max_size=5))
@example([{"reactants": [{"label": "molecule", "bbox": [0, 0, 1, 1]}], "products": [], "conditions": [],
           "arrow": [{"label": "arrow", "bbox": [0, 0, 1, 1, 2, 2, 3, 3]}]},
          {"reactants": "x", "products": [], "conditions": [], "arrow": []}])
def test_loader_equals_the_member_by_member_reference(data):
    _assert_same(data)


@st.composite
def parallelograms(draw):
    """Quads of positive area in any vertex order, near the origin or near 1e8."""
    x, y = draw(small), draw(small)
    base = draw(st.sampled_from([0, 0, 0, 1e8]))
    a, d, shear = draw(st.integers(1, 30)), draw(st.integers(1, 30)), draw(st.sampled_from([0, 0, 0.5, -2]))
    points = [(x, y), (x + a, y + shear), (x + a, y + d + shear), (x, y + d)]
    points = draw(st.permutations([(px + base, py + base) for px, py in points]))
    return [v for point in points for v in point]


plain_boxes = st.builds(lambda x, y, w, h: [x, y, x + w, y + h], small, small, st.integers(0, 40), st.integers(0, 40))
plain_items = st.builds(lambda label, bbox: {"label": label, "bbox": bbox}, st.sampled_from(LABELS),
                        st.one_of(plain_boxes, plain_boxes, parallelograms()))
plain_reactions = st.fixed_dictionaries({key: st.lists(plain_items, max_size=3) for key in KEYS})


@settings(max_examples=100, deadline=None)
@given(st.lists(plain_reactions, max_size=6))
def test_well_formed_documents_load_as_the_reference(data):
    _assert_same(data)


@pytest.mark.parametrize("bad", [True, "1", math.nan, math.inf, 2**1100, -(2**1100)],
                         ids=["bool", "string", "nan", "inf", "huge", "-huge"])
def test_first_error_in_document_order_is_raised(bad):
    good = {"label": "molecule", "bbox": [0, 0, 1, 1]}
    box_error = {"label": "molecule", "bbox": [bad, 0, 1, 1]}
    quad_error = {"label": "arrow", "bbox": [0, 0, 1e8, 0, 2e8, 0, 3e8, 0]}
    order_error = {"label": "text", "bbox": [2, 0, 1, 1]}

    def reaction(*members, arrow=(), products=(good,)):
        return {"reactants": list(members), "products": list(products), "conditions": [], "arrow": list(arrow)}

    documents = [
        [reaction(good), reaction(box_error), reaction(order_error)],  # bulk errors in two reactions
        [reaction(good, arrow=[quad_error]), reaction(box_error)],
        [reaction(order_error), {"reactants": []}],  # a bulk error before a structural one
        [{"reactants": []}, reaction(box_error)],  # a structural error before a bulk one
        [reaction(good, products=[{"label": "reagent", "bbox": [0, 0, 1, 1]}]), reaction(box_error)],
        [reaction(box_error, products=[{"label": "text", "bbox": [0, 0, 1]}])],  # two in one reaction
        [reaction(good, products=[{"label": "text", "bbox": (0, 0, 1)}]), reaction(order_error)],
        "not an array",
    ]
    for data in documents:
        _assert_same(data)
        with pytest.raises(ResponseFormatError):
            boxed_reactions_from_list(data)


quad_coordinates = st.one_of(
    st.floats(-1e3, 1e3, allow_nan=False),
    st.sampled_from([0.0, 1e-13, 1e-12, 1e-6, 1e8, 1e8 + 1, -1e8, 1e150, 1e200, 1e-200]),
)


@settings(max_examples=1000, deadline=None)
@given(st.one_of(st.lists(quad_coordinates, min_size=8, max_size=8), quads()))
def test_the_quad_screen_passes_only_quads_the_constructor_accepts(values):
    if not quads_clearly_valid(np.array([values], dtype=float))[0]:
        return
    OrientedQuad(tuple(zip(values[::2], values[1::2])))  # must not raise


def test_the_quad_screen_passes_ordinary_arrows():
    arrows = np.array([[10, 120, 200, 118, 200, 98, 10, 100], [0, 0, 9, 0, 9, 2, 0, 2], [1e8, 1e8, 1e8 + 9e3, 1e8, 1e8 + 9e3, 1e8 + 9e3, 1e8, 1e8 + 9e3]])
    assert quads_clearly_valid(arrows).tolist() == [True, True, True]
    flat = np.array([[0, 0, 1, 1, 2, 2, 3, 3], [1e8, 1e8, 1e8 + 2, 1e8, 1e8 + 2, 1e8 + 2, 1e8, 1e8 + 2]])
    assert quads_clearly_valid(flat).tolist() == [False, False]  # collinear; too small for its magnitude


def test_members_equal_and_hash_by_kind_and_coordinates():
    loaded = boxed_reactions_from_json(json.dumps([
        {"reactants": [{"label": "molecule", "bbox": [0, 0, 2, 3]}], "products": [{"label": "text", "bbox": [1, 1, 2, 2]}],
         "conditions": [], "arrow": [{"label": "arrow", "bbox": [0, 0, 9, 0, 9, 2, 0, 2]}]}
    ]))[0]
    built = BoxedMember(EntityKind.MOLECULE, AxisBox(0, 0, 2, 3))
    assert loaded.reactants[0] == built and hash(loaded.reactants[0]) == hash(built)
    assert loaded.reactants[0].coords == (0.0, 0.0, 2.0, 3.0)
    assert loaded.reactants[0] != BoxedMember(EntityKind.TEXT, AxisBox(0, 0, 2, 3))
    assert loaded.arrows[0].coords == (0.0, 0.0, 9.0, 0.0, 9.0, 2.0, 0.0, 2.0)
    assert loaded.arrows[0].region == region_from_array([0, 0, 9, 0, 9, 2, 0, 2])
    assert built.region is built.region  # the region given is kept


def _eval_like_document(shift):
    """Reactions of one molecule reactant and product, a text condition and an arrow quad, as eval-corpus writes."""
    reactions = []
    for k in range(6):
        x = 300 * k + shift
        reactions.append({
            "reactants": [{"label": "molecule", "bbox": [x, 10, x + 80, 90]}],
            "products": [{"label": "molecule", "bbox": [x + 200, 10, x + 280, 90]}],
            "conditions": [{"label": "text", "bbox": [x + 110, 20, x + 170, 40]}] if k % 2 else [],
            "arrow": [{"label": "arrow", "bbox": [x + 100, 52, x + 180, 50, x + 180, 60, x + 100, 62]}],
        })
    return json.dumps(reactions)


def test_loading_and_scoring_builds_no_region(monkeypatch):
    built = []
    for cls in (AxisBox, OrientedQuad):
        original = cls.__post_init__
        monkeypatch.setattr(cls, "__post_init__", lambda self, original=original: (built.append(self), original(self)))
    gt = evaluation.CorpusDocument("d", tuple(boxed_reactions_from_json(_eval_like_document(0))))
    pred = evaluation.CorpusDocument("d", tuple(boxed_reactions_from_json(_eval_like_document(6))[1:]))
    reports = [score_corpus([gt], [pred], criterion) for criterion in ("hard", "soft")]
    assert [r.matched for r in reports] == [5, 5]
    assert built == []
    assert gt.reactions[0].arrows[0].region.area > 0 and len(built) == 1  # built on first read
