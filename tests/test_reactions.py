import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rxnparse.entities import Entity, EntityKind, ReactionDocument
from rxnparse.geometry import AxisBox, OrientedQuad, region_to_array
from rxnparse.reactions import (
    BoxedReaction,
    ConstraintError,
    Reaction,
    ResolutionError,
    ResponseFormatError,
    boxed_reactions_from_json,
    parse_combiner_response,
    reaction_or_none,
    reactions_to_json,
)

from helpers import make_doc, molecule_entity, reference_reactions_to_json


class TestParseCombinerResponse:
    def test_two_reaction_example(self, two_reaction_json, two_reaction_doc):
        reactions = parse_combiner_response(two_reaction_json, two_reaction_doc)
        assert len(reactions) == 2
        first, second = reactions
        assert (len(first.reactants), len(first.products), len(first.conditions), len(first.arrows)) == (1, 1, 2, 1)
        assert (len(second.reactants), len(second.products), len(second.conditions), len(second.arrows)) == (2, 1, 2, 1)

    def test_empty_array(self, two_reaction_doc):
        assert parse_combiner_response("[]", two_reaction_doc) == []

    def test_empty_products_constraint(self, two_reaction_doc):
        payload = [
            {
                "reactants": [{"label": "molecule", "bbox": [38, 2, 434, 234]}],
                "products": [],
                "conditions": [],
                "arrow": [],
            }
        ]
        with pytest.raises(ConstraintError):
            parse_combiner_response(json.dumps(payload), two_reaction_doc)

    def test_not_json(self, two_reaction_doc):
        with pytest.raises(ResponseFormatError):
            parse_combiner_response("here you go: []", two_reaction_doc)

    def test_missing_keys(self, two_reaction_doc):
        with pytest.raises(ResponseFormatError):
            parse_combiner_response('[{"reactants": []}]', two_reaction_doc)

    def test_arrow_label_restricted(self, two_reaction_doc):
        payload = [
            {
                "reactants": [{"label": "molecule", "bbox": [38, 2, 434, 234]}],
                "products": [{"label": "molecule", "bbox": [912, 14, 1309, 231]}],
                "conditions": [],
                "arrow": [{"label": "molecule", "bbox": [38, 2, 434, 234]}],
            }
        ]
        with pytest.raises(ResponseFormatError):
            parse_combiner_response(json.dumps(payload), two_reaction_doc)

    def test_unresolvable_box(self, two_reaction_doc):
        payload = [
            {
                "reactants": [{"label": "molecule", "bbox": [5000, 5000, 5100, 5100]}],
                "products": [{"label": "molecule", "bbox": [912, 14, 1309, 231]}],
                "conditions": [],
                "arrow": [],
            }
        ]
        with pytest.raises(ResolutionError):
            parse_combiner_response(json.dumps(payload), two_reaction_doc)

    def test_slightly_perturbed_box_resolves(self, two_reaction_doc):
        payload = [
            {
                "reactants": [{"label": "molecule", "bbox": [39, 3, 435, 235]}],
                "products": [{"label": "molecule", "bbox": [912, 14, 1309, 231]}],
                "conditions": [],
                "arrow": [],
            }
        ]
        reactions = parse_combiner_response(json.dumps(payload), two_reaction_doc)
        assert reactions[0].reactants == ("e0",)

    def test_confidence_carried(self, two_reaction_doc):
        payload = [
            {
                "reactants": [{"label": "molecule", "bbox": [38, 2, 434, 234]}],
                "products": [{"label": "molecule", "bbox": [912, 14, 1309, 231]}],
                "conditions": [],
                "arrow": [],
                "confidence": 0.75,
            }
        ]
        reactions = parse_combiner_response(json.dumps(payload), two_reaction_doc)
        assert reactions[0].score == 0.75

    @pytest.mark.parametrize(
        "confidence, accepted",
        [("0", True), ("1", True), ("7.5", False), ("-2", False), ("NaN", False), ("Infinity", False)],
    )
    def test_confidence_range(self, two_reaction_doc, confidence, accepted):
        raw = (
            '[{"reactants": [{"label": "molecule", "bbox": [38, 2, 434, 234]}],'
            ' "products": [{"label": "molecule", "bbox": [912, 14, 1309, 231]}],'
            f' "conditions": [], "arrow": [], "confidence": {confidence}}}]'
        )
        if accepted:
            assert parse_combiner_response(raw, two_reaction_doc)[0].score == float(confidence)
        else:
            with pytest.raises(ResponseFormatError, match="not in \\[0, 1\\]"):
                parse_combiner_response(raw, two_reaction_doc)


    @pytest.mark.parametrize(
        "item",
        [
            '{"label": "molecule", "bbox": [38, 2, NaN, 234]}',
            '{"label": "molecule", "bbox": [38, 2, 434, Infinity]}',
        ],
        ids=["nan", "infinity"],
    )
    def test_non_finite_reply_box_is_a_format_error(self, two_reaction_doc, item):
        # not a ResolutionError "(best 0.000)": the box is malformed, not unmatched
        raw = (
            f'[{{"reactants": [{item}],'
            ' "products": [{"label": "molecule", "bbox": [912, 14, 1309, 231]}],'
            ' "conditions": [], "arrow": []}]'
        )
        with pytest.raises(ResponseFormatError, match="bad bbox .*finite"):
            parse_combiner_response(raw, two_reaction_doc)

    @pytest.mark.parametrize(
        "bbox",
        ['["0", true, "1e1", 5]', '[38, 2, "434", 234]', "[38, 2, 434, true]", "[38, null, 434, 234]"],
        ids=["strings-and-bool", "string", "bool", "null"],
    )
    def test_non_number_reply_box_is_a_format_error(self, two_reaction_doc, bbox):
        # a string or a boolean is not read as a coordinate, even where float() would take it
        raw = (
            f'[{{"reactants": [{{"label": "molecule", "bbox": {bbox}}}],'
            ' "products": [{"label": "molecule", "bbox": [912, 14, 1309, 231]}],'
            ' "conditions": [], "arrow": []}]'
        )
        with pytest.raises(ResponseFormatError, match="bad bbox .*coordinates must be numbers"):
            parse_combiner_response(raw, two_reaction_doc)

    def test_non_finite_reply_arrow_is_a_format_error(self, two_reaction_json, two_reaction_doc):
        data = json.loads(two_reaction_json)
        data[0]["arrow"][0]["bbox"][5] = float("nan")
        with pytest.raises(ResponseFormatError, match="bad bbox .*finite"):
            parse_combiner_response(json.dumps(data), two_reaction_doc)


class TestRoundTrip:
    def test_byte_exact_bbox_arrays(self, two_reaction_json, two_reaction_doc):
        reactions = parse_combiner_response(two_reaction_json, two_reaction_doc)
        emitted = reactions_to_json(reactions, two_reaction_doc)
        assert json.loads(emitted) == json.loads(two_reaction_json)
        compact = json.dumps(json.loads(emitted))
        assert "[38, 2, 434, 234]" in compact
        assert "[513, 155, 880, 153, 880, 130, 513, 132]" in compact

    def test_key_order(self, two_reaction_json, two_reaction_doc):
        reactions = parse_combiner_response(two_reaction_json, two_reaction_doc)
        obj = json.loads(reactions_to_json(reactions, two_reaction_doc))[0]
        assert list(obj) == ["reactants", "products", "conditions", "arrow"]

    def test_reparse_of_own_output(self, two_reaction_json, two_reaction_doc):
        reactions = parse_combiner_response(two_reaction_json, two_reaction_doc)
        emitted = reactions_to_json(reactions, two_reaction_doc)
        again = parse_combiner_response(emitted, two_reaction_doc)
        assert [
            (r.reactants, r.products, r.conditions, r.arrows) for r in again
        ] == [(r.reactants, r.products, r.conditions, r.arrows) for r in reactions]


class TestReactionInvariants:
    def test_empty_sides_rejected(self):
        with pytest.raises(ConstraintError):
            Reaction(reactants=(), products=("b",))
        with pytest.raises(ConstraintError):
            Reaction(reactants=("a",), products=())

    def test_overlap_rejected(self):
        with pytest.raises(ConstraintError):
            Reaction(reactants=("a", "b"), products=("b",))

    def test_duplicates_rejected(self):
        with pytest.raises(ConstraintError):
            Reaction(reactants=("a", "a"), products=("b",))


def _first_occurrences(ids, excluded=()):
    out = []
    for entity_id in ids:
        if entity_id not in out and entity_id not in excluded:
            out.append(entity_id)
    return out


_role_lists = st.lists(st.sampled_from("abcde"), max_size=6)


@settings(max_examples=300, deadline=None)
@given(_role_lists, _role_lists, _role_lists, _role_lists, st.floats(allow_nan=False))
def test_reaction_or_none_matches_spelled_out_roles(reactants, products, conditions, arrows, score):
    """Each role keeps its first occurrences, products drop reactants, conditions drop both,
    and an empty side gives None instead of an error."""
    expected_reactants = _first_occurrences(reactants)
    expected_products = _first_occurrences(products, expected_reactants)
    expected_conditions = _first_occurrences(conditions, expected_reactants + expected_products)
    built = reaction_or_none(reactants, products, conditions, arrows, score)
    if not expected_reactants or not expected_products:
        assert built is None
        return
    assert built == Reaction(
        reactants=tuple(expected_reactants),
        products=tuple(expected_products),
        conditions=tuple(expected_conditions),
        arrows=tuple(_first_occurrences(arrows)),
        score=score,
    )


def test_reaction_or_none_takes_iterators_and_defaults():
    built = reaction_or_none(iter("aba"), iter("bc"))
    assert built == Reaction(reactants=("a", "b"), products=("c",))
    assert reaction_or_none(["a"], ["a"], ["b"]) is None


def _boxed_payload(**roles):
    reaction = {
        "reactants": [{"label": "molecule", "bbox": [0, 0, 10, 10]}],
        "products": [{"label": "molecule", "bbox": [50, 0, 60, 10]}],
        "conditions": [],
        "arrow": [],
    }
    reaction.update(roles)
    return json.dumps([reaction])


class TestBoxedViews:
    @pytest.mark.parametrize(
        "payload, message",
        [
            (_boxed_payload(products=[{"label": "molecule", "bbox": list(range(9))}]), "reaction 0: bad bbox"),
            (_boxed_payload(arrow=[{"label": "arrow", "bbox": [0, 0, 1, 1, 2, 2, 3, 3]}]), "degenerate"),
            (_boxed_payload(reactants=[{"label": "molecule", "bbox": [0, 0, "x", 1]}]), "reaction 0: bad bbox"),
            (_boxed_payload(conditions={"label": "text"}), "reaction 0: reaction roles must be arrays"),
            ("[3]", "reaction 0 is not an object"),
            (_boxed_payload(reactants=[{"label": "molecule", "bbox": [math.nan, 0, 1, 1]}]), "reaction 0: bad bbox"),
            (_boxed_payload(arrow=[{"label": "arrow", "bbox": [0, 0, 9, 0, 9, math.inf, 0, 2]}]), "finite"),
            (_boxed_payload(reactants=[{"label": "molecule", "bbox": ["0", True, "1e1", 5]}]),
             "reaction 0: bad bbox .*coordinates must be numbers"),
            (_boxed_payload(arrow=[{"label": "arrow", "bbox": [0, 0, 9, 0, 9, 2, False, 2]}]),
             "reaction 0: bad bbox .*coordinates must be numbers"),
        ],
        ids=["nine-numbers", "degenerate-quad", "not-a-number", "role-not-array", "reaction-not-object",
             "nan-box", "infinite-quad", "strings-and-bool", "bool-in-quad"],
    )
    def test_malformed_eval_reactions_are_format_errors(self, payload, message):
        with pytest.raises(ResponseFormatError, match=message):
            boxed_reactions_from_json(payload)

    def test_any_box_shape_under_any_label(self):
        # eval files from other systems give arrows 4-number boxes
        boxed = boxed_reactions_from_json(_boxed_payload(arrow=[{"label": "arrow", "bbox": [20, 4, 40, 6]}]))
        assert boxed[0].arrows[0].kind == EntityKind.ARROW
        assert region_to_array(boxed[0].arrows[0].region) == [20, 4, 40, 6]

    def test_from_json(self, two_reaction_json):
        boxed = boxed_reactions_from_json(two_reaction_json)
        assert len(boxed) == 2
        assert isinstance(boxed[0], BoxedReaction)
        assert len(boxed[1].reactants) == 2

    def test_resolution_prefers_exact_match(self):
        # two overlapping molecules: the box must resolve to the exact one
        doc = make_doc(
            [
                molecule_entity("big", 0, 0, w=400, h=220),
                molecule_entity("small", 100, 40, w=200, h=120),
            ]
        )
        payload = [
            {
                "reactants": [{"label": "molecule", "bbox": [100, 40, 300, 160]}],
                "products": [{"label": "molecule", "bbox": [0, 0, 400, 220]}],
                "conditions": [],
                "arrow": [],
            }
        ]
        reactions = parse_combiner_response(json.dumps(payload), doc)
        assert reactions[0].reactants == ("small",)
        assert reactions[0].products == ("big",)


# --- the emitter against one json.dumps -----------------------------------------

# negative, fractional and integral coordinates, and integral floats too large for an int64
COORDINATES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -3.0, 0.5, -2.25, 1e300, -1e300, 2.0**53, 1e22, 1e16 + 2]),
    st.floats(-1e6, 1e6, allow_nan=False),
    st.integers(-(10**6), 10**6).map(float),
)
MEMBER_KINDS = (EntityKind.MOLECULE, EntityKind.TEXT, EntityKind.IDENTIFIER)


@st.composite
def emitted_documents(draw):
    """(reactions, doc): documents built directly, so no coordinate is clamped to the diagram."""
    entities = []
    for k in range(draw(st.integers(2, 8))):
        a, b = sorted(draw(st.tuples(COORDINATES, COORDINATES)))
        c, d = sorted(draw(st.tuples(COORDINATES, COORDINATES)))
        entities.append(Entity(f"e{k}", draw(st.sampled_from(MEMBER_KINDS)), AxisBox(a, c, b, d)))
    for k in range(draw(st.integers(0, 3))):
        x, y = draw(st.floats(-1e4, 1e4)), draw(st.floats(-1e4, 1e4))
        w, h = draw(st.sampled_from([1.0, 2.5, 40.0])), draw(st.sampled_from([0.75, 3.0, 20.0]))
        skew = draw(st.sampled_from([0.0, 0.5, -1.25]))
        quad = OrientedQuad(((x, y), (x + w, y + skew), (x + w, y + skew + h), (x, y + h)))
        entities.append(Entity(f"a{k}", EntityKind.ARROW, quad))
    doc = ReactionDocument(AxisBox(0.0, 0.0, 100.0, 100.0), tuple(entities))
    members = [e.id for e in entities if e.kind != EntityKind.ARROW]
    arrows = [e.id for e in entities if e.kind == EntityKind.ARROW]
    reactions = []
    for _ in range(draw(st.integers(0, 4))):
        order = draw(st.permutations(members))
        first = draw(st.integers(1, len(order) - 1))
        second = draw(st.integers(first + 1, len(order)))
        reaction_arrows = draw(st.lists(st.sampled_from(arrows), unique=True, max_size=2)) if arrows else []
        roles = (order[:first], order[first:second], order[second:], reaction_arrows)
        reactions.append(Reaction(*map(tuple, roles)))
    return reactions, doc


@settings(max_examples=300, deadline=None)
@given(case=emitted_documents())
def test_emitted_bytes_equal_one_json_dumps(case):
    reactions, doc = case
    assert reactions_to_json(reactions, doc) == reference_reactions_to_json(reactions, doc)


def test_emitted_integral_floats_are_int_digits():
    doc = ReactionDocument(AxisBox(0.0, 0.0, 1.0, 1.0), (
        Entity("m", EntityKind.MOLECULE, AxisBox(-1e300, -0.5, 1e300, 2.0)),
        Entity("t", EntityKind.TEXT, AxisBox(0.25, 0.0, 3.0, 1e22)),
    ))
    reactions = [Reaction(("m",), ("t",)), Reaction(("t",), ("m",))]
    emitted = reactions_to_json(reactions, doc)
    assert emitted == reference_reactions_to_json(reactions, doc)
    assert f"\n          -{int(1e300)},\n" in emitted and "e+" not in emitted
    assert '"conditions": [],' in emitted and '"arrow": []\n' in emitted
    assert reactions_to_json([], doc) == reference_reactions_to_json([], doc) == "[]"
