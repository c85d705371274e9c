"""Reaction lists as member columns, and the member-pair screen both criteria share.

The reader keeps a list's members as columns that ``score`` screens
directly; a hand-built list is gathered into the same columns. Both must
score exactly as the per-criterion gather they replaced and as each
other, whatever order the criteria, pred lists and thresholds come in:
the screen kept on the ground truth's columns must never be reused for
another pred list, threshold or polygon setting.
"""

import itertools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from rxnparse import evaluation
from rxnparse.entities import EntityKind
from rxnparse.evaluation import CorpusDocument, score, score_corpus
from rxnparse.geometry import AxisBox, OrientedQuad, coords_bounds
from rxnparse.reactions import BoxedMember, BoxedReaction, boxed_reactions_from_list

from helpers import reference_score, reference_slot_members, wire_reactions

THRESHOLDS = (0.0, 0.5, 1.0)
CRITERIA = ("hard", "soft")

# a small grid makes touching, nested, identical and zero-area boxes common
boxes = st.builds(
    lambda x, y, w, h: AxisBox(x, y, x + w, y + h),
    st.integers(0, 6), st.integers(0, 6), st.integers(0, 3), st.integers(0, 3),
)
quads = st.builds(
    lambda x, y, w, h, shear: OrientedQuad(((x, y), (x + w, y + shear), (x + w, y + h + shear), (x, y + h))),
    st.integers(0, 6), st.integers(0, 6), st.integers(1, 3), st.integers(1, 3), st.sampled_from((0, 0, 1)),
)
members = st.builds(BoxedMember, kind=st.sampled_from(list(EntityKind)), region=st.one_of(boxes, boxes, boxes, quads))


def _role(min_size):
    return st.lists(members, min_size=min_size, max_size=2).map(tuple)


reactions = st.builds(BoxedReaction, reactants=_role(1), products=_role(1), conditions=_role(0), arrows=_role(0))


@st.composite
def documents(draw):
    """Ground truth drawn from a small pool, so reactions repeat, and predictions that keep, edit or drop each."""
    pool = draw(st.lists(reactions, min_size=1, max_size=3))
    gt = draw(st.lists(st.sampled_from(pool), max_size=5))
    pred = []
    for base in draw(st.permutations(gt)):
        choice = draw(st.integers(0, 2))
        if choice == 1:
            role = draw(st.sampled_from(("reactants", "products", "conditions")))
            edited = list(getattr(base, role)) or [draw(members)]
            edited[draw(st.integers(0, len(edited) - 1))] = draw(members)
            base = BoxedReaction(**{**base.__dict__, role: tuple(edited)})
        if choice < 2:
            pred.append(base)
    return gt, pred + draw(st.lists(reactions, max_size=2))


def _loaded(reactions):
    """The same reactions as the reader builds them from their wire format."""
    return boxed_reactions_from_list(wire_reactions(reactions))


@settings(max_examples=80, deadline=None)
@given(doc=documents())
def test_columns_gather_as_the_per_criterion_reference(doc):
    """Reader-built and hand-built lists give the members, counts and screen decisions the per-criterion
    gather gave: its slots number the criterion's roles, a prefix of the wire order."""
    for reactions in (doc[0], _loaded(doc[0])):
        columns = evaluation._columns(reactions)
        for criterion, polygon in itertools.product(CRITERIA, (True, False)):
            _owners, _slots, bounds, counts, decidable = reference_slot_members(reactions, criterion, polygon)
            compared = evaluation._compared(columns, criterion)
            got_counts, got_decidable = evaluation._slot_counts(columns, compared, polygon)
            assert np.array_equal(got_counts[:, : counts.shape[1]], counts)
            assert not got_counts[:, counts.shape[1]:].any()
            assert got_decidable.tolist() == decidable.tolist()
            assert np.array_equal(coords_bounds(columns.coords, polygon)[compared], bounds)


@settings(max_examples=60, deadline=None)
@given(doc=documents())
def test_reader_built_lists_score_as_hand_built_ones(doc):
    gt, pred = doc
    loaded_gt, loaded_pred = _loaded(gt), _loaded(pred)
    assert loaded_gt == gt and loaded_pred == pred
    for criterion, polygon, threshold in itertools.product(CRITERIA, (True, False), THRESHOLDS):
        expected = reference_score(gt, pred, criterion, threshold, polygon)
        assert score(gt, pred, criterion, threshold, polygon) == expected
        assert score(loaded_gt, loaded_pred, criterion, threshold, polygon) == expected
        hand = score_corpus([CorpusDocument("d", tuple(gt))], [CorpusDocument("d", tuple(pred))],
                            criterion, threshold, polygon)
        loaded = score_corpus([CorpusDocument("d", tuple(loaded_gt))], [CorpusDocument("d", tuple(loaded_pred))],
                              criterion, threshold, polygon)
        assert loaded == hand


@settings(max_examples=60, deadline=None)
@given(
    doc=documents(),
    other=st.lists(reactions, max_size=4),
    calls=st.lists(st.tuples(st.booleans(), st.sampled_from(CRITERIA), st.sampled_from(THRESHOLDS), st.booleans()),
                   min_size=1, max_size=6),
)
def test_the_kept_screen_serves_only_its_own_pred_threshold_and_polygon(doc, other, calls):
    """One reader-built gt scored against two reader-built pred lists, criteria, thresholds and polygon
    settings in any order gives what each call gives alone on hand-built copies."""
    gt, pred = doc
    loaded_gt, preds = _loaded(gt), {False: (pred, _loaded(pred)), True: (other, _loaded(other))}
    for use_other, criterion, threshold, polygon in calls:
        hand, loaded = preds[use_other]
        expected = score(gt, hand, criterion, threshold, polygon)
        assert score(loaded_gt, loaded, criterion, threshold, polygon) == expected, (use_other, criterion, threshold)


@settings(max_examples=40, deadline=None)
@given(doc=documents())
def test_every_change_of_setting_between_calls_screens_again(doc):
    """Each criterion, threshold and polygon setting follows each other one on the same two reader-built
    lists, and each call gives what it gives alone."""
    gt, pred = doc
    loaded_gt, loaded_pred = _loaded(gt), _loaded(pred)
    settings_ = list(itertools.product(CRITERIA, THRESHOLDS, (True, False)))
    for criterion, threshold, polygon in settings_ + settings_[::-1] + settings_[::2] + settings_[1::3]:
        expected = score(gt, pred, criterion, threshold, polygon)
        assert score(loaded_gt, loaded_pred, criterion, threshold, polygon) == expected, (criterion, threshold, polygon)


def test_a_quad_screened_as_a_polygon_is_not_decided_as_a_box():
    """A sheared quad and a box of IoU 0.78 as polygons and 0.67 by bounding boxes, at threshold 0.7: the
    polygon screen keeps the pair for the predicate, and its result must not serve ``polygon=False``."""
    quad = OrientedQuad(((0, 0), (4, 0), (6, 4), (2, 4)))
    product = (BoxedMember(EntityKind.MOLECULE, AxisBox(20, 0, 24, 4)),)
    gt = _loaded([BoxedReaction((BoxedMember(EntityKind.MOLECULE, quad),), product)])
    pred = _loaded([BoxedReaction((BoxedMember(EntityKind.MOLECULE, AxisBox(1, 0, 5, 4)),), product)])
    results = [score(gt, pred, "hard", 0.7, polygon).matched for polygon in (True, False, True)]
    assert results == [score(list(map(_copy, gt)), list(map(_copy, pred)), "hard", 0.7, polygon).matched
                       for polygon in (True, False, True)]
    assert results == [1, 0, 1]


def test_hard_then_soft_screens_the_member_pairs_once(monkeypatch):
    """Both criteria of the same two reader-built lists filter one screen; a new threshold screens again."""
    gt = _loaded([BoxedReaction((BoxedMember(EntityKind.MOLECULE, AxisBox(0, 0, 4, 4)),),
                                (BoxedMember(EntityKind.MOLECULE, AxisBox(9, 0, 13, 4)),))])
    pred = _loaded(list(gt))
    screened = []
    overlap = evaluation.bounds_overlap
    monkeypatch.setattr(evaluation, "bounds_overlap", lambda a, b: screened.append(len(a)) or overlap(a, b))
    assert [score(gt, pred, criterion).matched for criterion in CRITERIA] == [1, 1]
    assert screened == [1, 1]  # one reactant slot and one product slot, once
    assert score(gt, pred, "soft", 1.0).matched == 0
    assert len(screened) == 4


def test_a_slice_of_a_loaded_list_is_gathered_not_shared():
    """Reactions that are not the whole reader-built list, in order, get columns of their own."""
    loaded = _loaded([
        BoxedReaction((BoxedMember(EntityKind.MOLECULE, AxisBox(k, 0, k + 1, 1)),),
                      (BoxedMember(EntityKind.MOLECULE, AxisBox(k, 5, k + 1, 6)),))
        for k in range(3)
    ])
    shared = evaluation._columns(loaded)
    assert evaluation._columns(tuple(loaded)) is shared
    for part in (loaded[:2], loaded[1:], loaded[::-1], loaded + loaded[:1]):
        columns = evaluation._columns(part)
        assert columns is not shared and len(columns) == len(part)
        assert score(loaded, part).matched_pairs == score(list(map(_copy, loaded)), list(map(_copy, part))).matched_pairs


def _copy(reaction):
    return BoxedReaction(reaction.reactants, reaction.products, reaction.conditions, reaction.arrows)


def test_reader_built_roles_are_made_on_first_read():
    [loaded] = boxed_reactions_from_list([{
        "reactants": [{"label": "molecule", "bbox": [0, 0, 2, 3]}], "products": [{"label": "text", "bbox": [1, 1, 2, 2]}],
        "conditions": [], "arrow": [{"label": "arrow", "bbox": [0, 0, 9, 0, 9, 2, 0, 2]}],
    }])
    assert "reactants" not in vars(loaded)
    assert loaded.reactants is loaded.reactants and "reactants" in vars(loaded) and "arrows" not in vars(loaded)
    assert loaded.arrows[0].coords == (0.0, 0.0, 9.0, 0.0, 9.0, 2.0, 0.0, 2.0)
    assert loaded == BoxedReaction((BoxedMember(EntityKind.MOLECULE, AxisBox(0, 0, 2, 3)),),
                                   (BoxedMember(EntityKind.TEXT, AxisBox(1, 1, 2, 2)),), (),
                                   (BoxedMember(EntityKind.ARROW, OrientedQuad(((0, 0), (9, 0), (9, 2), (0, 2)))),))
    assert hash(loaded) == hash(_copy(loaded))
