import json
import random
import re
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rxnparse import evaluation
from rxnparse.entities import EntityKind
from rxnparse.evaluation import (
    AlignmentError,
    MatchingInvariantError,
    CorpusDocument,
    entities_match,
    reaction_matches_hard,
    reaction_matches_soft,
    report_table,
    score,
    score_corpus,
)
from rxnparse.geometry import AxisBox
from rxnparse.reactions import BoxedMember, BoxedReaction, ResponseFormatError

from helpers import brute_force_max_matching, reference_kuhn_max_matching, reference_lexicographic_matching


def member(kind, x, y, w=100, h=80):
    return BoxedMember(kind=EntityKind(kind), region=AxisBox(x, y, x + w, y + h))


def reaction(reactants, products, conditions=()):
    return BoxedReaction(
        reactants=tuple(reactants), products=tuple(products), conditions=tuple(conditions)
    )


def simple_reaction(x=0, y=0, with_condition=True):
    conditions = [member("text", x + 450, y + 10, w=120, h=40)] if with_condition else []
    return reaction(
        [member("molecule", x, y + 100)],
        [member("molecule", x + 900, y + 100)],
        conditions,
    )


def shifted(boxed: BoxedReaction, dx: float, dy: float = 0.0) -> BoxedReaction:
    def move(members):
        return tuple(
            BoxedMember(
                kind=m.kind,
                region=AxisBox(
                    m.region.x_min + dx, m.region.y_min + dy, m.region.x_max + dx, m.region.y_max + dy
                ),
            )
            for m in members
        )

    return BoxedReaction(
        reactants=move(boxed.reactants),
        products=move(boxed.products),
        conditions=move(boxed.conditions),
        arrows=move(boxed.arrows),
    )


class TestEntitiesMatch:
    def test_identical(self):
        box = AxisBox(0, 0, 10, 10)
        assert entities_match(box, box, 0.5)

    def test_exactly_at_threshold_rejected(self):
        # IoU is exactly 0.5; "exceeds" is strict
        a = AxisBox(0, 0, 10, 10)
        b = AxisBox(0, 0, 10, 5)
        assert not entities_match(a, b, 0.5)

    def test_one_third_rejected(self):
        assert not entities_match(AxisBox(0, 0, 10, 10), AxisBox(5, 0, 15, 10), 0.5)


class TestHardMatch:
    def test_identical(self):
        r = simple_reaction()
        assert reaction_matches_hard(r, r)

    def test_missing_condition_fails(self):
        full = simple_reaction()
        bare = simple_reaction(with_condition=False)
        assert not reaction_matches_hard(bare, full)
        assert not reaction_matches_hard(full, bare)

    def test_shifted_reactant_fails(self):
        gt = simple_reaction()
        pred = reaction(
            [member("molecule", 60, 100)],  # IoU with gt reactant is 40/160 = 0.25
            list(gt.products),
            list(gt.conditions),
        )
        assert not reaction_matches_hard(pred, gt)

    def test_kind_must_agree(self):
        gt = reaction([member("molecule", 0, 100)], [member("molecule", 900, 100)])
        pred = reaction([member("text", 0, 100)], [member("molecule", 900, 100)])
        assert not reaction_matches_hard(pred, gt)


class TestSoftMatch:
    def test_condition_differences_ignored(self):
        a = simple_reaction(with_condition=True)
        b = simple_reaction(with_condition=False)
        assert reaction_matches_soft(a, b)
        assert reaction_matches_soft(b, a)

    def test_product_molecule_difference_fails(self):
        gt = simple_reaction()
        pred = reaction(list(gt.reactants), [member("molecule", 1200, 500)], list(gt.conditions))
        assert not reaction_matches_soft(pred, gt)

    def test_extra_text_in_reactants_ignored(self):
        gt = simple_reaction()
        pred = reaction(
            list(gt.reactants) + [member("text", 60, 300)],
            list(gt.products),
            list(gt.conditions),
        )
        assert reaction_matches_soft(pred, gt)
        assert not reaction_matches_hard(pred, gt)

    def test_molecule_cardinality_enforced(self):
        gt = simple_reaction()
        pred = reaction(
            list(gt.reactants) + [member("molecule", 0, 300)],
            list(gt.products),
        )
        assert not reaction_matches_soft(pred, gt)

    def test_hard_implies_soft(self):
        rng = random.Random(52)
        for _ in range(200):
            gt = random_boxed_reaction(rng)
            pred = perturb(rng, gt)
            if reaction_matches_hard(pred, gt):
                assert reaction_matches_soft(pred, gt)


def random_boxed_reaction(rng, x0=None, y0=None):
    x = rng.uniform(0, 2000) if x0 is None else x0
    y = rng.uniform(0, 1000) if y0 is None else y0
    reactants = [member("molecule", x + i * 220, y) for i in range(rng.randint(1, 2))]
    if rng.random() < 0.3:
        reactants.append(member("text", x, y + 180, w=90, h=40))
    products = [member("molecule", x + 900 + i * 220, y) for i in range(rng.randint(1, 2))]
    conditions = [member("text", x + 500, y - 60, w=110, h=35) for _ in range(rng.randint(0, 2))]
    return reaction(reactants, products, conditions)


def perturb(rng, boxed):
    roll = rng.random()
    if roll < 0.4:
        return boxed  # exact copy
    if roll < 0.6:
        return shifted(boxed, rng.uniform(0, 12))  # small jitter, still above IoU 0.5
    if roll < 0.8:
        return shifted(boxed, rng.uniform(300, 600))  # broken localization
    return reaction(list(boxed.reactants), [member("molecule", 5000, 5000)], list(boxed.conditions))


class TestScore:
    def test_perfect_any_order(self):
        rng = random.Random(3)
        reactions = [random_boxed_reaction(rng, x0=i * 2500, y0=0) for i in range(4)]
        shuffled = list(reactions)
        rng.shuffle(shuffled)
        report = score(reactions, shuffled, "hard")
        assert report.precision == report.recall == report.f1 == 1.0

    def test_two_three_arithmetic(self):
        rng = random.Random(8)
        gt = [random_boxed_reaction(rng, x0=0, y0=0), random_boxed_reaction(rng, x0=5000, y0=0)]
        pred = list(gt) + [random_boxed_reaction(rng, x0=20000, y0=0)]
        report = score(gt, pred, "hard")
        assert report.matched == 2
        assert report.precision == pytest.approx(2 / 3)
        assert report.recall == 1.0
        assert report.f1 == pytest.approx(0.8)

    def test_empty_pred_convention(self):
        rng = random.Random(9)
        gt = [random_boxed_reaction(rng)]
        report = score(gt, [], "hard")
        assert report.precision == 1.0
        assert report.recall == 0.0
        assert report.f1 == 0.0

    def test_empty_both(self):
        report = score([], [], "hard")
        assert report.precision == report.recall == 1.0

    def test_matched_pairs_injective_and_lexicographic(self):
        r = simple_reaction()
        gt = [r, r]
        pred = [r, r, r]
        report = score(gt, pred, "hard")
        assert report.matched_pairs == ((0, 0), (1, 1))

    def test_matched_equals_brute_force_random(self):
        rng = random.Random(1001)
        for _ in range(120):
            n_gt = rng.randint(0, 5)
            n_pred = rng.randint(0, 5)
            base = [random_boxed_reaction(rng, x0=i * 2600, y0=0) for i in range(max(n_gt, n_pred, 1))]
            gt = [base[i] for i in range(n_gt)]
            pred = [perturb(rng, base[rng.randrange(len(base))]) for _ in range(n_pred)]
            for criterion, predicate in (
                ("hard", reaction_matches_hard),
                ("soft", reaction_matches_soft),
            ):
                report = score(gt, pred, criterion)
                expected = brute_force_max_matching(
                    n_gt, n_pred, lambda g, p: predicate(pred[p], gt[g])
                )
                assert report.matched == expected


class TestCorpus:
    def doc(self, doc_id, reactions, layout=None):
        return CorpusDocument(doc_id=doc_id, reactions=tuple(reactions), layout=layout)

    def test_perfect_single_document(self):
        r = simple_reaction()
        gt = [self.doc("d0", [r], layout="single_line")]
        report = score_corpus(gt, [self.doc("d0", [r], layout="single_line")])
        assert report.f1 == 1.0
        assert set(report.per_layout) == {"single_line"}

    def test_micro_average(self):
        r1, r2 = simple_reaction(0, 0), simple_reaction(5000, 0)
        gt = [
            self.doc("d0", [r1, r2]),
            self.doc("d1", [shifted(r1, 20000), shifted(r2, 20000)]),
        ]
        pred = [
            self.doc("d0", [r1, r2]),
            self.doc("d1", []),
        ]
        report = score_corpus(gt, pred)
        assert report.precision == 1.0
        assert report.recall == 0.5
        assert report.f1 == pytest.approx(2 / 3)

    def test_per_layout_keys(self):
        r = simple_reaction()
        gt = [
            self.doc("d0", [r], layout="tree"),
            self.doc("d1", [shifted(r, 30000)], layout="graph"),
        ]
        pred = [self.doc("d0", [r]), self.doc("d1", [])]
        report = score_corpus(gt, pred)
        assert set(report.per_layout) == {"tree", "graph"}
        assert report.per_layout["tree"][2] == 1.0  # f1 in its bucket

    def test_alignment_error(self):
        r = simple_reaction()
        with pytest.raises(AlignmentError):
            score_corpus([self.doc("a", [r])], [self.doc("b", [r])])
        with pytest.raises(AlignmentError):
            score_corpus([self.doc("a", [r])], [])


def test_report_table_shape():
    r = simple_reaction()
    gt = [CorpusDocument(doc_id="d", reactions=(r,), layout="tree")]
    reports = [score_corpus(gt, gt, c) for c in ("hard", "soft")]
    table = report_table(reports)
    assert "hard" in table and "soft" in table
    assert "tree" in table
    assert "100.0" in table


def test_broken_matching_invariant_raises_typed_error(monkeypatch):
    real = evaluation._max_matching
    calls = []

    def overstated_first(n_left, adjacency):
        # the first call fixes the target size; claim one pair more than exists
        calls.append(n_left)
        matching = real(n_left, adjacency)
        return {**matching, -1: -1} if len(calls) == 1 else matching

    monkeypatch.setattr(evaluation, "_max_matching", overstated_first)
    with pytest.raises(MatchingInvariantError, match="maximum 2"):
        evaluation._lexicographic_matching(1, [[0]])


def test_augmenting_path_as_long_as_the_graph():
    # the last left reaches a free right only through every other left
    adjacency = [[i, i + 1] for i in range(5000)] + [[0]]
    matching = evaluation._max_matching(5001, adjacency)
    assert matching == {**{i: i + 1 for i in range(5000)}, 5000: 0}


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n_right: st.tuples(
    st.just(n_right), st.lists(st.lists(st.integers(0, n_right - 1), max_size=4, unique=True), max_size=6)
)))
def test_kuhn_matching_equals_the_recursive_search(graph):
    """Same size as the recursive search, and a matching of the graph."""
    n_right, adjacency = graph
    expected = reference_kuhn_max_matching(len(adjacency), n_right, adjacency)
    matching = evaluation._max_matching(len(adjacency), adjacency)
    assert len(matching) == len(expected)
    assert all(right in adjacency[left] for left, right in matching.items())
    assert len(set(matching.values())) == len(matching)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 7).flatmap(lambda n_pred: st.tuples(st.just(max(n_pred, 1)), st.lists(
    st.lists(st.integers(0, max(n_pred, 1) - 1), max_size=5, unique=True), max_size=8))))
def test_lexicographic_matching_equals_the_rerun_reference(graph):
    n_pred, adjacency = graph
    expected = reference_lexicographic_matching(len(adjacency), n_pred, adjacency)
    assert evaluation._lexicographic_matching(len(adjacency), adjacency) == expected


def test_complete_group_of_400_matches_quickly():
    adjacency = [list(range(400))] * 400
    started = time.perf_counter()
    pairs = evaluation._lexicographic_matching(400, adjacency)
    assert time.perf_counter() - started < 0.1
    assert pairs == [(i, i) for i in range(400)]


def test_dense_screening_group_of_200_matches_quickly():
    reaction = BoxedReaction(
        reactants=(BoxedMember(EntityKind.MOLECULE, AxisBox(0, 0, 10, 10)),),
        products=(BoxedMember(EntityKind.MOLECULE, AxisBox(50, 0, 60, 10)),),
    )
    started = time.perf_counter()
    report = score([reaction] * 200, [reaction] * 200, "soft")
    assert time.perf_counter() - started < 0.5
    assert report.matched_pairs == tuple((i, i) for i in range(200))


@pytest.mark.parametrize(
    "content, message",
    [
        ("{not json", "is not valid JSON"),
        ('{"id": "d1", "reactions": []}', "must be a JSON array"),
        ('[{"reactions": []}]', "document 0 needs 'id'"),
        ('[{"id": "d1"}]', "document 0 needs 'id' and 'reactions'"),
        ('[{"id": "d0", "reactions": []}, {"id": "d1", "reactions": [], "layout": ["tree"]}]',
         "document 1 'layout' must be a string"),
        ('[{"id": "d0", "reactions": [{"reactants": []}]}]', "reaction 0 is missing keys"),
        ('[{"products": [], "conditions": [], "arrow": [], "reactant": []}]', "reaction 0 is missing keys ['reactants']"),
        ('[{"arrow": []}]', "reaction 0 is missing keys ['reactants', 'products', 'conditions']"),
        ('[{"reactant": []}]', "document 0 needs 'id' and 'reactions'"),
    ],
    ids=["not-json", "not-an-array", "no-id", "no-reactions", "list-layout", "malformed-reaction",
         "bare-array-misspelled-reactants", "bare-array-arrow-only", "no-role-key-reads-as-corpus"],
)
def test_malformed_corpus_is_a_format_error(tmp_path, content, message):
    path = tmp_path / "corpus.json"
    path.write_text(content, encoding="utf-8")
    with pytest.raises(ResponseFormatError, match=re.escape(message)):
        evaluation.load_corpus(path)


def test_corpus_reads_documents_or_one_bare_reaction_array(tmp_path):
    reaction = {"reactants": [{"label": "molecule", "bbox": [0, 0, 2, 2]}], "products": [], "conditions": [], "arrow": []}
    path = tmp_path / "corpus.json"
    path.write_text(json.dumps([{"id": 7, "reactions": [reaction], "layout": "tree"}, {"id": "b", "reactions": []}]))
    first, second = evaluation.load_corpus(path)
    assert (first.doc_id, first.layout, second.doc_id, second.layout, second.reactions) == ("7", "tree", "b", None, ())
    assert first.reactions == (BoxedReaction((BoxedMember(EntityKind.MOLECULE, AxisBox(0, 0, 2, 2)),), ()),)
    path.write_text(json.dumps([reaction]))
    [single] = evaluation.load_corpus(path)
    assert single.doc_id == "<single>" and single.reactions == first.reactions
