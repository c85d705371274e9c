import pytest

from rxnparse.chem.molecule import conservation_residual
from rxnparse.config import ReasoningConfig
from rxnparse.reactions import Conservation, Reaction
from rxnparse.reasoning.postprocess import post_process

from helpers import arrow_entity, identifier_entity, make_doc, molecule_entity, text_entity

CONFIG = ReasoningConfig()


class TestArrowMerging:
    def doc_two_segment_arrow(self, with_blocker=False):
        entities = [
            molecule_entity("m1", 0, 100, smiles="CCO"),
            molecule_entity("m2", 1700, 100, smiles="C=C"),
            arrow_entity("a1", 400, 150, 850),
            arrow_entity("a2", 900, 150, 1350),
        ]
        if with_blocker:
            entities.append(molecule_entity("mid", 845, 110, w=60, h=60))
        return make_doc(entities, width=2000, height=400)

    def test_adjacent_collinear_arrows_merge(self):
        doc = self.doc_two_segment_arrow()
        # candidate split: the detector saw one long arrow as two segments
        first = Reaction(reactants=("m1",), products=("m2",), arrows=("a1",), score=1.0)
        second = Reaction(reactants=("m1",), products=("m2",), arrows=("a2",), score=1.0)
        merged = post_process([first, second], doc, CONFIG)
        assert len(merged) == 1
        assert merged[0].arrows == ("a1", "a2")
        assert merged[0].reactants == ("m1",)
        assert merged[0].products == ("m2",)

    def test_entity_in_gap_blocks_merge(self):
        doc = self.doc_two_segment_arrow(with_blocker=True)
        first = Reaction(reactants=("m1",), products=("mid",), arrows=("a1",), score=1.0)
        second = Reaction(reactants=("mid",), products=("m2",), arrows=("a2",), score=1.0)
        result = post_process([first, second], doc, CONFIG)
        assert len(result) == 2

    def test_perpendicular_arrows_do_not_merge(self):
        entities = [
            molecule_entity("m1", 0, 100, smiles="CCO"),
            molecule_entity("m2", 1400, 100, smiles="C=C"),
            arrow_entity("a1", 400, 150, 850),
            {
                "id": "a2",
                "label": "arrow",
                "bbox": [900, 160, 902, 560, 922, 560, 920, 160],
                "direction": "forward",
            },
        ]
        doc = make_doc(entities, width=2000, height=700)
        first = Reaction(reactants=("m1",), products=("m2",), arrows=("a1",), score=1.0)
        second = Reaction(reactants=("m2",), products=("m1",), arrows=("a2",), score=1.0)
        assert len(post_process([first, second], doc, CONFIG)) == 2


class TestIdentifierSubstitution:
    def test_identifier_replaced_and_deduped(self):
        doc = make_doc(
            [
                molecule_entity("mol", 0, 100, smiles="CCO"),
                identifier_entity("id1", 200, 100, resolves_to="mol"),
                molecule_entity("prod", 900, 100, smiles="C=C"),
                arrow_entity("a1", 450, 150, 850),
            ]
        )
        reaction = Reaction(
            reactants=("id1", "mol"), products=("prod",), arrows=("a1",), score=1.0
        )
        result = post_process([reaction], doc, CONFIG)
        assert result[0].reactants == ("mol",)

    def test_unresolved_identifier_kept(self):
        doc = make_doc(
            [
                identifier_entity("id1", 0, 100),
                molecule_entity("prod", 900, 100, smiles="C=C"),
            ]
        )
        reaction = Reaction(reactants=("id1",), products=("prod",), score=1.0)
        result = post_process([reaction], doc, CONFIG)
        assert result[0].reactants == ("id1",)

    def test_substitution_collapse_drops_reaction(self):
        # identifier resolves to the very molecule already on the other side
        doc = make_doc(
            [
                molecule_entity("mol", 0, 100, smiles="CCO"),
                identifier_entity("id1", 900, 100, resolves_to="mol"),
            ]
        )
        reaction = Reaction(reactants=("mol",), products=("id1",), score=1.0)
        assert post_process([reaction], doc, CONFIG) == []


class TestConservation:
    def make_doc_with(self, reactant_smiles, product_smiles_list):
        entities = [molecule_entity("r1", 0, 100, smiles=reactant_smiles)]
        for k, smiles in enumerate(product_smiles_list):
            entities.append(molecule_entity(f"p{k}", 900 + 200 * k, 100, smiles=smiles))
        entities.append(arrow_entity("a1", 450, 150, 850))
        return make_doc(entities, width=2200)

    def test_balanced_flag(self):
        doc = self.make_doc_with("CCO", ["C=C", "O"])
        reaction = Reaction(reactants=("r1",), products=("p0", "p1"), arrows=("a1",), score=2.0)
        result = post_process([reaction], doc, CONFIG)
        assert result[0].conservation == Conservation.BALANCED
        assert result[0].score == 2.0

    def test_unbalanced_flag_and_penalty(self):
        doc = self.make_doc_with("CCO", ["CC=O"])
        reaction = Reaction(reactants=("r1",), products=("p0",), arrows=("a1",), score=2.0)
        result = post_process([reaction], doc, CONFIG)
        assert result[0].conservation == Conservation.UNBALANCED
        elements, charge = conservation_residual([doc.entity("r1").molecule], [doc.entity("p0").molecule])
        assert (elements, charge) == ({"H": 2}, 0)
        assert result[0].score == pytest.approx(2.0 * CONFIG.conservation_penalty)

    def test_unknown_when_member_not_molecule(self):
        doc = make_doc(
            [
                molecule_entity("r1", 0, 100, smiles="CCO"),
                text_entity("t1", 900, 100, text="product description"),
            ]
        )
        reaction = Reaction(reactants=("r1",), products=("t1",), score=2.0)
        result = post_process([reaction], doc, CONFIG)
        assert result[0].conservation == Conservation.UNKNOWN
        assert result[0].score == 2.0

    def test_unknown_when_smiles_unparsed(self):
        doc = self.make_doc_with("CCO", ["C1CC"])
        reaction = Reaction(reactants=("r1",), products=("p0",), arrows=("a1",), score=2.0)
        result = post_process([reaction], doc, CONFIG)
        assert result[0].conservation == Conservation.UNKNOWN


def test_ranking_by_penalized_score():
    doc = make_doc(
        [
            molecule_entity("r1", 0, 100, smiles="CCO"),
            molecule_entity("p1", 900, 100, smiles="CC=O"),
            molecule_entity("r2", 0, 600, smiles="CCO"),
            molecule_entity("p2", 900, 600, smiles="C=C"),
            molecule_entity("p3", 1100, 600, smiles="O"),
        ],
        height=800,
    )
    unbalanced = Reaction(reactants=("r1",), products=("p1",), score=1.0)
    balanced = Reaction(reactants=("r2",), products=("p2", "p3"), score=1.0)
    result = post_process([unbalanced, balanced], doc, CONFIG)
    assert result[0].conservation == Conservation.BALANCED
    assert result[1].conservation == Conservation.UNBALANCED


def test_never_emits_invalid_reactions():
    import random

    rng = random.Random(9)
    doc = make_doc(
        [molecule_entity(f"m{i}", (i % 6) * 250, (i // 6) * 200, smiles="CCO") for i in range(12)],
        width=2000,
        height=800,
    )
    ids = [f"m{i}" for i in range(12)]
    for _ in range(200):
        reactants = tuple(rng.sample(ids, rng.randint(1, 3)))
        remaining = [i for i in ids if i not in reactants]
        products = tuple(rng.sample(remaining, rng.randint(1, 3)))
        rest = [i for i in remaining if i not in products]
        conditions = tuple(rng.sample(rest, rng.randint(0, 2)))
        reaction = Reaction(
            reactants=reactants, products=products, conditions=conditions, score=rng.random()
        )
        for result in post_process([reaction], doc, CONFIG):
            assert result.reactants and result.products
            assert not set(result.reactants) & set(result.products)
            assert len(set(result.member_ids())) == len(result.member_ids())
