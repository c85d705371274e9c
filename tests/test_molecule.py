import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rxnparse.chem import (
    Atom,
    Bond,
    ElementCounts,
    Molecule,
    ZERO_COUNTS,
    atom_count_vector,
    bit_sketch,
    conservation_residual,
    fingerprint,
    formal_charge_sum,
    parse_smiles,
)

from helpers import BALANCED_REACTIONS, FORMULAS, formula_sum, random_molecule


@pytest.mark.parametrize("smiles,formula", sorted(FORMULAS.items()))
def test_atom_counts_against_hand_table(smiles, formula):
    assert atom_count_vector(parse_smiles(smiles)).as_dict() == formula


@pytest.mark.parametrize(
    "smiles,charge",
    [("[NH4+]", 1), ("CCO", 0), ("[O-]S(=O)(=O)[O-]", -2), ("[Fe+3]", 3), ("[O-]", -1)],
)
def test_formal_charge_sum(smiles, charge):
    assert formal_charge_sum(parse_smiles(smiles)) == charge


def test_element_counts_arithmetic():
    a = ElementCounts({"C": 2, "H": 6})
    b = ElementCounts({"C": 1, "H": 2, "O": 1})
    assert (a + b).as_dict() == {"C": 3, "H": 8, "O": 1}
    assert (a - a).is_zero
    assert a + ZERO_COUNTS == a
    assert (-b).as_dict() == {"C": -1, "H": -2, "O": -1}
    assert (a - b) == -(b - a)


def test_element_counts_drops_zeros():
    assert ElementCounts({"C": 0, "H": 2}).as_dict() == {"H": 2}
    assert ElementCounts({"C": 1}) - ElementCounts({"C": 1}) == ZERO_COUNTS


def test_balanced_reaction_examples():
    for reactants, products in BALANCED_REACTIONS:
        assert formula_sum(reactants) == formula_sum(products), (reactants, products)
        element, charge = conservation_residual(
            [parse_smiles(s) for s in reactants], [parse_smiles(s) for s in products]
        )
        assert element.is_zero and charge == 0, (reactants, products, element.as_dict())


def test_specific_residual():
    element, charge = conservation_residual(
        [parse_smiles("CCO")], [parse_smiles("CC=O")]
    )
    assert element.as_dict() == {"H": 2}
    assert charge == 0


def test_charge_residual():
    element, charge = conservation_residual(
        [parse_smiles("[NH4+]")], [parse_smiles("N")]
    )
    assert element.as_dict() == {"H": 1}
    assert charge == 1


def test_residual_identity_and_antisymmetry():
    rng = random.Random(4242)
    for _ in range(250):
        side_a = [random_molecule(rng) for _ in range(rng.randint(1, 4))]
        side_b = [random_molecule(rng) for _ in range(rng.randint(1, 4))]
        element_same, charge_same = conservation_residual(side_a, side_a)
        assert element_same.is_zero and charge_same == 0
        ab = conservation_residual(side_a, side_b)
        ba = conservation_residual(side_b, side_a)
        assert ab[0] == -ba[0]
        assert ab[1] == -ba[1]


def test_residual_requires_non_empty_sides():
    with pytest.raises(ValueError):
        conservation_residual([], [parse_smiles("O")])


def test_molecule_validation():
    atom = Atom(element="C")
    with pytest.raises(ValueError):
        Molecule(atoms=(atom,), bonds=(Bond(0, 0, 1.0),))
    with pytest.raises(ValueError):
        Molecule(atoms=(atom, atom), bonds=(Bond(0, 1, 1.0), Bond(1, 0, 1.0)))
    with pytest.raises(ValueError):
        Molecule(atoms=(atom,), bonds=(Bond(0, 1, 1.0),))
    with pytest.raises(ValueError):
        Molecule(atoms=(atom, atom), bonds=(Bond(0, 1, 1.7),))
    with pytest.raises(ValueError):
        Molecule(atoms=(), bonds=())


def test_aromatic_hydrogen_convention():
    # benzene carbons carry exactly one hydrogen each under the
    # aromatic-bond-counts-one-plus-carbon-adjustment convention
    mol = parse_smiles("c1ccccc1")
    assert all(h == 1 for h in mol.implicit_h)
    # fused carbons in naphthalene carry none
    mol = parse_smiles("c1ccc2ccccc2c1")
    assert sorted(mol.implicit_h) == [0, 0, 1, 1, 1, 1, 1, 1, 1, 1]


CHARGED_SMILES = ["[NH4+]", "[O-]S(=O)(=O)[O-]", "[Fe+3]", "CCO", "c1ccccc1", "[O-]C(=O)C", "Cl", "[H][H]"]


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), sizes=st.tuples(st.integers(1, 4), st.integers(1, 4)))
def test_cached_chemistry_equals_a_fresh_recount(seed, sizes):
    """Each molecule's kept counts, charge, fingerprint and sketch, and the residual built from them,
    equal a recount; cached molecules may appear on both sides and several times."""
    rng = random.Random(seed)
    shared = [parse_smiles(s) for s in CHARGED_SMILES]  # one molecule per SMILES, as a loaded document holds them

    def molecule():
        if rng.random() < 0.5:
            return rng.choice(shared)
        return random_molecule(rng)

    reactants = [molecule() for _ in range(sizes[0])]
    products = [molecule() for _ in range(sizes[1])]
    for mol in reactants + products:
        assert mol.atom_counts == atom_count_vector(mol) and mol.charge == formal_charge_sum(mol)
        assert mol.fingerprint == fingerprint(mol) and mol.sketch == tuple(bit_sketch(fingerprint(mol)))
    element, charge = ZERO_COUNTS, 0
    for mol in reactants:
        element, charge = element + atom_count_vector(mol), charge + formal_charge_sum(mol)
    for mol in products:
        element, charge = element - atom_count_vector(mol), charge - formal_charge_sum(mol)
    residual = conservation_residual(reactants, products)
    assert residual == (element, charge)
    assert list(residual[0].items()) == list(element.items())
