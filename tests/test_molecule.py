import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rxnparse.chem import (
    Atom,
    Bond,
    Molecule,
    conservation_residual,
    parse_smiles,
)

from helpers import BALANCED_REACTIONS, FORMULAS, formula_sum, random_molecule


@pytest.mark.parametrize("smiles,formula", sorted(FORMULAS.items()))
def test_atom_counts_against_hand_table(smiles, formula):
    counts = parse_smiles(smiles).atom_counts
    assert type(counts) is dict and list(counts.items()) == sorted(formula.items())


@pytest.mark.parametrize(
    "smiles,charge",
    [("[NH4+]", 1), ("CCO", 0), ("[O-]S(=O)(=O)[O-]", -2), ("[Fe+3]", 3), ("[O-]", -1)],
)
def test_formal_charge_sum(smiles, charge):
    assert parse_smiles(smiles).charge == charge


def test_element_counts_drops_zeros():
    """A residual keeps only the elements whose counts differ, sorted by element."""
    assert conservation_residual([parse_smiles("CCO")], [parse_smiles("OCC")]) == ({}, 0)
    rng = random.Random(77)
    for _ in range(200):
        side_a = [random_molecule(rng) for _ in range(rng.randint(1, 3))]
        side_b = [random_molecule(rng) for _ in range(rng.randint(1, 3))]
        element, _charge = conservation_residual(side_a, side_b)
        assert 0 not in element.values() and list(element) == sorted(element)


def test_balanced_reaction_examples():
    for reactants, products in BALANCED_REACTIONS:
        assert formula_sum(reactants) == formula_sum(products), (reactants, products)
        element, charge = conservation_residual(
            [parse_smiles(s) for s in reactants], [parse_smiles(s) for s in products]
        )
        assert element == {} and charge == 0, (reactants, products, element)


def test_specific_residual():
    element, charge = conservation_residual(
        [parse_smiles("CCO")], [parse_smiles("CC=O")]
    )
    assert element == {"H": 2}
    assert charge == 0


def test_charge_residual():
    element, charge = conservation_residual(
        [parse_smiles("[NH4+]")], [parse_smiles("N")]
    )
    assert element == {"H": 1}
    assert charge == 1


def test_residual_identity_and_antisymmetry():
    rng = random.Random(4242)
    for _ in range(250):
        side_a = [random_molecule(rng) for _ in range(rng.randint(1, 4))]
        side_b = [random_molecule(rng) for _ in range(rng.randint(1, 4))]
        element_same, charge_same = conservation_residual(side_a, side_a)
        assert element_same == {} and charge_same == 0
        ab = conservation_residual(side_a, side_b)
        ba = conservation_residual(side_b, side_a)
        assert ab[0] == {element: -count for element, count in ba[0].items()}
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
    """The residual built from each molecule's kept counts and charge equals a recount from the atoms;
    cached molecules may appear on both sides and several times."""
    rng = random.Random(seed)
    shared = [parse_smiles(s) for s in CHARGED_SMILES]  # one molecule per SMILES, as a loaded document holds them

    def molecule():
        if rng.random() < 0.5:
            return rng.choice(shared)
        return random_molecule(rng)

    reactants = [molecule() for _ in range(sizes[0])]
    products = [molecule() for _ in range(sizes[1])]
    element, charge = Counter(), 0
    for sign, side in ((1, reactants), (-1, products)):
        for mol in side:
            for idx, atom in enumerate(mol.atoms):
                element[atom.element] += sign
                element["H"] += sign * mol.total_hydrogens(idx)
                charge += sign * atom.charge
    expected = {e: n for e, n in sorted(element.items()) if n}
    residual = conservation_residual(reactants, products)
    assert residual == (expected, charge)
    assert list(residual[0].items()) == list(expected.items())
