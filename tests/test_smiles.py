import random
from collections import Counter

import pytest

from rxnparse.chem import (
    SmilesSyntaxError,
    ValenceError,
    parse_smiles,
    write_smiles,
)

from helpers import random_molecule


@pytest.mark.parametrize(
    "smiles,expected_atoms,expected_bonds",
    [
        ("O", 1, 0),
        ("CCO", 3, 2),
        ("C1CC1", 3, 3),
        ("C(C)C", 3, 2),
        ("CC(O)(C)C", 5, 4),
        ("c1ccccc1", 6, 6),
        ("C1CC1.O", 4, 3),
        ("[NH4+]", 1, 0),
        ("[13CH4]", 1, 0),
        ("C/C=C/C", 4, 3),
        ("C%10CC%10", 3, 3),
    ],
)
def test_parse_shapes(smiles, expected_atoms, expected_bonds):
    mol = parse_smiles(smiles)
    assert mol.num_atoms == expected_atoms
    assert len(mol.bonds) == expected_bonds
    assert mol.source_text == smiles


def test_water_counts():
    mol = parse_smiles("O")
    assert mol.atom_counts == {"H": 2, "O": 1}


def test_ammonium_bracket_atom():
    mol = parse_smiles("[NH4+]")
    atom = mol.atoms[0]
    assert atom.element == "N"
    assert atom.explicit_h == 4
    assert atom.charge == 1
    assert mol.implicit_h[0] == 0


def test_cyclopropane_ring_closure():
    mol = parse_smiles("C1CC1")
    orders = sorted((b.i, b.j) for b in mol.bonds)
    assert orders == [(0, 1), (0, 2), (1, 2)]
    assert mol.atom_counts == {"C": 3, "H": 6}


def test_bond_orders():
    mol = parse_smiles("C=C")
    assert mol.bonds[0].order == 2
    mol = parse_smiles("C#N")
    assert mol.bonds[0].order == 3
    mol = parse_smiles("c1ccccc1")
    assert all(b.order == 1.5 for b in mol.bonds)


def test_explicit_single_bond_between_aromatics():
    # the biphenyl bridge must stay a single bond
    mol = parse_smiles("c1ccccc1-c1ccccc1")
    single = [b for b in mol.bonds if b.order == 1.0]
    assert len(single) == 1


def test_ring_bond_order_on_either_side():
    a = parse_smiles("C=1CCCCC=1")
    b = parse_smiles("C1CCCCC=1")
    assert sum(bond.order == 2 for bond in a.bonds) == 1
    assert sum(bond.order == 2 for bond in b.bonds) == 1


def test_stereo_markers_discarded():
    mol = parse_smiles("C/C=C\\C")
    assert mol.atom_counts == parse_smiles("CC=CC").atom_counts
    mol = parse_smiles("[C@H](N)(C)O")
    assert mol.atoms[0].explicit_h == 1


def test_dot_disconnection_counts_add():
    combined = parse_smiles("CCO.[NH4+]").atom_counts
    left = parse_smiles("CCO").atom_counts
    right = parse_smiles("[NH4+]").atom_counts
    assert Counter(combined) == Counter(left) + Counter(right)


@pytest.mark.parametrize(
    "bad",
    [
        "",
        "C(",
        "C)",
        "(C)",
        "C1CC",
        "C%1C",
        "[NH4",
        "[Xx]",
        "X",
        "C=",
        "C==C",
        ".C",
        "C.",
        "C..C",
        "=C",
        "C(=)O",
        "C11",
        "C1C1C1",
    ],
)
def test_syntax_errors(bad):
    with pytest.raises(SmilesSyntaxError) as excinfo:
        parse_smiles(bad)
    # position and reason are both part of the message
    assert "position" in str(excinfo.value)


def test_error_carries_position():
    with pytest.raises(SmilesSyntaxError) as excinfo:
        parse_smiles("CC)C")
    assert excinfo.value.position == 2


def test_valence_error_uncharged():
    with pytest.raises(ValenceError):
        parse_smiles("C(C)(C)(C)(C)C")
    with pytest.raises(ValenceError):
        parse_smiles("O(C)(C)C")


def test_charge_suspends_valence_check():
    mol = parse_smiles("[NH4+]")
    assert mol.atom_counts == {"H": 4, "N": 1}


def test_too_long_rejected():
    with pytest.raises(SmilesSyntaxError):
        parse_smiles("C" * 5000)


def test_roundtrip_atom_count_identity():
    rng = random.Random(20240817)
    for _ in range(300):
        mol = random_molecule(rng)
        text = write_smiles(mol)
        reparsed = parse_smiles(text)
        assert reparsed.atom_counts == mol.atom_counts, text
        # and once more through the full cycle
        again = parse_smiles(write_smiles(reparsed))
        assert again.atom_counts == mol.atom_counts


def test_roundtrip_preserves_bond_multiset():
    rng = random.Random(99)
    for _ in range(100):
        mol = random_molecule(rng)
        reparsed = parse_smiles(write_smiles(mol))
        assert sorted(b.order for b in reparsed.bonds) == sorted(b.order for b in mol.bonds)


def _mutations(smiles: str):
    yield smiles + "("
    yield ")" + smiles
    yield smiles + "%99"
    yield smiles + "="
    yield "=" + smiles
    yield smiles + "[Q]"


def test_mutated_corpus_rejected_with_syntax_error():
    rng = random.Random(7)
    for _ in range(60):
        base = write_smiles(random_molecule(rng))
        for bad in _mutations(base):
            with pytest.raises(SmilesSyntaxError):
                parse_smiles(bad)


def test_fuzz_never_raises_anything_else():
    # anything can be rejected, but only ever with the two documented errors
    alphabet = "CNOPSFIclnos()[]=#-+1234%.@/\\BrH "
    rng = random.Random(31337)
    parsed = 0
    for _ in range(3000):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 24)))
        try:
            parse_smiles(text)
            parsed += 1
        except (SmilesSyntaxError, ValenceError):
            pass
    assert parsed > 0  # some random strings are legal


def test_many_ring_closures_use_percent_digits():
    # a dense cage forces the writer past single-digit ring labels
    from rxnparse.chem import Atom, Bond, Molecule

    n = 14
    atoms = tuple(Atom(element="C") for _ in range(n))
    bonds = [Bond(i, i + 1, 1.0) for i in range(n - 1)]
    extra = [(0, 5), (1, 6), (2, 7), (3, 8), (4, 9), (0, 13), (1, 12), (2, 11), (3, 10), (5, 10), (6, 11)]
    for i, j in extra:
        bonds.append(Bond(i, j, 1.0))
    mol = Molecule(atoms=atoms, bonds=tuple(bonds))
    text = write_smiles(mol)
    assert "%1" in text  # two-digit labels appear
    reparsed = parse_smiles(text)
    assert sorted((b.i, b.j) for b in reparsed.bonds) == sorted(
        (b.i, b.j) for b in mol.bonds
    ) or reparsed.atom_counts == mol.atom_counts
