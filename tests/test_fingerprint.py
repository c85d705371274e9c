import random

from rxnparse.chem import (
    FINGERPRINT_TAG,
    FINGERPRINT_WIDTH,
    MAX_PATH_LENGTH,
    bit_sketch,
    fingerprint,
    parse_smiles,
    tanimoto,
)
from rxnparse.chem.fingerprint import Fingerprint, _bit_for, _path_labels

from helpers import permuted, random_molecule


def test_deterministic():
    mol = parse_smiles("CC(=O)OCC")
    assert fingerprint(mol) == fingerprint(mol)


def test_equivalent_strings_equal_fingerprints():
    assert fingerprint(parse_smiles("CCO")) == fingerprint(parse_smiles("OCC"))


def test_single_atom_popcount():
    assert fingerprint(parse_smiles("C")).popcount >= 1


def test_reindexing_invariance():
    rng = random.Random(11)
    for _ in range(100):
        mol = random_molecule(rng)
        assert fingerprint(mol) == fingerprint(permuted(mol, rng))


def test_tanimoto_identity_and_bounds():
    rng = random.Random(5)
    pool = [fingerprint(random_molecule(rng)) for _ in range(60)]
    for fp in pool:
        assert tanimoto(fp, fp) == 1.0
    for _ in range(500):
        a, b = rng.choice(pool), rng.choice(pool)
        value = tanimoto(a, b)
        assert 0.0 <= value <= 1.0
        assert value == tanimoto(b, a)


def test_tanimoto_set_arithmetic():
    a = Fingerprint(bits=(1 << 1) | (1 << 2) | (1 << 3))
    b = Fingerprint(bits=(1 << 3) | (1 << 4))
    assert tanimoto(a, b) == 0.25
    disjoint = Fingerprint(bits=(1 << 9))
    assert tanimoto(a, disjoint) == 0.0


def test_tanimoto_empty_convention():
    empty = Fingerprint(bits=0)
    assert tanimoto(empty, empty) == 1.0


def test_config_tag_includes_path_length():
    assert (FINGERPRINT_TAG, FINGERPRINT_WIDTH, MAX_PATH_LENGTH) == ("path-v1:l5", 2048, 5)
    rng = random.Random(3)
    for _ in range(50):
        assert fingerprint(random_molecule(rng)).bits < 1 << FINGERPRINT_WIDTH


def test_path_length_changes_fingerprint():
    """Paths up to ``MAX_PATH_LENGTH`` bonds are hashed, not only the one-bond ones."""
    mol = parse_smiles("CCCCCC")
    short = _path_labels(mol, 1)
    assert short < _path_labels(mol, MAX_PATH_LENGTH)
    assert fingerprint(mol).popcount > len({_bit_for(label) for label in short})


def test_charged_atoms_distinguished():
    plain = fingerprint(parse_smiles("N"))
    charged = fingerprint(parse_smiles("[NH4+]"))
    assert plain != charged


def test_bit_sketch_shape_and_range():
    fp = fingerprint(parse_smiles("CC(=O)OCC"))
    sketch = bit_sketch(fp, 16)
    assert len(sketch) == 16
    assert all(0.0 <= v <= 1.0 for v in sketch)
    assert sum(sketch) > 0
