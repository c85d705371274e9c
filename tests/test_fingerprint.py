import random

from rxnparse.chem import (
    FINGERPRINT_TAG,
    FINGERPRINT_WIDTH,
    MAX_PATH_LENGTH,
    SKETCH_DIMS,
    parse_smiles,
    tanimoto,
)
from rxnparse.chem.fingerprint import _bit_for, _path_labels

from helpers import permuted, random_molecule


def test_deterministic():
    assert parse_smiles("CC(=O)OCC").fingerprint == parse_smiles("CC(=O)OCC").fingerprint


def test_equivalent_strings_equal_fingerprints():
    assert parse_smiles("CCO").fingerprint == parse_smiles("OCC").fingerprint


def test_single_atom_popcount():
    assert parse_smiles("C").fingerprint.bit_count() >= 1


def test_reindexing_invariance():
    rng = random.Random(11)
    for _ in range(100):
        mol = random_molecule(rng)
        assert mol.fingerprint == permuted(mol, rng).fingerprint


def test_tanimoto_identity_and_bounds():
    rng = random.Random(5)
    pool = [random_molecule(rng).fingerprint for _ in range(60)]
    for fp in pool:
        assert tanimoto(fp, fp) == 1.0
    for _ in range(500):
        a, b = rng.choice(pool), rng.choice(pool)
        value = tanimoto(a, b)
        assert 0.0 <= value <= 1.0
        assert value == tanimoto(b, a)


def test_tanimoto_set_arithmetic():
    a = (1 << 1) | (1 << 2) | (1 << 3)
    b = (1 << 3) | (1 << 4)
    assert tanimoto(a, b) == 0.25
    disjoint = 1 << 9
    assert tanimoto(a, disjoint) == 0.0


def test_tanimoto_empty_convention():
    empty = 0
    assert tanimoto(empty, empty) == 1.0


def test_config_tag_includes_path_length():
    assert (FINGERPRINT_TAG, FINGERPRINT_WIDTH, MAX_PATH_LENGTH) == ("path-v1:l5", 2048, 5)
    rng = random.Random(3)
    for _ in range(50):
        fp = random_molecule(rng).fingerprint
        assert type(fp) is int and fp < 1 << FINGERPRINT_WIDTH


def test_path_length_changes_fingerprint():
    """Paths up to ``MAX_PATH_LENGTH`` bonds are hashed, not only the one-bond ones."""
    mol = parse_smiles("CCCCCC")
    short = _path_labels(mol, 1)
    assert short < _path_labels(mol, MAX_PATH_LENGTH)
    assert mol.fingerprint.bit_count() > len({_bit_for(label) for label in short})


def test_charged_atoms_distinguished():
    plain = parse_smiles("N").fingerprint
    charged = parse_smiles("[NH4+]").fingerprint
    assert plain != charged


def test_bit_sketch_shape_and_range():
    mol = parse_smiles("CC(=O)OCC")
    sketch = mol.sketch
    assert isinstance(sketch, tuple) and len(sketch) == SKETCH_DIMS == 16
    assert all(0.0 <= v <= 1.0 for v in sketch)
    assert sum(sketch) > 0
    stripe = FINGERPRINT_WIDTH // SKETCH_DIMS
    counts = [0] * SKETCH_DIMS
    for i in range(FINGERPRINT_WIDTH):
        counts[i // stripe] += mol.fingerprint >> i & 1
    assert sketch == tuple(c / stripe for c in counts)
