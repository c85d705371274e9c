"""Chemistry primitives: SMILES parsing, atom counts, charges, fingerprints."""

from .fingerprint import (
    FINGERPRINT_TAG,
    FINGERPRINT_WIDTH,
    MAX_PATH_LENGTH,
    SKETCH_DIMS,
    tanimoto,
)
from .molecule import (
    ORGANIC_SUBSET,
    VALENCES,
    Atom,
    Bond,
    Molecule,
    ValenceError,
    conservation_residual,
)
from .smiles import MAX_LENGTH, SmilesSyntaxError, parse_smiles, write_smiles

__all__ = [
    "Atom",
    "ORGANIC_SUBSET",
    "VALENCES",
    "Bond",
    "FINGERPRINT_TAG",
    "FINGERPRINT_WIDTH",
    "MAX_LENGTH",
    "MAX_PATH_LENGTH",
    "Molecule",
    "SKETCH_DIMS",
    "SmilesSyntaxError",
    "ValenceError",
    "conservation_residual",
    "parse_smiles",
    "tanimoto",
    "write_smiles",
]
